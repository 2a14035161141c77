// Package resilience makes the trusted server fail closed under the
// faults a deployed anonymizer actually meets on its SP side:
// service-provider stalls, service-provider outages and overload. The
// paper's privacy guarantee (§3, Fig. 1) depends on the TS sitting
// between users and service providers; this package guarantees that
// when the SP side misbehaves, the system degrades toward *less*
// exposure — a request is suppressed rather than forwarded less
// generalized. Keeping the anonymity state (the PHL the Def. 8
// witnesses are drawn from) across a crash is internal/storage's job.
//
// The Outbox (this file) is a bounded asynchronous delivery queue in
// front of the service provider, with per-request deadlines,
// exponential backoff + deterministic jitter retries (backoff.go) and a
// per-service circuit breaker (breaker.go). Admission is fail-closed:
// when the queue stays full for one scheduler slice or the breaker is
// open, TryDeliverTraced refuses synchronously and the trusted server
// records the request as suppressed (degraded), never forwarded.
//
// Every fault outcome is observable: the Outbox feeds the
// histanon_resilience_* metric families and writes KindDelivery audit
// events for asynchronous drops, so a suppressed or dropped request is
// never silent. OBSERVABILITY.md documents the full surface, and
// internal/chaos injects faults to prove the privacy invariants hold
// under them.
package resilience

import (
	"sync"
	"sync/atomic"
	"time"

	"histanon/internal/metrics"
	"histanon/internal/obs"
	"histanon/internal/wire"
)

// Delivery is a fallible service-provider channel: the transport the
// Outbox retries over. Implementations must be safe for concurrent use.
type Delivery interface {
	Deliver(req *wire.Request) error
}

// DeliveryFunc adapts a function to the Delivery interface.
type DeliveryFunc func(req *wire.Request) error

// Deliver implements Delivery.
func (f DeliveryFunc) Deliver(req *wire.Request) error { return f(req) }

// Clock abstracts time for deterministic fault-injection tests
// (internal/chaos provides a virtual implementation with skew hooks).
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// AdmissionError is a synchronous admission refusal. Why is the audit
// reason label the trusted server records on the degraded decision
// (Decision.DegradedReason / the audit `reason` field).
type AdmissionError struct {
	Msg string
	Why string
}

// Error implements error.
func (e *AdmissionError) Error() string { return e.Msg }

// Reason returns the audit reason label.
func (e *AdmissionError) Reason() string { return e.Why }

// Admission errors returned by TryDeliverTraced. The trusted server maps each
// to a suppressed (degraded) decision — the fail-closed outcome.
var (
	// ErrQueueFull reports that the outbox queue is saturated.
	ErrQueueFull = &AdmissionError{"resilience: outbox queue full", "queue_full"}
	// ErrBreakerOpen reports that the service's circuit breaker is open.
	ErrBreakerOpen = &AdmissionError{"resilience: circuit breaker open", "breaker_open"}
	// ErrClosed reports that the outbox has been shut down.
	ErrClosed = &AdmissionError{"resilience: outbox closed", "outbox_closed"}
)

// Outbox event counter values (the "event" label of
// histanon_resilience_events_total). OBSERVABILITY.md documents each.
const (
	EventEnqueued           = "enqueued"
	EventDelivered          = "delivered"
	EventRetries            = "retries"
	EventShedQueueFull      = "shed_queue_full"
	EventShedBreakerOpen    = "shed_breaker_open"
	EventDropped            = "dropped"
	EventDroppedDeadline    = "dropped_deadline"
	EventDroppedBreakerOpen = "dropped_breaker_open"
	EventDroppedSPError     = "dropped_sp_error"
	EventDroppedClosed      = "dropped_closed"
)

// Options configures an Outbox. The zero value gets safe defaults.
type Options struct {
	// QueueSize bounds the number of requests awaiting delivery
	// (default 1024). A queue that stays full for 10 ms sheds new
	// requests synchronously.
	QueueSize int
	// Workers is the number of concurrent delivery goroutines
	// (default 4).
	Workers int
	// Deadline is the end-to-end budget of one request, from enqueue to
	// last retry (default 5s). Expired requests are dropped, not
	// delivered late.
	Deadline time.Duration
	// MaxAttempts bounds delivery attempts per request (default 4).
	MaxAttempts int
	// Backoff schedules the delay before each retry.
	Backoff Backoff
	// Breaker configures the per-service circuit breakers.
	Breaker BreakerConfig
	// Seed makes the retry jitter deterministic across runs (default 1).
	Seed int64
	// Clock substitutes time for tests; nil means the real clock.
	Clock Clock
	// Audit, when non-nil, receives one obs.Event per asynchronous
	// delivery failure (KindDelivery), so dropped requests appear in the
	// privacy audit trail. It must be safe for concurrent use.
	Audit func(e obs.Event)
}

func (o Options) withDefaults() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Deadline <= 0 {
		o.Deadline = 5 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Clock == nil {
		o.Clock = realClock{}
	}
	return o
}

// pending is one queued request with its admission timestamp and, when
// the request was traced, the request span's trace context (the parent
// of the delivery span the worker will record).
type pending struct {
	req      *wire.Request
	deadline time.Time
	tc       obs.TraceContext
	enq      time.Time
}

// Outbox is the bounded asynchronous delivery pipeline between the
// trusted server and a service provider. Its fail-closed
// TryDeliverTraced is ts.Outbox, the trusted server's one admission
// call. Safe for concurrent use.
type Outbox struct {
	opts   Options
	target Delivery
	queue  chan pending

	// Events counts every pipeline outcome by event name; exposed as
	// histanon_resilience_events_total.
	Events *metrics.CounterVec

	mu       sync.Mutex
	breakers map[string]*Breaker

	// closeMu serializes admission against Close: the queue channel may
	// only be closed while no admission holds the read side. An
	// admission parked on a full queue holds it for at most
	// admissionWait, so Close waits at most that long for it.
	closeMu sync.RWMutex
	closed  bool

	depth atomic.Int64 // current queue depth
	wg    sync.WaitGroup

	// sink receives the delivery spans of traced requests (SetSpanSink);
	// nil means delivery tracing is off.
	sink atomic.Pointer[SpanRecorder]
}

// SpanRecorder receives completed delivery spans — the contract
// obs.Observer satisfies. head reports an upstream head-sampling
// decision (the request span's sampled flag); the recorder's tail
// sampler may retain non-head spans it finds interesting.
type SpanRecorder interface {
	RecordSpan(sp *obs.Span, head bool) bool
}

// SetSpanSink installs (or, with nil, removes) the recorder that
// receives one delivery span per traced request the queue processes.
// Safe to call while deliveries are in flight.
func (o *Outbox) SetSpanSink(r SpanRecorder) {
	if r == nil {
		o.sink.Store(nil)
		return
	}
	o.sink.Store(&r)
}

// NewOutbox starts an outbox delivering to target. Call Close to drain
// and stop the workers.
func NewOutbox(target Delivery, opts Options) *Outbox {
	opts = opts.withDefaults()
	o := &Outbox{
		opts:     opts,
		target:   target,
		queue:    make(chan pending, opts.QueueSize),
		Events:   metrics.NewCounterVec("event"),
		breakers: make(map[string]*Breaker),
	}
	o.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go o.worker()
	}
	return o
}

// breaker returns (creating if needed) the service's circuit breaker.
func (o *Outbox) breaker(service string) *Breaker {
	o.mu.Lock()
	defer o.mu.Unlock()
	b := o.breakers[service]
	if b == nil {
		b = NewBreaker(o.opts.Breaker, o.opts.Clock.Now)
		o.breakers[service] = b
	}
	return b
}

// TryDeliver is TryDeliverTraced for an untraced request. The trusted
// server calls only TryDeliverTraced; TryDeliver stays because
// perfbench's timing decorator (perfbench/layers.go) forwards it.
func (o *Outbox) TryDeliver(req *wire.Request) error {
	return o.TryDeliverTraced(req, obs.TraceContext{})
}

// TryDeliverTraced admits a request into the delivery queue, or refuses
// synchronously — the fail-closed path. It returns ErrQueueFull when
// the queue stays saturated for admissionWait, ErrBreakerOpen when the
// service's breaker is open, and ErrClosed after shutdown; on any error
// the request has NOT been and will never be forwarded. A valid tc
// carries the request span's trace context into the queue: the worker
// records a delivery span (child of tc) covering the queue wait and
// every delivery attempt. A zero tc records no delivery span.
func (o *Outbox) TryDeliverTraced(req *wire.Request, tc obs.TraceContext) error {
	if o.breaker(req.Service).Rejects() {
		o.Events.Inc(EventShedBreakerOpen)
		return ErrBreakerOpen
	}
	now := o.opts.Clock.Now()
	p := pending{req: req, deadline: now.Add(o.opts.Deadline), tc: tc, enq: now}
	o.closeMu.RLock()
	defer o.closeMu.RUnlock()
	if o.closed {
		o.Events.Inc(EventDroppedClosed)
		return ErrClosed
	}
	select {
	case o.queue <- p:
	default:
		// The queue is full, often only because its workers are runnable
		// but wait for a CPU that handlers and clients hold. Parking on
		// the send frees this goroutine's P for them; the request is shed
		// only if the queue stays full for a whole slice.
		wait := time.NewTimer(admissionWait)
		defer wait.Stop()
		select {
		case o.queue <- p:
		case <-wait.C:
			o.Events.Inc(EventShedQueueFull)
			return ErrQueueFull
		}
	}
	o.depth.Add(1)
	o.Events.Inc(EventEnqueued)
	return nil
}

// admissionWait is how long admission waits on a full queue before it
// sheds: one slice of Go's scheduler, which preempts a goroutine that
// has run this long, so that any runnable worker gets a CPU in that
// time. It is real time whatever the outbox's Clock.
const admissionWait = 10 * time.Millisecond

// Deliver is TryDeliver for callers that cannot observe admission
// failures; refused requests are already counted by the failure path,
// so the error is deliberately dropped. The trusted server never calls
// it; it stays because perfbench's timing decorator forwards it.
func (o *Outbox) Deliver(req *wire.Request) { _ = o.TryDeliver(req) }

// worker drains the queue until it is closed.
func (o *Outbox) worker() {
	defer o.wg.Done()
	for p := range o.queue {
		o.depth.Add(-1)
		o.attempt(p)
	}
}

// attempt runs the retry loop for one queued request. When the request
// carries a trace context and a span sink is installed, the whole loop
// is recorded as one delivery span: queue wait, per-attempt timings,
// retry and breaker events — all measured on the outbox clock, so
// virtual-time chaos schedules produce faithful spans.
func (o *Outbox) attempt(p pending) {
	clock := o.opts.Clock
	br := o.breaker(p.req.Service)
	seed := uint64(o.opts.Seed) ^ uint64(p.req.ID)

	var dsp *obs.Span
	if sink := o.sink.Load(); sink != nil && p.tc.Valid() {
		// The span is pooled and carries its identity in binary form;
		// the recorder renders hex ids only if the span is kept, and
		// recycles the span either way.
		dsp = obs.NewSpan()
		dsp.SetIdentity(p.tc.Child(), p.tc)
		dsp.Kind = obs.SpanKindDelivery
		dsp.MsgID = int64(p.req.ID)
		dsp.Service = p.req.Service
		dsp.Start = p.enq.UnixNano()
		dsp.QueueNs = clock.Now().Sub(p.enq).Nanoseconds()
		defer func() {
			// Start/TotalNs are stamped here on the outbox clock; the
			// recorder's finish() leaves them alone (began is zero).
			dsp.TotalNs = clock.Now().Sub(p.enq).Nanoseconds()
			(*sink).RecordSpan(dsp, p.tc.Sampled())
		}()
	}
	elapsed := func() int64 { return clock.Now().Sub(p.enq).Nanoseconds() }

	for attempt := 1; ; attempt++ {
		if !clock.Now().Before(p.deadline) {
			o.drop(p.req, p.tc, dsp, EventDroppedDeadline, "deadline_exceeded", attempt-1)
			return
		}
		if !br.Allow() {
			if dsp != nil {
				dsp.AddEvent("breaker_open", elapsed())
			}
			o.drop(p.req, p.tc, dsp, EventDroppedBreakerOpen, "breaker_open", attempt-1)
			return
		}
		t0 := clock.Now()
		err := o.target.Deliver(p.req)
		if dsp != nil {
			dsp.AttemptNs = append(dsp.AttemptNs, clock.Now().Sub(t0).Nanoseconds())
		}
		if err == nil {
			br.Success()
			o.Events.Inc(EventDelivered)
			if dsp != nil {
				dsp.Outcome = obs.OutcomeDelivered
			}
			return
		}
		br.Failure()
		if attempt >= o.opts.MaxAttempts {
			o.drop(p.req, p.tc, dsp, EventDroppedSPError, "retries_exhausted", attempt)
			return
		}
		o.Events.Inc(EventRetries)
		if dsp != nil {
			dsp.AddEvent("retry", elapsed())
		}
		delay := o.opts.Backoff.Delay(attempt, seed)
		if remain := p.deadline.Sub(clock.Now()); delay > remain {
			// Sleeping past the deadline cannot help; charge the failed
			// attempts and drop now.
			o.drop(p.req, p.tc, dsp, EventDroppedDeadline, "deadline_exceeded", attempt)
			return
		}
		clock.Sleep(delay)
	}
}

// drop records an asynchronous delivery failure: the request was
// admitted but never reached the service provider. Counted, audited
// when an audit hook is installed, and stamped on the delivery span
// when one is being recorded — a dropped request is never silent.
func (o *Outbox) drop(req *wire.Request, tc obs.TraceContext, dsp *obs.Span, event, reason string, attempts int) {
	o.Events.Inc(event)
	o.Events.Inc(EventDropped)
	if dsp != nil {
		dsp.Outcome = obs.OutcomeDropped
		dsp.Reason = reason
	}
	if o.opts.Audit != nil {
		e := obs.Event{
			Kind:     obs.KindDelivery,
			MsgID:    int64(req.ID),
			Service:  req.Service,
			Outcome:  obs.OutcomeDropped,
			Reason:   reason,
			Attempts: attempts,
		}
		if tc.Valid() {
			e.TraceID = tc.TraceIDString()
		}
		o.opts.Audit(e)
	}
}

// QueueDepth returns the number of requests currently awaiting
// delivery.
func (o *Outbox) QueueDepth() int { return int(o.depth.Load()) }

// QueueCapacity returns the queue bound.
func (o *Outbox) QueueCapacity() int { return o.opts.QueueSize }

// Dropped returns the number of admitted requests that were never
// delivered (deadline, breaker, SP error, shutdown).
func (o *Outbox) Dropped() int64 { return o.Events.Get(EventDropped) }

// BreakerStates returns the current state of every per-service breaker,
// keyed by service name.
func (o *Outbox) BreakerStates() map[string]string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]string, len(o.breakers))
	for svc, b := range o.breakers {
		out[svc] = b.State().String()
	}
	return out
}

// OpenBreakers returns how many per-service breakers are currently
// open — the /healthz and metrics degradation signal.
func (o *Outbox) OpenBreakers() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, b := range o.breakers {
		if b.State() == BreakerOpen {
			n++
		}
	}
	return n
}

// RegisterMetrics exposes the outbox on a Prometheus registry:
// histanon_resilience_events_total{event}, the queue-depth gauge and
// the open-breaker count.
func (o *Outbox) RegisterMetrics(r *metrics.Registry) {
	r.RegisterCounterVec(obs.MetricResilienceEvents,
		obs.Help(obs.MetricResilienceEvents),
		nil, o.Events)
	r.RegisterGaugeFunc(obs.MetricResilienceQueueDepth,
		obs.Help(obs.MetricResilienceQueueDepth),
		nil, func() float64 { return float64(o.QueueDepth()) })
	r.RegisterGaugeFunc(obs.MetricResilienceBreakerOpen,
		obs.Help(obs.MetricResilienceBreakerOpen),
		nil, func() float64 { return float64(o.OpenBreakers()) })
}

// Close stops admission, drains the already-admitted queue and waits
// for the workers to finish. Safe to call more than once.
func (o *Outbox) Close() {
	o.closeMu.Lock()
	if !o.closed {
		o.closed = true
		close(o.queue)
	}
	o.closeMu.Unlock()
	o.wg.Wait()
}
