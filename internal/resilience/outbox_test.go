package resilience

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"histanon/internal/obs"
	"histanon/internal/wire"
)

// vclock advances virtual time instantly on Sleep, so retry schedules
// replay in microseconds.
type vclock struct{ nanos atomic.Int64 }

func (c *vclock) Now() time.Time { return time.Unix(0, c.nanos.Load()) }
func (c *vclock) Sleep(d time.Duration) {
	if d > 0 {
		c.nanos.Add(int64(d))
	}
}

// countingSink fails the first failN deliveries, then succeeds.
type countingSink struct {
	mu        sync.Mutex
	failN     int
	calls     int
	delivered []*wire.Request
}

func (s *countingSink) Deliver(req *wire.Request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.calls <= s.failN {
		return errors.New("sink: injected failure")
	}
	s.delivered = append(s.delivered, req)
	return nil
}

func (s *countingSink) deliveredCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.delivered)
}

func req(id int64) *wire.Request {
	return &wire.Request{ID: wire.MsgID(id), Service: "svc", Pseudonym: "p"}
}

func TestOutboxDeliversAndCounts(t *testing.T) {
	sink := &countingSink{}
	o := NewOutbox(sink, Options{QueueSize: 8, Workers: 2, Clock: &vclock{}})
	for i := 0; i < 5; i++ {
		if err := o.TryDeliver(req(int64(i))); err != nil {
			t.Fatalf("TryDeliver(%d): %v", i, err)
		}
	}
	o.Close()
	if got := sink.deliveredCount(); got != 5 {
		t.Fatalf("delivered %d, want 5", got)
	}
	if o.Events.Get(EventEnqueued) != 5 || o.Events.Get(EventDelivered) != 5 {
		t.Fatalf("events: enqueued=%d delivered=%d",
			o.Events.Get(EventEnqueued), o.Events.Get(EventDelivered))
	}
	if o.Dropped() != 0 || o.QueueDepth() != 0 {
		t.Fatalf("dropped=%d depth=%d", o.Dropped(), o.QueueDepth())
	}
}

func TestOutboxRetriesThenSucceeds(t *testing.T) {
	sink := &countingSink{failN: 2}
	o := NewOutbox(sink, Options{
		QueueSize: 4, Workers: 1, MaxAttempts: 4, Clock: &vclock{},
		Deadline: time.Minute,
		Breaker:  BreakerConfig{FailureThreshold: 10},
	})
	if err := o.TryDeliver(req(1)); err != nil {
		t.Fatal(err)
	}
	o.Close()
	if sink.deliveredCount() != 1 {
		t.Fatalf("delivered %d, want 1 after retries", sink.deliveredCount())
	}
	if o.Events.Get(EventRetries) != 2 {
		t.Fatalf("retries = %d, want 2", o.Events.Get(EventRetries))
	}
}

func TestOutboxRetriesExhaustedAudited(t *testing.T) {
	var mu sync.Mutex
	var audited []obs.Event
	sink := &countingSink{failN: 1 << 30}
	o := NewOutbox(sink, Options{
		QueueSize: 4, Workers: 1, MaxAttempts: 3, Clock: &vclock{},
		Deadline: time.Hour,
		Breaker:  BreakerConfig{FailureThreshold: 100},
		Audit: func(e obs.Event) {
			mu.Lock()
			audited = append(audited, e)
			mu.Unlock()
		},
	})
	if err := o.TryDeliver(req(9)); err != nil {
		t.Fatal(err)
	}
	o.Close()
	if o.Events.Get(EventDroppedSPError) != 1 || o.Dropped() != 1 {
		t.Fatalf("drop events: sp_error=%d dropped=%d",
			o.Events.Get(EventDroppedSPError), o.Dropped())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(audited) != 1 {
		t.Fatalf("audited %d events, want 1", len(audited))
	}
	e := audited[0]
	if e.Kind != obs.KindDelivery || e.Outcome != obs.OutcomeDropped ||
		e.Reason != "retries_exhausted" || e.MsgID != 9 || e.Attempts != 3 {
		t.Fatalf("audit event: %+v", e)
	}
}

func TestOutboxQueueFullSheds(t *testing.T) {
	block := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	var once sync.Once
	sink := DeliveryFunc(func(*wire.Request) error {
		once.Do(started.Done)
		<-block
		return nil
	})
	o := NewOutbox(sink, Options{QueueSize: 2, Workers: 1, Clock: &vclock{}})
	// First request occupies the worker; two more fill the queue.
	if err := o.TryDeliver(req(1)); err != nil {
		t.Fatal(err)
	}
	started.Wait() // the worker holds request 1, the queue is empty
	if err := o.TryDeliver(req(2)); err != nil {
		t.Fatal(err)
	}
	if err := o.TryDeliver(req(3)); err != nil {
		t.Fatal(err)
	}
	err := o.TryDeliver(req(4))
	if err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	var r interface{ Reason() string }
	if !errors.As(err, &r) || r.Reason() != "queue_full" {
		t.Fatalf("queue-full error lacks the audit reason: %v", err)
	}
	if o.Events.Get(EventShedQueueFull) != 1 {
		t.Fatal("shed event not counted")
	}
	close(block)
	o.Close()
}

func TestOutboxBreakerOpenShedsSynchronously(t *testing.T) {
	clock := &vclock{}
	sink := &countingSink{failN: 1 << 30}
	o := NewOutbox(sink, Options{
		QueueSize: 16, Workers: 1, MaxAttempts: 1, Clock: clock,
		Deadline: time.Hour,
		Breaker:  BreakerConfig{FailureThreshold: 2, OpenFor: time.Hour},
	})
	o.TryDeliver(req(1))
	o.TryDeliver(req(2))
	// Wait for both to fail and trip the breaker.
	deadline := time.Now().Add(5 * time.Second)
	for o.Dropped() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := o.TryDeliver(req(3)); err != ErrBreakerOpen {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if o.Events.Get(EventShedBreakerOpen) != 1 {
		t.Fatal("breaker shed not counted")
	}
	if states := o.BreakerStates(); states["svc"] != "open" {
		t.Fatalf("BreakerStates = %v", states)
	}
	if o.OpenBreakers() != 1 {
		t.Fatalf("OpenBreakers = %d", o.OpenBreakers())
	}
	o.Close()
}

func TestOutboxClosedRefuses(t *testing.T) {
	o := NewOutbox(&countingSink{}, Options{QueueSize: 2, Workers: 1, Clock: &vclock{}})
	o.Close()
	o.Close() // idempotent
	if err := o.TryDeliver(req(1)); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestOutboxConcurrentStress hammers TryDeliver from many goroutines
// against a flaky sink while the queue is tiny, then checks
// conservation: every admitted request is delivered or dropped, never
// lost. Run under -race this also proves the admission/Close/worker
// paths share no unsynchronized state.
func TestOutboxConcurrentStress(t *testing.T) {
	var calls atomic.Int64
	sink := DeliveryFunc(func(*wire.Request) error {
		if calls.Add(1)%7 == 0 {
			return errors.New("flaky")
		}
		return nil
	})
	clock := &vclock{}
	o := NewOutbox(sink, Options{
		QueueSize: 8, Workers: 4, MaxAttempts: 3, Clock: clock,
		Deadline: time.Hour,
		Breaker:  BreakerConfig{FailureThreshold: 1 << 30},
	})
	const (
		producers = 8
		perProd   = 200
	)
	var admitted, refused atomic.Int64
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		p := p
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				if err := o.TryDeliver(req(int64(p*perProd + i))); err == nil {
					admitted.Add(1)
				} else {
					refused.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	o.Close()
	enq := o.Events.Get(EventEnqueued)
	if enq != admitted.Load() {
		t.Fatalf("enqueued %d, admitted %d", enq, admitted.Load())
	}
	if got := o.Events.Get(EventDelivered) + o.Dropped(); got != enq {
		t.Fatalf("conservation violated: enqueued=%d delivered+dropped=%d", enq, got)
	}
	if refused.Load()+admitted.Load() != producers*perProd {
		t.Fatalf("requests unaccounted for: admitted=%d refused=%d",
			admitted.Load(), refused.Load())
	}
	if o.QueueDepth() != 0 {
		t.Fatalf("queue not drained: depth=%d", o.QueueDepth())
	}
}

func TestOutboxRegisterMetricsDefaults(t *testing.T) {
	o := NewOutbox(&countingSink{}, Options{QueueSize: 3, Workers: 1, Clock: &vclock{}})
	defer o.Close()
	if o.QueueCapacity() != 3 {
		t.Fatalf("QueueCapacity = %d", o.QueueCapacity())
	}
}

// TestOutboxAdmitsWhileWorkersWaitForCPU is the starved-worker case: on
// one P, a producer that never blocks keeps the workers from running,
// so a queue of 4 fills after 4 calls. Admission must park on the full
// queue long enough for a worker to drain it instead of shedding.
func TestOutboxAdmitsWhileWorkersWaitForCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sink := &countingSink{}
	o := NewOutbox(sink, Options{QueueSize: 4, Workers: 2, Clock: &vclock{}})
	const calls = 1000
	shed := 0
	for i := 0; i < calls; i++ {
		if err := o.TryDeliver(req(int64(i))); err == ErrQueueFull {
			shed++
		} else if err != nil {
			t.Fatalf("TryDeliver(%d): %v", i, err)
		}
	}
	o.Close()
	if shed != 0 {
		t.Fatalf("shed %d of %d requests while the workers were runnable", shed, calls)
	}
	if got := sink.deliveredCount(); got != calls {
		t.Fatalf("delivered %d, want %d", got, calls)
	}
}
