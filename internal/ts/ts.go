// Package ts implements the Trusted Server of the paper's service model
// (§3) and its privacy-preservation strategy (§6.1):
//
//  1. Every incoming request is monitored against the user's LBQIDs.
//     Requests that match the first element of a pattern, or extend a
//     partially matched one, are generalized with Algorithm 1 before
//     being forwarded (package generalize).
//  2. When generalization fails — historical k-anonymity can no longer
//     be preserved within the service's tolerance constraints — the TS
//     tries to unlink future requests from past ones by rotating the
//     user's pseudonym inside a mix zone (package mixzone), resetting
//     all partially matched patterns. If unlinking is impossible the
//     user is flagged "at risk" and, per policy, notified or cut off.
//
// Witness persistence: Definition 8 quantifies over *all* requests of
// the user matching an LBQID, across recurrence rounds. The TS therefore
// keeps one generalization session per (user, LBQID) exposure: the
// witness set is chosen at the first matched element and only narrowed
// afterwards, so every forwarded box of the exposure is LT-consistent
// with each surviving witness. The session dies with the exposure (on
// pseudonym rotation).
//
// # Concurrency model
//
// The server is safe for concurrent use and scales with cores: there is
// no global request lock. Each user's session state (matchers,
// generalization sessions, mix-zone plan, at-risk flag) is guarded by a
// per-user mutex, so requests from independent users monitor, generalize
// and forward fully in parallel; two concurrent requests from the same
// user serialize on that user's lock. Cross-user state is confined to
// components with their own narrow synchronization: the PHL store and
// the spatio-temporal index (internally concurrency-safe), the
// pseudonym manager, the metrics counters/summaries, the atomic message
// counter, and the generalizer's mutex-guarded randomizer. The user
// registry itself sits behind a short RWMutex taken only to look up or
// create a user's state.
//
// Lock ordering: a request holds only its user's lock while running;
// the registry lock and component-internal locks nest strictly inside
// it and are never held across a call back into the server.
package ts

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/lbqid"
	"histanon/internal/link"
	"histanon/internal/metrics"
	"histanon/internal/mixzone"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/pseudonym"
	"histanon/internal/slo"
	"histanon/internal/stindex"
	"histanon/internal/wire"
)

// Level is the qualitative privacy degree of the paper's simplified user
// interface: "low, medium, high".
type Level int

// The qualitative privacy levels.
const (
	Low Level = iota
	Medium
	High
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Policy is the quantitative translation of a user's privacy
// preferences: the anonymity value k, the linkability threshold Θ and
// the k′-decay schedule of §6.2.
type Policy struct {
	// K is the historical anonymity value to preserve.
	K int
	// Theta is the linkability likelihood above which two requests are
	// considered linked by an attacker.
	Theta float64
	// Decay over-provisions witnesses at the start of a trace; zero
	// values mean no over-provisioning.
	Decay generalize.DecaySchedule
	// SuppressAtRisk cuts service off (rather than merely flagging) when
	// the user is at risk of identification.
	SuppressAtRisk bool
}

// PolicyForLevel translates the qualitative degrees of concern into
// concrete parameters (the TS performs this translation in §3).
func PolicyForLevel(l Level) Policy {
	switch l {
	case Low:
		return Policy{K: 2, Theta: 0.8}
	case Medium:
		return Policy{K: 5, Theta: 0.5,
			Decay: generalize.DecaySchedule{Target: 5, Initial: 8, Step: 1}}
	default: // High
		return Policy{K: 10, Theta: 0.3,
			Decay:          generalize.DecaySchedule{Target: 10, Initial: 16, Step: 2},
			SuppressAtRisk: true}
	}
}

// ServiceSpec describes one location-based service's tolerance
// constraints (§6.1): the coarsest resolution at which it is still
// useful.
type ServiceSpec struct {
	Name      string
	Tolerance generalize.Tolerance
}

// Outbox receives the requests the TS forwards; in experiments it is the
// (possibly adversarial) service provider.
type Outbox interface {
	Deliver(req *wire.Request)
}

// FallibleOutbox is an Outbox whose admission can fail synchronously —
// the contract of the resilience layer's bounded delivery queue
// (internal/resilience). When the configured outbox implements it, the
// server calls TryDeliver instead of Deliver and degrades a refused
// request to suppression: the fail-closed outcome, in which a request
// is withheld rather than forwarded without its delivery guarantees.
// TryDeliver returning nil means the request was (or will be) handed to
// the service provider; an error means it never will be.
type FallibleOutbox interface {
	Outbox
	TryDeliver(req *wire.Request) error
}

// TracedOutbox is a FallibleOutbox that can carry a request's trace
// context through its asynchronous delivery path, so the queue wait and
// every delivery attempt become spans of the same trace
// (internal/resilience implements it). When the configured outbox is
// traced and the request carries a valid context, the server calls
// TryDeliverTraced; otherwise it falls back to TryDeliver.
type TracedOutbox interface {
	FallibleOutbox
	TryDeliverTraced(req *wire.Request, tc obs.TraceContext) error
}

// MetricsSource is implemented by outboxes that expose their own metric
// families (internal/resilience's Outbox does): MetricsRegistry invites
// the outbox to register live series instead of the zero-valued
// placeholders a plain outbox gets.
type MetricsSource interface {
	RegisterMetrics(r *metrics.Registry)
}

// FaultyStorage is implemented by PHL stores whose reads or writes can
// fail (internal/storage's tiered store: cold-tier reads hit disk, and
// the WAL can lose its backing device). The server resolves it once at
// construction; every request samples the fault counter before touching
// the store and again before forwarding, and any movement — or a
// permanently failed store — degrades the request to audited
// suppression, never to an answer computed over a partial PHL.
type FaultyStorage interface {
	// StorageFaults returns a monotone count of storage faults (cold
	// read errors, WAL append/sync errors) observed so far.
	StorageFaults() int64
	// StorageFailed reports whether the store's durable write path is
	// down for good (a WAL error is fail-stop). While true, every
	// request is suppressed.
	StorageFailed() bool
}

// BatchStorer is implemented by PHL stores that record a run of samples
// in one call (phl.Store under one lock acquisition; internal/storage's
// tiered store with one WAL write and one group commit). The server
// resolves it once at construction; RecordLocations uses it, and any
// other store gets one Record per sample.
type BatchStorer interface {
	// RecordBatch records the samples in order, as Record would one at
	// a time. The slice stays the caller's, who reuses it once the call
	// returns.
	RecordBatch(samples []phl.Sample)
}

// BatchIndex is BatchStorer's counterpart for the spatio-temporal
// index (stindex.Grid and the tiered store implement it); any other
// index gets one Insert per sample.
type BatchIndex interface {
	// InsertBatch inserts the samples, as Insert would one at a time.
	// The slice stays the caller's, as for RecordBatch.
	InsertBatch(samples []phl.Sample)
}

// PolicyResolver chooses a per-request policy from the request context —
// the "more involved rule-based policy specifications" of §3. The
// internal/policy package provides a rule-language implementation.
type PolicyResolver interface {
	Resolve(service string, p geo.STPoint) Policy
}

// OutboxFunc adapts a function to the Outbox interface.
type OutboxFunc func(req *wire.Request)

// Deliver implements Outbox.
func (f OutboxFunc) Deliver(req *wire.Request) { f(req) }

// Config assembles a trusted server.
type Config struct {
	// Metric is the 3D metric of Algorithm 1.
	Metric geo.STMetric
	// GridCell and GridBucket size the spatio-temporal index
	// (meters / seconds). Zero means 500 m / 900 s.
	GridCell   float64
	GridBucket int64
	// Services maps service names to their tolerance constraints.
	// Unknown services get unlimited tolerance.
	Services map[string]ServiceSpec
	// StaticZones are the deployment area's natural mix zones.
	StaticZones *mixzone.Registry
	// OnDemand configures on-demand mix-zone planning.
	OnDemand mixzone.OnDemand
	// DefaultPolicy applies to users registered without an explicit
	// policy. Zero means PolicyForLevel(Medium).
	DefaultPolicy Policy
	// Policies, when non-nil, overrides the per-user policy on every
	// request (rule-based policies). A user's registered policy remains
	// the fallback for resolvers returning a zero policy.
	Policies PolicyResolver
	// RandomizeSeed, when non-zero, enables the §7 randomization defense:
	// every generalized box is padded by bounded random amounts so its
	// edges do not betray exact sample positions. The seed makes runs
	// reproducible.
	RandomizeSeed int64
	// Tracker is the replicated attacker model (§5.2: "we assume the TS
	// can replicate the techniques used by a possible attacker") used to
	// size quiet windows against the policy's Θ. The zero value uses the
	// tracking defaults.
	Tracker link.Tracking
	// WitnessSamples > 1 hardens boxes against density-weighted
	// (Bayesian) attackers: every witness contributes that many samples
	// to each box instead of one. See generalize.Generalizer and
	// experiment E14.
	WitnessSamples int
	// Index, when non-nil, replaces the default grid spatio-temporal
	// index — the hook the chaos harness uses to inject slow-store
	// faults, and deployments use to pick another stindex
	// implementation. The index must be empty at configuration time.
	Index stindex.Index
	// Store, when non-nil, replaces the default in-memory PHL store —
	// the hook the durable tiered store (internal/storage) plugs into.
	// When the store also implements stindex.Index and Index is nil, it
	// doubles as the spatio-temporal index so hot/cold demotion stays
	// transparent to Algorithm 1. The store must be empty or restored
	// from its own durable state at configuration time.
	Store phl.Storer
	// SLO configures the privacy-SLO engine (windows, objectives, burn
	// thresholds). The zero value gets the engine defaults; the engine
	// starts disabled either way — enable with Server.SLO.SetEnabled.
	SLO slo.Options
}

// Decision reports what the TS did with one request.
type Decision struct {
	// Forwarded is true when the request reached the service provider.
	Forwarded bool
	// Request is the forwarded form (nil when suppressed).
	Request *wire.Request
	// MatchedLBQID names the pattern the request matched, if any.
	MatchedLBQID string
	// Generalized is true when Algorithm 1 ran on this request.
	Generalized bool
	// HKAnonymity is Algorithm 1's verdict (true also for requests that
	// needed no generalization).
	HKAnonymity bool
	// Unlinked is true when this request triggered a pseudonym rotation.
	Unlinked bool
	// AtRisk is true when generalization failed and unlinking was not
	// possible: the user should be warned (paper §6.1 step 2).
	AtRisk bool
	// Suppressed is true when the request was withheld (inside an active
	// on-demand mix zone, at-risk under a suppressing policy, or
	// degraded by the delivery layer).
	Suppressed bool
	// Degraded is true when the request was suppressed not by policy but
	// by the fail-closed delivery layer: the outbox refused admission
	// (queue full or circuit breaker open), so the TS withheld the
	// request rather than risk an unprotected forward.
	Degraded bool
	// DegradedReason names the admission failure ("queue_full",
	// "breaker_open", "outbox_closed") when Degraded is true.
	DegradedReason string
	// QIDExposed is true when a full LBQID (sequence and recurrence) has
	// been matched under the current pseudonym: the quasi-identifier has
	// been released to the SP.
	QIDExposed bool
	// Trace is the request's W3C trace context when the request was
	// traced (the zero value for untraced requests). The TraceID and
	// Traceparent methods render the hex forms on demand, so decisions
	// whose trace identity is never read cost no allocations.
	Trace obs.TraceContext
}

// TraceID returns the request's W3C trace id (lowercase hex) — the key
// for /v1/spans?trace= and the audit log's trace_id field — or "" for
// untraced requests. Rendered on demand from the binary Trace context.
func (d *Decision) TraceID() string {
	if !d.Trace.Valid() {
		return ""
	}
	return d.Trace.TraceIDString()
}

// Traceparent returns the W3C traceparent header value identifying the
// request span, for callers that propagate the trace downstream, or ""
// for untraced requests.
func (d *Decision) Traceparent() string {
	if !d.Trace.Valid() {
		return ""
	}
	return d.Trace.Traceparent()
}

// userState is the per-user bookkeeping. Its mutex serializes the
// requests of one user; requests of different users run in parallel.
type userState struct {
	mu       sync.Mutex
	policy   Policy
	patterns []*lbqid.LBQID
	matchers []*lbqid.Matcher
	sessions map[int]*generalize.Session // by pattern index
	plan     *mixzone.Plan               // active on-demand zone, if any
	atRisk   bool
}

// Server is the trusted server. It is safe for concurrent use; see the
// package comment for the locking model.
type Server struct {
	cfg Config
	out Outbox
	// fallible is out's fail-closed admission interface, when it has one
	// (resolved once at construction so the hot path pays no assertion);
	// traced additionally carries trace contexts into the delivery queue.
	fallible FallibleOutbox
	traced   TracedOutbox
	store    phl.Storer
	index    stindex.Index
	// faulty is store's fault-reporting interface, when it has one
	// (resolved once at construction so the hot path pays no assertion).
	// A durable store reports cold-read and WAL failures through it;
	// requests observing a fault degrade to audited suppression.
	faulty FaultyStorage
	// batchStore and batchIndex are the store's and index's run
	// interfaces, when they have them (resolved once at construction).
	batchStore BatchStorer
	batchIndex BatchIndex
	pseud      *pseudonym.Manager
	// gen is shared by all generalization sessions; its components
	// (index, store, randomizer) each carry their own synchronization.
	gen *generalize.Generalizer

	// stateMu guards only the user registry and the notifier pointer —
	// never an individual user's state, and never a whole request.
	stateMu  sync.RWMutex
	users    map[phl.UserID]*userState
	notifier Notifier

	// nextID is the TS↔SP message counter.
	nextID atomic.Int64

	// Response routing has its own lock: the SP may call DeliverResponse
	// synchronously from inside Deliver, i.e. while Request still holds
	// mu.
	respMu  sync.Mutex
	routes  map[wire.MsgID]phl.UserID
	inboxes map[phl.UserID]Inbox

	// Counters: requests, forwarded, generalized, hk_failures,
	// unlinkings, at_risk, suppressed, exposures.
	Counters *metrics.Counters
	// AreaM2 and IntervalS summarize the resolution of forwarded
	// generalized requests.
	AreaM2    *metrics.Summary
	IntervalS *metrics.Summary

	// Obs is the observability layer: span tracer (sampling off by
	// default), privacy histograms and the optional audit sink. See
	// OBSERVABILITY.md for the operator-facing reference.
	Obs *obs.Observer

	// SLO is the privacy-SLO engine: windowed achieved-k aggregates,
	// burn-rate objectives and the optional re-identification canary.
	// Disabled by default (one atomic load per request); state
	// transitions audit through Obs as KindSLO records.
	SLO *slo.Engine

	// Wire counts binary wire-protocol activity on the batch ingest
	// channel. The counters live here (not in httpapi) so the wire
	// families are always registered, whether or not /v1/batch is
	// mounted — the same zero-placeholder discipline as the resilience
	// families.
	Wire *WireStats

	// regOnce/registry lazily build the Prometheus registry.
	regOnce  sync.Once
	registry *metrics.Registry

	// Hooks feeding the always-registered resilience families for the
	// layers above the TS: httpapi installs the admission-control
	// sources (SetHTTPMetrics), lbserve the snapshot-durability ones
	// (SetSnapshotMetrics). Unset hooks read as zero (age as -1).
	httpShed     atomic.Pointer[func() int64]
	httpInFlight atomic.Pointer[func() float64]
	snapAge      atomic.Pointer[func() float64]
	snapErrors   atomic.Pointer[func() int64]
}

// SetHTTPMetrics installs the admission-control metric sources: the
// shed-request counter and the in-flight gauge exposed as
// histanon_http_shed_total / histanon_http_inflight.
func (s *Server) SetHTTPMetrics(shed func() int64, inflight func() float64) {
	s.httpShed.Store(&shed)
	s.httpInFlight.Store(&inflight)
}

// SetSnapshotMetrics installs the snapshot-durability metric sources:
// seconds since the last successful snapshot (-1 = never) and the
// snapshot error counter.
func (s *Server) SetSnapshotMetrics(age func() float64, errs func() int64) {
	s.snapAge.Store(&age)
	s.snapErrors.Store(&errs)
}

// New returns a trusted server delivering to out.
func New(cfg Config, out Outbox) *Server {
	if cfg.GridCell == 0 {
		cfg.GridCell = 500
	}
	if cfg.GridBucket == 0 {
		cfg.GridBucket = 900
	}
	if cfg.DefaultPolicy.K == 0 {
		cfg.DefaultPolicy = PolicyForLevel(Medium)
	}
	if cfg.StaticZones == nil {
		cfg.StaticZones = mixzone.NewRegistry()
	}
	store := cfg.Store
	if store == nil {
		store = phl.NewStore()
	}
	index := cfg.Index
	if index == nil {
		// A store that is also an stindex.Index (the tiered store)
		// serves both roles, so demoted samples stay queryable.
		if idx, ok := store.(stindex.Index); ok {
			index = idx
		} else {
			index = stindex.NewGrid(cfg.GridCell, cfg.GridBucket)
		}
	}
	s := &Server{
		cfg:       cfg,
		out:       out,
		store:     store,
		index:     index,
		pseud:     pseudonym.NewManager(),
		users:     make(map[phl.UserID]*userState),
		routes:    make(map[wire.MsgID]phl.UserID),
		inboxes:   make(map[phl.UserID]Inbox),
		Counters:  metrics.NewCounters(),
		AreaM2:    &metrics.Summary{},
		IntervalS: &metrics.Summary{},
		Obs:       obs.New(),
		SLO:       slo.New(cfg.SLO),
		Wire:      NewWireStats(),
	}
	// SLO state transitions audit through the observer's sink, so they
	// land in the same log as the decisions that caused the burn.
	s.SLO.SetAudit(func(e obs.Event) { s.Obs.Audit(e) })
	s.fallible, _ = out.(FallibleOutbox)
	s.traced, _ = out.(TracedOutbox)
	s.faulty, _ = store.(FaultyStorage)
	s.batchStore, _ = store.(BatchStorer)
	s.batchIndex, _ = s.index.(BatchIndex)
	s.gen = &generalize.Generalizer{
		Index:  s.index,
		Store:  s.store,
		Metric: cfg.Metric,
	}
	if cfg.RandomizeSeed != 0 {
		s.gen.Randomize = generalize.NewRandomizer(cfg.RandomizeSeed)
	}
	s.gen.WitnessSamples = cfg.WitnessSamples
	return s
}

// Store exposes the PHL database (read-only use expected).
func (s *Server) Store() phl.Storer { return s.store }

// Pseudonyms exposes the pseudonym manager, which only the TS holds
// (experiments use it as the re-identification ground truth).
func (s *Server) Pseudonyms() *pseudonym.Manager { return s.pseud }

// counterEvents is the closed set of event counter names the server
// increments; each becomes one series of the histanon_ts_events_total
// family. OBSERVABILITY.md documents their meanings.
var counterEvents = []string{
	"requests", "forwarded", "generalized", "hk_failures", "unlinkings",
	"at_risk", "suppressed", "degraded", "exposures", "ondemand_zones",
	"unlink_failures", "responses", "responses_unroutable",
}

// MetricsRegistry returns the server's Prometheus registry, building it
// on first use. internal/httpapi serves it at GET /metrics; every
// family it registers is documented in OBSERVABILITY.md.
func (s *Server) MetricsRegistry() *metrics.Registry {
	s.regOnce.Do(func() {
		r := metrics.NewRegistry()
		for _, name := range counterEvents {
			name := name
			r.RegisterCounterFunc(obs.MetricEvents,
				"Trusted-server pipeline events by type.",
				metrics.Labels{"event": name},
				func() int64 { return s.Counters.Get(name) })
		}
		for _, stage := range obs.Stages() {
			r.RegisterHistogram(obs.MetricStageSeconds,
				"Per-stage request latency (sampled spans only).",
				metrics.Labels{"stage": stage.String()}, s.Obs.StageSeconds[stage])
		}
		r.RegisterHistogram(obs.MetricAchievedK,
			"Achieved anonymity (witnesses+1) per generalized request.",
			nil, s.Obs.AchievedK)
		r.RegisterHistogram(obs.MetricGenArea,
			"Forwarded generalized context area in square meters.",
			nil, s.Obs.GenAreaM2)
		r.RegisterHistogram(obs.MetricGenInterval,
			"Forwarded generalized context time interval in seconds.",
			nil, s.Obs.GenIntervalS)
		r.RegisterCounterFunc(obs.MetricGenFailures,
			"Requests whose generalization could not preserve historical k-anonymity.",
			nil, func() int64 { return s.Counters.Get("hk_failures") })
		r.RegisterCounterFunc(obs.MetricRotations,
			"Pseudonym rotations (unlinking actions) across all users.",
			nil, s.pseud.TotalRotations)
		r.RegisterGaugeFunc(obs.MetricPHLUsers,
			"Users with at least one PHL sample.",
			nil, func() float64 { return float64(s.store.NumUsers()) })
		r.RegisterGaugeFunc(obs.MetricPHLSamples,
			"Location samples in the PHL store.",
			nil, func() float64 { return float64(s.store.NumSamples()) })
		r.RegisterCounterFunc(obs.MetricSpansSampled,
			"Request spans captured by the tracer.",
			nil, s.Obs.Tracer.Sampled)
		r.RegisterCounterVec(obs.MetricTailKept,
			"Spans retained by the tail sampler, by keep reason.",
			nil, s.Obs.Tracer.KeptCounters())
		r.RegisterCounterFunc(obs.MetricAuditEvents,
			"Audit records written successfully.",
			nil, func() int64 { return s.Obs.AuditSink().Events() })
		r.RegisterCounterFunc(obs.MetricAuditErrors,
			"Audit records dropped on encoding or flush errors.",
			nil, func() int64 { return s.Obs.AuditSink().Errors() })
		// The resilience families are always present so the exposition
		// surface doesn't depend on deployment wiring: a resilience-aware
		// outbox registers its live series, anything else gets zero
		// placeholders; the admission-control and snapshot sources are
		// installed by the layers that own them (SetHTTPMetrics /
		// SetSnapshotMetrics) and read as zero until then.
		if src, ok := s.out.(MetricsSource); ok {
			src.RegisterMetrics(r)
		} else {
			r.RegisterCounterVec(obs.MetricResilienceEvents,
				"Async SP delivery pipeline events by type.",
				nil, metrics.NewCounterVec("event"))
			r.RegisterGaugeFunc(obs.MetricResilienceQueueDepth,
				"Requests waiting in the async SP delivery queue.",
				nil, func() float64 { return 0 })
			r.RegisterGaugeFunc(obs.MetricResilienceBreakerOpen,
				"Per-service circuit breakers currently open.",
				nil, func() float64 { return 0 })
		}
		r.RegisterCounterFunc(obs.MetricHTTPShed,
			"HTTP requests shed by admission control with a 503.",
			nil, func() int64 {
				if fn := s.httpShed.Load(); fn != nil {
					return (*fn)()
				}
				return 0
			})
		r.RegisterGaugeFunc(obs.MetricHTTPInFlight,
			"HTTP requests currently being served.",
			nil, func() float64 {
				if fn := s.httpInFlight.Load(); fn != nil {
					return (*fn)()
				}
				return 0
			})
		r.RegisterGaugeFunc(obs.MetricSnapshotAge,
			"Seconds since the last successful PHL snapshot (-1 = never).",
			nil, func() float64 {
				if fn := s.snapAge.Load(); fn != nil {
					return (*fn)()
				}
				return -1
			})
		r.RegisterCounterFunc(obs.MetricSnapshotErrors,
			"PHL snapshot attempts that failed.",
			nil, func() int64 {
				if fn := s.snapErrors.Load(); fn != nil {
					return (*fn)()
				}
				return 0
			})
		// The storage families mirror the same pattern: a durable tiered
		// store registers live series, the default in-memory store gets
		// zero placeholders.
		if src, ok := s.store.(MetricsSource); ok {
			src.RegisterMetrics(r)
		} else {
			for _, name := range []string{
				obs.MetricStorageWALAppends, obs.MetricStorageWALFsyncs,
				obs.MetricStorageWALBytes, obs.MetricStorageWALErrors,
				obs.MetricStorageSnapshotErrors, obs.MetricStorageDemotions,
				obs.MetricStorageDemotedSamples,
			} {
				r.RegisterCounterFunc(name,
					"Durable tiered-storage counter (zero: in-memory store).",
					nil, func() int64 { return 0 })
			}
			for _, kind := range []string{"full", "delta"} {
				r.RegisterCounterFunc(obs.MetricStorageSnapshots,
					"Snapshot files written, by kind.",
					metrics.Labels{"kind": kind}, func() int64 { return 0 })
			}
			for _, result := range []string{"hit", "miss", "error"} {
				r.RegisterCounterFunc(obs.MetricStorageColdReads,
					"Cold-tier run reads, by result.",
					metrics.Labels{"result": result}, func() int64 { return 0 })
			}
			for _, result := range []string{"skipped", "scanned"} {
				r.RegisterCounterFunc(obs.MetricStorageColdKNN,
					"KNN queries by whether a time bound ruled out the cold tier.",
					metrics.Labels{"result": result}, func() int64 { return 0 })
			}
			for _, name := range []string{
				obs.MetricStorageWALLag, obs.MetricStorageHotSamples,
				obs.MetricStorageColdSamples, obs.MetricStorageChainFiles,
				obs.MetricStorageRecoverySeconds, obs.MetricStorageRecoveryRecords,
				obs.MetricStorageFailed,
			} {
				r.RegisterGaugeFunc(name,
					"Durable tiered-storage gauge (zero: in-memory store).",
					nil, func() float64 { return 0 })
			}
		}
		s.Wire.register(r)
		// The SLO families follow the same always-present discipline: a
		// disabled engine exposes zeros, and the canary gauges read
		// through the engine's canary pointer at scrape time so wiring a
		// canary later (lbserve does) needs no re-registration.
		s.SLO.RegisterMetrics(r)
		s.registry = r
	})
	return s.registry
}

// RegisterUser sets the user's privacy policy. Users not registered get
// the default policy on first contact.
func (s *Server) RegisterUser(u phl.UserID, p Policy) {
	st := s.state(u)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.policy = p
}

// AddLBQID attaches a quasi-identifier specification to the user. The TS
// "has access to the location-based quasi-identifier specifications"
// (§3); deriving them is outside the paper's (and this library's) scope.
func (s *Server) AddLBQID(u phl.UserID, q *lbqid.LBQID) error {
	if err := q.Validate(); err != nil {
		return err
	}
	st := s.state(u)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.patterns = append(st.patterns, q)
	st.matchers = append(st.matchers, lbqid.NewMatcher(q))
	return nil
}

// AddLBQIDSpec parses a definition in the lbqid block format and
// attaches every pattern it contains.
func (s *Server) AddLBQIDSpec(u phl.UserID, def string) error {
	qs, err := lbqid.ParseString(def)
	if err != nil {
		return err
	}
	for _, q := range qs {
		if err := s.AddLBQID(u, q); err != nil {
			return err
		}
	}
	return nil
}

// RecordLocation ingests a location update that carries no service
// request (the PHL holds those too — Def. 6 explicitly includes them).
// It touches no per-user state.
func (s *Server) RecordLocation(u phl.UserID, p geo.STPoint) {
	s.store.Record(u, p)
	s.index.Insert(u, p)
}

// RecordLocations ingests a run of location updates, as RecordLocation
// would one at a time: one store call and one index call for the whole
// run when the store and index take runs (BatchStorer, BatchIndex), one
// call per sample otherwise. On a durable store the run is durable per
// its sync policy when RecordLocations returns. A request issued after
// it returns sees the whole run, so a caller interleaving location
// updates with requests (the /v1/batch handler) hands each run over
// before the request that follows it.
func (s *Server) RecordLocations(samples []phl.Sample) {
	if len(samples) == 0 {
		return
	}
	if s.batchStore != nil {
		s.batchStore.RecordBatch(samples)
	} else {
		for _, x := range samples {
			s.store.Record(x.User, x.Point)
		}
	}
	if s.batchIndex != nil {
		s.batchIndex.InsertBatch(samples)
	} else {
		for _, x := range samples {
			s.index.Insert(x.User, x.Point)
		}
	}
}

// state returns (creating if needed) the user's bookkeeping. It takes
// only the registry lock; callers lock the returned state themselves.
func (s *Server) state(u phl.UserID) *userState {
	s.stateMu.RLock()
	st := s.users[u]
	s.stateMu.RUnlock()
	if st != nil {
		return st
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if st := s.users[u]; st != nil {
		return st
	}
	st = &userState{
		policy:   s.cfg.DefaultPolicy,
		sessions: make(map[int]*generalize.Session),
	}
	s.users[u] = st
	return st
}

// getNotifier reads the registered notifier under the registry lock.
func (s *Server) getNotifier() Notifier {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return s.notifier
}

// tolerance returns the service's constraints.
func (s *Server) tolerance(service string) generalize.Tolerance {
	if spec, ok := s.cfg.Services[service]; ok {
		return spec.Tolerance
	}
	return generalize.Unlimited
}

// Request processes one service request issued by user u from the exact
// position/instant p (§3: the TS knows the exact point and time).
// Requests from different users run concurrently; requests from the
// same user serialize on the user's session lock.
func (s *Server) Request(u phl.UserID, p geo.STPoint, service string, data map[string]string) Decision {
	return s.RequestTraced(u, p, service, data, obs.TraceContext{})
}

// timingsPool recycles the per-request Algorithm 1 timing arenas, so a
// traced request pays no allocation for stage timing. An arena is
// acquired only when a span is collected and returned when the request
// finishes.
var timingsPool = sync.Pool{New: func() any { return new(generalize.Timings) }}

// RequestTraced is Request under an upstream trace context (parsed from
// a traceparent header by internal/httpapi). A valid parent puts this
// request's span in the caller's trace — and, when the parent is
// sampled, forces collection and retention regardless of the local
// sampling rate. A zero parent behaves exactly like Request.
func (s *Server) RequestTraced(u phl.UserID, p geo.STPoint, service string, data map[string]string, parent obs.TraceContext) Decision {
	// Span sampling decides up front whether this request pays for
	// timing: one atomic load when tracing is off and no parent forces
	// it. collect means the request gathers a span (so the tail sampler
	// has something to keep); head means unconditional retention.
	var sp *obs.Span
	var tc obs.TraceContext
	var collect, head bool
	if parent.Valid() {
		collect, head = s.Obs.Tracer.SampleWithParent(parent.Sampled())
		// The child identity exists even when nothing is collected, so
		// the response header still joins the caller's trace.
		tc = parent.Child().WithSampled(head)
	} else {
		collect, head = s.Obs.Tracer.Sample()
		if collect {
			tc = obs.MintTraceContext(head)
		}
	}
	if collect {
		// The span comes from the pool and carries its identity in
		// binary form; hex ids are rendered only if the tail sampler
		// keeps it. RecordSpan (via finishRequest) recycles it.
		sp = obs.NewSpan()
		sp.SetIdentity(tc, parent)
		sp.Kind = obs.SpanKindRequest
		sp.User = int64(u)
		sp.Service = service
		sp.Begin()
	}
	// Two collection tiers: every collected span gets identity, start,
	// outcome, events and total duration — enough for the tail sampler
	// to rescue it and for slow/degraded spans to be diagnosable. Only
	// head-retained spans (the every-Nth detail tier) additionally pay
	// for per-stage lap timestamps and feed the stage latency
	// histograms, so the collect-and-discard majority costs two clock
	// reads (Begin and finish), not ten.
	detail := collect && head

	// The request is also a location update. Store and index carry their
	// own synchronization, so ingestion happens outside any session lock.
	// faults0 is sampled before the write so a WAL failure during this
	// very update already counts against forwarding it.
	var faults0 int64
	if s.faulty != nil {
		faults0 = s.faulty.StorageFaults()
	}
	s.store.Record(u, p)
	s.index.Insert(u, p)

	st := s.state(u)
	st.mu.Lock()
	defer st.mu.Unlock()
	s.Counters.Inc("requests")
	// Assign the pseudonym up front: an unlinking action during this
	// request must retire the pseudonym the SP has already seen (or
	// would see).
	s.pseud.Current(u)

	// An active on-demand mix zone suppresses service inside its window.
	if st.plan != nil {
		if st.plan.Suppresses(p.P, p.T) {
			s.Counters.Inc("suppressed")
			dec := Decision{Suppressed: true}
			s.finishRequest(collect, head, sp, tc, u, p, service, &dec,
				0, 0, 0, generalize.Unlimited, geo.STBox{}, "ondemand")
			return dec
		}
		if p.T > st.plan.Window.End {
			st.plan = nil
		}
	}

	id := wire.MsgID(s.nextID.Add(1))
	dec := Decision{HKAnonymity: true}

	// Effective policy for this request: the rule resolver, when
	// configured, overrides the user's registered policy.
	pol := st.policy
	if s.cfg.Policies != nil {
		if resolved := s.cfg.Policies.Resolve(service, p); resolved.K > 0 {
			pol = resolved
		}
	}

	// Step 1 of §6.1: monitor all incoming requests for LBQID exposure.
	// A request may match several patterns (the paper notes Algorithm 1
	// "can be easily extended to consider multiple LBQIDs"): every
	// matched pattern's session advances and the forwarded context is
	// the union of their boxes. The union contains each session's box,
	// so every session's witnesses remain LT-consistent with it.
	if detail {
		sp.Sync()
	}
	var matched []int
	for i, m := range st.matchers {
		out := m.Offer(lbqid.RequestID(id), p)
		if out.Matched {
			matched = append(matched, i)
			if dec.MatchedLBQID != "" {
				dec.MatchedLBQID += ","
			}
			dec.MatchedLBQID += st.patterns[i].Name
		}
		if out.Satisfied {
			dec.QIDExposed = true
		}
	}
	if detail {
		sp.Mark(obs.StageMatch)
	}

	// tm collects Algorithm 1's per-phase time across all matched
	// patterns' sessions; nil (no timing) unless this span is in the
	// detail tier. The arena is pooled: its laps are folded into the
	// span right after the Generalize loop, so recycling at return is
	// safe even though sess.Trace still points at it — every Generalize
	// call is preceded by a fresh sess.Trace assignment, so the stale
	// pointer is never dereferenced.
	var tm *generalize.Timings
	if detail {
		tm = timingsPool.Get().(*generalize.Timings)
		*tm = generalize.Timings{}
		defer timingsPool.Put(tm)
	}
	achievedK := 0 // witnesses+1, minimum over matched patterns
	tol := generalize.Unlimited
	zone := ""

	ctx := geo.STBoxAround(p) // exact context unless generalized
	if len(matched) > 0 {
		dec.Generalized = true
		s.Counters.Inc("generalized")
		tol = s.tolerance(service)
		achievedK = int(^uint(0) >> 1)
		for _, pi := range matched {
			sess, ok := st.sessions[pi]
			if !ok {
				sess = generalize.NewSession(s.gen, u, s.decayFor(pol))
				st.sessions[pi] = sess
			}
			sess.Trace = tm
			res, found := sess.Generalize(p, tol)
			if !found {
				dec.HKAnonymity = false
				achievedK = 1 // only the issuer's own history fits
				continue
			}
			if got := len(res.Users) + 1; got < achievedK {
				achievedK = got
			}
			ctx = ctx.Union(res.Box)
			dec.HKAnonymity = dec.HKAnonymity && res.HKAnonymity
		}
		// The union of several within-tolerance boxes can itself exceed
		// the tolerance.
		if !tol.Allows(ctx) {
			dec.HKAnonymity = false
			ctx = geo.STBox{
				Area: ctx.Area.ShrinkToward(p.P, tolMaxW(tol, ctx), tolMaxH(tol, ctx)),
				Time: ctx.Time.ShrinkToward(p.T, tolMaxD(tol, ctx)),
			}
		}
		if detail {
			sp.AddStage(obs.StageKNN, tm.KNNNanos)
			sp.AddStage(obs.StageBox, tm.BoxNanos)
			sp.AddStage(obs.StageTolerance, tm.ToleranceNanos)
		}
		s.Obs.AchievedK.Observe(float64(achievedK))
		if !dec.HKAnonymity {
			s.Counters.Inc("hk_failures")
			// Step 2 of §6.1: try to unlink future requests.
			if detail {
				sp.Sync()
			}
			zone = s.unlink(u, st, pol, p, &dec, tc)
			if detail {
				sp.Mark(obs.StageUnlink)
			}
		}
	}

	if st.atRisk {
		dec.AtRisk = true
		if pol.SuppressAtRisk {
			s.Counters.Inc("suppressed")
			dec.Suppressed = true
			s.finishRequest(collect, head, sp, tc, u, p, service, &dec,
				id, pol.K, achievedK, tol, ctx, zone)
			return dec
		}
	}

	// Fail closed on storage faults: if the durable store lost its write
	// path, or any cold read failed while this request's anonymity sets
	// were computed, the boxes above may describe a partial PHL — the
	// achieved k could be weaker than reported. Suppress and audit
	// rather than forward. (Concurrent requests may observe each other's
	// faults and over-suppress; that errs in the conservative
	// direction.)
	if s.faulty != nil {
		var reason string
		switch {
		case s.faulty.StorageFailed():
			reason = "storage_wal_failed"
		case s.faulty.StorageFaults() != faults0:
			reason = "storage_cold_read"
		}
		if reason != "" {
			dec.Suppressed = true
			dec.Degraded = true
			dec.DegradedReason = reason
			if collect {
				sp.Event("shed_" + reason)
			}
			s.Counters.Inc("suppressed")
			s.Counters.Inc("degraded")
			s.finishRequest(collect, head, sp, tc, u, p, service, &dec,
				id, pol.K, achievedK, tol, ctx, zone)
			return dec
		}
	}

	req := &wire.Request{
		ID:        id,
		Pseudonym: s.pseud.Current(u),
		Context:   ctx,
		Service:   service,
		Data:      data,
	}
	s.respMu.Lock()
	s.routes[id] = u
	s.respMu.Unlock()
	if detail {
		sp.Sync()
	}
	var deliverErr error
	switch {
	case s.traced != nil && tc.Valid():
		deliverErr = s.traced.TryDeliverTraced(req, tc)
	case s.fallible != nil:
		deliverErr = s.fallible.TryDeliver(req)
	default:
		s.out.Deliver(req)
	}
	if deliverErr != nil {
		// Fail closed: the delivery layer refused admission (queue
		// full, breaker open, shutdown), so the request is withheld —
		// degraded to suppression, never forwarded with weaker
		// guarantees. The route can never be answered; reclaim it.
		s.respMu.Lock()
		delete(s.routes, id)
		s.respMu.Unlock()
		dec.Suppressed = true
		dec.Degraded = true
		dec.DegradedReason = degradeReason(deliverErr)
		if collect {
			// The shed event names the admission failure; a
			// "shed_breaker_open" event also trips the tail sampler's
			// breaker keep rule. Events belong to the collect tier —
			// they are exactly what tail-rescued spans are kept for.
			sp.Event("shed_" + dec.DegradedReason)
		}
		if detail {
			sp.Mark(obs.StageForward)
		}
		s.Counters.Inc("suppressed")
		s.Counters.Inc("degraded")
		s.finishRequest(collect, head, sp, tc, u, p, service, &dec, id, pol.K, achievedK, tol, ctx, zone)
		return dec
	}
	if detail {
		sp.Mark(obs.StageForward)
	}
	dec.Forwarded = true
	dec.Request = req
	s.Counters.Inc("forwarded")
	if dec.QIDExposed {
		s.Counters.Inc("exposures")
	}
	if dec.Generalized {
		s.AreaM2.Add(ctx.Area.Area())
		s.IntervalS.Add(float64(ctx.Time.Duration()))
		s.Obs.GenAreaM2.Observe(ctx.Area.Area())
		s.Obs.GenIntervalS.Observe(float64(ctx.Time.Duration()))
	}
	s.finishRequest(collect, head, sp, tc, u, p, service, &dec, id, pol.K, achievedK, tol, ctx, zone)
	return dec
}

// finishRequest closes out one request's observability: it records the
// collected span (the tail sampler decides retention when the head
// sampler didn't), stamps the decision's trace identity, and, when the
// decision is privacy-relevant (the request matched an LBQID, was
// suppressed, triggered an unlinking, or found the user at risk),
// appends the audit record. Plain pass-through requests produce
// neither.
func (s *Server) finishRequest(collect, head bool, sp *obs.Span, tc obs.TraceContext,
	u phl.UserID, p geo.STPoint, service string, dec *Decision, id wire.MsgID,
	requestedK, achievedK int, tol generalize.Tolerance, ctx geo.STBox, zone string) {

	// Every return path funnels through here, so this is the SLO feed
	// point: one atomic load when the engine is off.
	if s.SLO.Enabled() {
		sd := slo.Decision{
			T:           p.T,
			RequestedK:  requestedK,
			AchievedK:   achievedK,
			Generalized: dec.Generalized,
			Forwarded:   dec.Forwarded,
			Suppressed:  dec.Suppressed,
			Degraded:    dec.Degraded,
			User:        int64(u),
		}
		if dec.Request != nil {
			sd.Pseudonym = string(dec.Request.Pseudonym)
			sd.Box = ctx
		}
		s.SLO.Observe(sd)
	}

	outcome := obs.OutcomeForwarded
	if dec.Suppressed {
		outcome = obs.OutcomeSuppressed
	}
	if dec.Degraded {
		outcome = obs.OutcomeDegraded
	}
	// The binary context is stored as-is; Decision.TraceID/Traceparent
	// render hex on demand, so callers that never look pay nothing.
	dec.Trace = tc
	if collect {
		sp.MsgID = int64(id)
		sp.Generalized = dec.Generalized
		sp.Unlinked = dec.Unlinked
		sp.AtRisk = dec.AtRisk
		sp.Outcome = outcome
		// RecordSpan recycles the pooled span; sp must not be touched
		// after this call.
		s.Obs.RecordSpan(sp, head)
	}
	if !dec.Generalized && !dec.Suppressed && !dec.Unlinked && !dec.AtRisk {
		return
	}
	a := s.Obs.AuditSink()
	if a == nil {
		return
	}
	e := obs.Event{
		T:           p.T,
		Kind:        obs.KindRequest,
		TraceID:     dec.TraceID(),
		User:        int64(u),
		MsgID:       int64(id),
		Service:     service,
		Matched:     dec.MatchedLBQID,
		RequestedK:  requestedK,
		AchievedK:   achievedK,
		HKAnonymity: dec.HKAnonymity,
		Outcome:     outcome,
		Reason:      dec.DegradedReason,
		Unlinked:    dec.Unlinked,
		AtRisk:      dec.AtRisk,
		Zone:        zone,
	}
	if dec.Forwarded && dec.Generalized {
		e.AreaM2 = ctx.Area.Area()
		e.IntervalS = ctx.Time.Duration()
		if tol.MaxWidth > 0 && tol.MaxHeight > 0 {
			e.AreaTolFrac = e.AreaM2 / (tol.MaxWidth * tol.MaxHeight)
		}
		if tol.MaxDuration > 0 {
			e.TimeTolFrac = float64(e.IntervalS) / float64(tol.MaxDuration)
		}
	}
	a.Log(e)
}

// degradeReason turns an admission error into its audit reason label.
// Errors carrying a Reason method (internal/resilience's admission
// errors do) name themselves; anything else is a generic refusal.
func degradeReason(err error) string {
	if r, ok := err.(interface{ Reason() string }); ok {
		return r.Reason()
	}
	return "delivery_refused"
}

// decayFor turns the policy into a concrete schedule.
func (s *Server) decayFor(p Policy) generalize.DecaySchedule {
	d := p.Decay
	if d.Target == 0 {
		d.Target = p.K
	}
	if d.Target < p.K {
		d.Target = p.K
	}
	return d
}

// unlink performs the §6.1 step-2 action: rotate the pseudonym — inside
// a static mix zone the user recently crossed, or inside a freshly
// planned on-demand zone — and reset all partially matched patterns. On
// failure the user is flagged at risk. It returns the audit label of
// the zone that enabled the rotation ("" when none did); tc is the
// triggering request's trace context for the rotation audit record.
// Callers hold st.mu.
func (s *Server) unlink(u phl.UserID, st *userState, pol Policy, p geo.STPoint, dec *Decision, tc obs.TraceContext) string {
	// A recent static-zone crossing makes rotation safe immediately.
	lookback := p.T - 4*3600
	if z, crossed := s.cfg.StaticZones.CrossedZone(s.store.History(u), lookback, p.T); crossed {
		zone := z.Name
		if zone == "" {
			zone = "static"
		}
		s.rotate(u, st, p.T, zone, tc)
		dec.Unlinked = true
		return zone
	}
	// Otherwise plan an on-demand mix zone around the user.
	plan, ok := s.cfg.OnDemand.Plan(s.index, s.store, u, p.P, p.T, pol.K-1, s.cfg.Metric)
	if ok {
		// The Unlinking action is parameterized by Θ (§6.3): the TS
		// replicates the attacker's tracking linker (§5.2) and sizes the
		// quiet window so that tracking confidence across the rotation
		// decays below the policy's threshold before service resumes.
		if minQuiet := quietForTheta(pol.Theta, s.cfg.Tracker); plan.Window.Duration() < minQuiet {
			plan.Window.End = plan.Window.Start + minQuiet
		}
		st.plan = &plan
		zone := "ondemand"
		if plan.Fallback {
			zone = "ondemand_fallback"
		}
		s.rotate(u, st, p.T, zone, tc)
		dec.Unlinked = true
		s.Counters.Inc("ondemand_zones")
		return zone
	}
	s.Counters.Inc("unlink_failures")
	if !st.atRisk {
		st.atRisk = true
		s.Counters.Inc("at_risk")
		if n := s.getNotifier(); n != nil {
			n.AtRisk(u, "generalization failed and no unlinking opportunity")
		}
	}
	return ""
}

// rotate changes the pseudonym and resets all exposure evidence tied to
// the old one; t and zone label the rotation's audit record, tc links
// it to the triggering request's trace. Callers hold st.mu.
func (s *Server) rotate(u phl.UserID, st *userState, t int64, zone string, tc obs.TraceContext) {
	old, fresh := s.pseud.Rotate(u)
	if n := s.getNotifier(); n != nil {
		n.Unlinked(u, old, fresh)
	}
	for _, m := range st.matchers {
		m.Reset()
	}
	st.sessions = make(map[int]*generalize.Session)
	st.atRisk = false
	s.Counters.Inc("unlinkings")
	// Rotations are rare, so rendering the trace id here (rather than on
	// the request hot path) costs nothing per request.
	var tid string
	if tc.Valid() {
		tid = tc.TraceIDString()
	}
	s.Obs.Audit(obs.Event{
		T:            t,
		Kind:         obs.KindRotation,
		TraceID:      tid,
		User:         int64(u),
		Zone:         zone,
		OldPseudonym: string(old),
		NewPseudonym: string(fresh),
	})
}

// Rotations reports how many times the user's pseudonym was rotated — a
// proxy for service discontinuity.
func (s *Server) Rotations(u phl.UserID) int { return s.pseud.Rotations(u) }

// AtRisk reports whether the user is currently flagged at risk of
// identification.
func (s *Server) AtRisk(u phl.UserID) bool {
	st := s.state(u)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.atRisk
}

// tolMaxW/H/D resolve a tolerance bound, leaving the dimension
// unchanged when unconstrained.
func tolMaxW(t generalize.Tolerance, b geo.STBox) float64 {
	if t.MaxWidth > 0 {
		return t.MaxWidth
	}
	return b.Area.Width()
}

func tolMaxH(t generalize.Tolerance, b geo.STBox) float64 {
	if t.MaxHeight > 0 {
		return t.MaxHeight
	}
	return b.Area.Height()
}

func tolMaxD(t generalize.Tolerance, b geo.STBox) int64 {
	if t.MaxDuration > 0 {
		return t.MaxDuration
	}
	return b.Time.Duration()
}

// quietForTheta returns the quiet-window length after which the
// replicated tracking attacker's confidence across a pseudonym change
// drops below theta: confidence decays as 2^(−gap/halfLife), so the gap
// must exceed halfLife·log2(1/theta). Theta 0 (never linkable) is
// capped at four hours; theta >= 1 needs no quiet time.
func quietForTheta(theta float64, tr link.Tracking) int64 {
	const cap = int64(4 * 3600)
	if theta >= 1 {
		return 0
	}
	halfLife := tr.HalfLife
	if halfLife == 0 {
		halfLife = link.DefaultHalfLife
	}
	if theta <= 0 {
		return cap
	}
	quiet := int64(math.Ceil(halfLife * math.Log2(1/theta)))
	if quiet > cap {
		return cap
	}
	return quiet
}

// WritePHLSnapshot persists the location database (see phl.WriteSnapshot).
// LBQID registrations, pseudonyms and in-flight matcher state are not
// part of the snapshot: patterns are re-registered at boot from their
// specifications, and exposure state deliberately starts fresh (a
// restart is an unlinking opportunity, not a liability).
func (s *Server) WritePHLSnapshot(w io.Writer) error {
	sw, ok := s.store.(interface{ WriteSnapshot(w io.Writer) error })
	if !ok {
		return fmt.Errorf("ts: store %T does not support full snapshots", s.store)
	}
	return sw.WriteSnapshot(w)
}

// RestorePHL loads a snapshot written by WritePHLSnapshot into the
// server, rebuilding the spatio-temporal index. It must be called
// before traffic starts; concurrent requests during a restore see a
// partially loaded database.
func (s *Server) RestorePHL(r io.Reader) error {
	loaded, err := phl.ReadSnapshot(r)
	if err != nil {
		return err
	}
	for _, u := range loaded.Users() {
		for _, p := range loaded.History(u).Points() {
			s.store.Record(u, p)
			s.index.Insert(u, p)
		}
	}
	return nil
}

// Inbox receives service responses on a user's device.
type Inbox interface {
	Receive(resp *wire.Response)
}

// InboxFunc adapts a function to the Inbox interface.
type InboxFunc func(resp *wire.Response)

// Receive implements Inbox.
func (f InboxFunc) Receive(resp *wire.Response) { f(resp) }

// Notifier observes the privacy-relevant events of §6.1/§7: the
// at-risk warning (the paper suggests an open/closed-lock style UI) and
// unlinking actions. Methods are called with the affected user's
// session lock held (possibly from many goroutines at once, for
// different users); implementations must be safe for concurrent use and
// must not call back into the server.
type Notifier interface {
	AtRisk(u phl.UserID, reason string)
	Unlinked(u phl.UserID, oldPseudonym, newPseudonym wire.Pseudonym)
}

// SetInbox registers the user's device callback for service responses.
func (s *Server) SetInbox(u phl.UserID, in Inbox) {
	s.respMu.Lock()
	defer s.respMu.Unlock()
	s.inboxes[u] = in
}

// SetNotifier registers the privacy-event observer.
func (s *Server) SetNotifier(n Notifier) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.notifier = n
}

// DeliverResponse routes a service provider's answer back to the
// issuing user's device (Fig. 1's return path). The msgid is the only
// addressing information the SP holds. Unknown or expired msgids are
// counted and dropped.
func (s *Server) DeliverResponse(resp *wire.Response) {
	s.respMu.Lock()
	u, ok := s.routes[resp.ID]
	if ok {
		delete(s.routes, resp.ID)
	}
	var inbox Inbox
	if ok {
		inbox = s.inboxes[u]
	}
	s.respMu.Unlock()
	s.Counters.Inc("responses")
	if !ok {
		s.Counters.Inc("responses_unroutable")
	}
	// Deliver outside the lock: inboxes are user code.
	if inbox != nil {
		inbox.Receive(resp)
	}
}
