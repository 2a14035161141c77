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
// pseudonym manager, the atomic event and message counters, the
// observer's wait-free histograms, and the generalizer's mutex-guarded
// randomizer. The user registry itself sits behind a short RWMutex
// taken only to look up or create a user's state.
//
// Lock ordering: a request holds only its user's lock while running;
// the registry lock and component-internal locks nest strictly inside
// it and are never held across a call back into the server.
package ts

import (
	"errors"
	"fmt"
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

// Outbox admits the requests the TS forwards; in experiments it is the
// (possibly adversarial) service provider. Admission may fail, as in
// the resilience layer's bounded delivery queue (internal/resilience):
// TryDeliverTraced returning nil means the request was (or will be)
// handed to the service provider; an error means it never will be, and
// the server degrades the request to suppression — the fail-closed
// outcome, in which a request is withheld rather than forwarded without
// its delivery guarantees. tc is the request's trace context, zero when
// the request is untraced; an asynchronous outbox records the queue
// wait and every delivery attempt as spans of that trace.
type Outbox interface {
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

// OutboxFunc adapts a function to the Outbox interface: it delivers
// every request and never refuses one.
type OutboxFunc func(req *wire.Request)

// TryDeliverTraced implements Outbox.
func (f OutboxFunc) TryDeliverTraced(req *wire.Request, _ obs.TraceContext) error {
	f(req)
	return nil
}

// Config assembles a trusted server.
type Config struct {
	// Metric is the 3D metric of Algorithm 1.
	Metric geo.STMetric
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
	// implementation. The index must be empty at configuration time,
	// unless it indexes the Store's own samples (a wrapper around a
	// recovered tiered store).
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
	cfg   Config
	out   Outbox
	store phl.Storer
	index stindex.Index
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
	// synchronously from inside TryDeliverTraced, i.e. while Request
	// still holds the user's lock.
	respMu  sync.Mutex
	routes  map[wire.MsgID]phl.UserID
	inboxes map[phl.UserID]Inbox

	// Counters counts pipeline events by name ("requests", "forwarded",
	// "unlinkings", …); OBSERVABILITY.md lists them.
	Counters *Counters

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

	// Hooks feeding the always-registered admission-control families:
	// httpapi installs them (SetHTTPMetrics). Unset hooks read as zero.
	httpShed     atomic.Pointer[func() int64]
	httpInFlight atomic.Pointer[func() float64]
}

// SetHTTPMetrics installs the admission-control metric sources: the
// shed-request counter and the in-flight gauge exposed as
// histanon_http_shed_total / histanon_http_inflight.
func (s *Server) SetHTTPMetrics(shed func() int64, inflight func() float64) {
	s.httpShed.Store(&shed)
	s.httpInFlight.Store(&inflight)
}

// New returns a trusted server delivering to out.
func New(cfg Config, out Outbox) *Server {
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
			index = stindex.NewGrid(stindex.ServingCell, stindex.ServingBucket)
		}
	}
	s := &Server{
		cfg:      cfg,
		out:      out,
		store:    store,
		index:    index,
		pseud:    pseudonym.NewManager(),
		users:    make(map[phl.UserID]*userState),
		routes:   make(map[wire.MsgID]phl.UserID),
		inboxes:  make(map[phl.UserID]Inbox),
		Counters: &Counters{},
		Obs:      obs.New(),
		SLO:      slo.New(cfg.SLO),
		Wire:     NewWireStats(),
	}
	// SLO state transitions audit through the observer's sink, so they
	// land in the same log as the decisions that caused the burn.
	s.SLO.SetAudit(func(e obs.Event) { s.Obs.Audit(e) })
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

// MetricsRegistry returns the server's Prometheus registry, building it
// on first use. internal/httpapi serves it at GET /metrics; every
// family it registers is documented in OBSERVABILITY.md.
func (s *Server) MetricsRegistry() *metrics.Registry {
	s.regOnce.Do(func() {
		r := metrics.NewRegistry()
		for e, name := range eventNames {
			r.RegisterCounterFunc(obs.MetricEvents,
				"Trusted-server pipeline events by type.",
				metrics.Labels{"event": name}, s.Counters.n[e].Load)
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
			nil, s.Counters.n[evHKFailures].Load)
		// rotate, the only caller of pseud.Rotate, counts each unlinking.
		r.RegisterCounterFunc(obs.MetricRotations,
			"Pseudonym rotations (unlinking actions) across all users.",
			nil, s.Counters.n[evUnlinkings].Load)
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
		// placeholders; the admission-control sources are installed by
		// httpapi (SetHTTPMetrics) and read as zero until then.
		if src, ok := s.out.(MetricsSource); ok {
			src.RegisterMetrics(r)
		} else {
			r.RegisterCounterVec(obs.MetricResilienceEvents, obs.Help(obs.MetricResilienceEvents),
				nil, metrics.NewCounterVec("event"))
			for _, name := range []string{obs.MetricResilienceQueueDepth, obs.MetricResilienceBreakerOpen} {
				r.RegisterGaugeFunc(name, obs.Help(name), nil, func() float64 { return 0 })
			}
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
				r.RegisterCounterFunc(name, obs.Help(name), nil, func() int64 { return 0 })
			}
			for _, kind := range []string{"full", "delta"} {
				r.RegisterCounterFunc(obs.MetricStorageSnapshots, obs.Help(obs.MetricStorageSnapshots),
					metrics.Labels{"kind": kind}, func() int64 { return 0 })
			}
			for _, result := range []string{"hit", "miss", "error"} {
				r.RegisterCounterFunc(obs.MetricStorageColdReads, obs.Help(obs.MetricStorageColdReads),
					metrics.Labels{"result": result}, func() int64 { return 0 })
			}
			for _, result := range []string{"skipped", "scanned"} {
				r.RegisterCounterFunc(obs.MetricStorageColdKNN, obs.Help(obs.MetricStorageColdKNN),
					metrics.Labels{"result": result}, func() int64 { return 0 })
			}
			for _, name := range []string{
				obs.MetricStorageWALLag, obs.MetricStorageHotSamples,
				obs.MetricStorageColdSamples, obs.MetricStorageChainFiles,
				obs.MetricStorageRecoverySeconds, obs.MetricStorageRecoveryRecords,
				obs.MetricStorageFailed,
			} {
				r.RegisterGaugeFunc(name, obs.Help(name), nil, func() float64 { return 0 })
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

// errStorageFailed is RecordLocations' answer once the durable store's
// write path has failed: the updates may not be persisted, so they must
// not be acknowledged.
var errStorageFailed = errors.New("ts: storage_wal_failed: the durable store's WAL has failed; updates are not persisted")

// RecordLocation ingests a location update that carries no service
// request (the PHL holds those too — Def. 6 explicitly includes them):
// a one-element RecordLocations, with its error.
func (s *Server) RecordLocation(u phl.UserID, p geo.STPoint) error {
	return s.RecordLocations([]phl.Sample{{User: u, Point: p}})
}

// RecordLocations ingests a run of location updates: one store call and
// one index call for the whole run when the store and index take runs
// (BatchStorer, BatchIndex), one call per sample otherwise. It touches
// no per-user state. On a durable store the run is durable per its sync
// policy when RecordLocations returns nil; the error, which names
// storage_wal_failed, means the store's write path has failed and the
// run must not be acknowledged. A request issued after it returns sees
// the whole run, so a caller interleaving location updates with
// requests (the /v1/batch handler) hands each run over before the
// request that follows it.
func (s *Server) RecordLocations(samples []phl.Sample) error {
	if len(samples) == 0 {
		return nil
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
	if s.faulty != nil && s.faulty.StorageFailed() {
		return errStorageFailed
	}
	return nil
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
		// keeps it. RecordSpan (via finish) recycles it.
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
	// reads (Begin and finish), not ten. lap is the span in the detail
	// tier and nil otherwise; its Sync and Mark are then no-ops.
	var lap *obs.Span
	if head {
		lap = sp
	}

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
	// Assign the pseudonym up front: an unlinking action during this
	// request must retire the pseudonym the SP has already seen (or
	// would see).
	s.pseud.Current(u)
	r := record{Decision: Decision{Trace: tc}, user: u, point: p, service: service}

	// An active on-demand mix zone suppresses service inside its window.
	if st.plan != nil {
		if st.plan.Suppresses(p.P, p.T) {
			r.Suppressed = true
			r.zone = "ondemand"
			return s.finish(&r, sp, head)
		}
		if p.T > st.plan.Window.End {
			st.plan = nil
		}
	}

	r.id = wire.MsgID(s.nextID.Add(1))
	r.HKAnonymity = true

	// Effective policy for this request: the rule resolver, when
	// configured, overrides the user's registered policy.
	pol := st.policy
	if s.cfg.Policies != nil {
		if resolved := s.cfg.Policies.Resolve(service, p); resolved.K > 0 {
			pol = resolved
		}
	}
	r.requestedK = pol.K

	// Step 1 of §6.1: monitor all incoming requests for LBQID exposure.
	// A request may match several patterns (the paper notes Algorithm 1
	// "can be easily extended to consider multiple LBQIDs"): every
	// matched pattern's session advances and the forwarded context is
	// the union of their boxes. The union contains each session's box,
	// so every session's witnesses remain LT-consistent with it.
	lap.Sync()
	var matched []int
	for i, m := range st.matchers {
		out := m.Offer(lbqid.RequestID(r.id), p)
		if out.Matched {
			matched = append(matched, i)
			if r.MatchedLBQID != "" {
				r.MatchedLBQID += ","
			}
			r.MatchedLBQID += st.patterns[i].Name
		}
		if out.Satisfied {
			r.QIDExposed = true
		}
	}
	lap.Mark(obs.StageMatch)

	r.ctx = geo.STBoxAround(p) // exact context unless generalized
	if len(matched) > 0 {
		r.Generalized = true
		r.tol = s.tolerance(service)
		r.achievedK = int(^uint(0) >> 1) // minimum over matched patterns
		for _, pi := range matched {
			sess, ok := st.sessions[pi]
			if !ok {
				sess = generalize.NewSession(s.gen, u, s.decayFor(pol))
				st.sessions[pi] = sess
			}
			// Algorithm 1 laps its phases on the request's span. Every
			// Generalize call is preceded by this assignment, so the
			// span left behind in a session after the request has
			// recycled it is never read.
			sess.Trace = lap
			res, found := sess.Generalize(p, r.tol)
			if !found {
				r.HKAnonymity = false
				r.achievedK = 1 // only the issuer's own history fits
				continue
			}
			if got := len(res.Users) + 1; got < r.achievedK {
				r.achievedK = got
			}
			r.ctx = r.ctx.Union(res.Box)
			r.HKAnonymity = r.HKAnonymity && res.HKAnonymity
		}
		// The union of several within-tolerance boxes can itself exceed
		// the tolerance.
		if !r.tol.Allows(r.ctx) {
			r.HKAnonymity = false
			r.ctx = r.tol.Clamp(r.ctx, p)
		}
		if !r.HKAnonymity {
			// Step 2 of §6.1: try to unlink future requests.
			lap.Sync()
			s.unlink(st, pol, &r)
			lap.Mark(obs.StageUnlink)
		}
	}

	if st.atRisk {
		r.AtRisk = true
		if pol.SuppressAtRisk {
			r.Suppressed = true
			return s.finish(&r, sp, head)
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
			r.Suppressed, r.Degraded, r.DegradedReason = true, true, reason
			return s.finish(&r, sp, head)
		}
	}

	req := &wire.Request{
		ID:        r.id,
		Pseudonym: s.pseud.Current(u),
		Context:   r.ctx,
		Service:   service,
		Data:      data,
	}
	s.respMu.Lock()
	s.routes[r.id] = u
	s.respMu.Unlock()
	lap.Sync()
	deliverErr := s.out.TryDeliverTraced(req, tc)
	lap.Mark(obs.StageForward)
	if deliverErr != nil {
		// Fail closed: the delivery layer refused admission (queue
		// full, breaker open, shutdown), so the request is withheld —
		// degraded to suppression, never forwarded with weaker
		// guarantees. The route can never be answered; reclaim it.
		s.respMu.Lock()
		delete(s.routes, r.id)
		s.respMu.Unlock()
		r.Suppressed, r.Degraded, r.DegradedReason = true, true, degradeReason(deliverErr)
		return s.finish(&r, sp, head)
	}
	r.Forwarded = true
	r.Request = req
	return s.finish(&r, sp, head)
}

// record is one request's decision record: the Decision its caller
// gets back, plus what the request's other signals need.
// OBSERVABILITY.md maps each field to the signals finish derives from
// it.
type record struct {
	Decision
	user       phl.UserID
	point      geo.STPoint
	service    string
	id         wire.MsgID // zero when suppressed before one was assigned
	requestedK int        // the effective policy's k
	achievedK  int        // witnesses+1, minimum over matched patterns; 0 unless generalized
	tol        generalize.Tolerance
	ctx        geo.STBox // the released context: exact unless generalized
	zone       string    // the mix zone that suppressed the request or enabled its rotation
}

// finish derives every signal of one request from its decision record
// and returns the caller's Decision; no other code counts a request's
// events or observes its histograms. sp is the collected span (nil if
// none) and head marks a head-sampler retention. Only privacy-relevant
// decisions are audited: matched, suppressed, unlinked or at risk.
func (s *Server) finish(r *record, sp *obs.Span, head bool) Decision {
	released := r.Forwarded && r.Generalized
	c := s.Counters
	c.inc(evRequests)
	c.incIf(evGeneralized, r.Generalized)
	c.incIf(evHKFailures, r.Generalized && !r.HKAnonymity)
	c.incIf(evSuppressed, r.Suppressed)
	c.incIf(evDegraded, r.Degraded)
	c.incIf(evForwarded, r.Forwarded)
	c.incIf(evExposures, r.Forwarded && r.QIDExposed)
	if r.Generalized {
		s.Obs.AchievedK.Observe(float64(r.achievedK))
	}
	if released {
		s.Obs.GenAreaM2.Observe(r.ctx.Area.Area())
		s.Obs.GenIntervalS.Observe(float64(r.ctx.Time.Duration()))
	}

	// One atomic load when the SLO engine is off.
	if s.SLO.Enabled() {
		sd := slo.Decision{
			T:           r.point.T,
			RequestedK:  r.requestedK,
			AchievedK:   r.achievedK,
			Generalized: r.Generalized,
			Forwarded:   r.Forwarded,
			Suppressed:  r.Suppressed,
			Degraded:    r.Degraded,
			User:        int64(r.user),
		}
		if r.Forwarded {
			sd.Pseudonym = string(r.Request.Pseudonym)
			sd.Box = r.ctx
		}
		s.SLO.Observe(sd)
	}

	outcome := obs.OutcomeForwarded
	if r.Suppressed {
		outcome = obs.OutcomeSuppressed
	}
	if r.Degraded {
		outcome = obs.OutcomeDegraded
	}
	if sp != nil {
		if r.Degraded {
			// The shed event names the failure; "shed_breaker_open" also
			// trips the tail sampler's breaker keep rule.
			sp.Event("shed_" + r.DegradedReason)
		}
		sp.MsgID = int64(r.id)
		sp.Generalized = r.Generalized
		sp.Unlinked = r.Unlinked
		sp.AtRisk = r.AtRisk
		sp.Outcome = outcome
		// RecordSpan recycles the pooled span; sp must not be touched
		// after this call.
		s.Obs.RecordSpan(sp, head)
	}
	if a := s.Obs.AuditSink(); a != nil && (r.Generalized || r.Suppressed || r.Unlinked || r.AtRisk) {
		e := obs.Event{
			T:           r.point.T,
			Kind:        obs.KindRequest,
			TraceID:     r.TraceID(),
			User:        int64(r.user),
			MsgID:       int64(r.id),
			Service:     r.service,
			Matched:     r.MatchedLBQID,
			RequestedK:  r.requestedK,
			AchievedK:   r.achievedK,
			HKAnonymity: r.HKAnonymity,
			Outcome:     outcome,
			Reason:      r.DegradedReason,
			Unlinked:    r.Unlinked,
			AtRisk:      r.AtRisk,
			Zone:        r.zone,
		}
		if released {
			e.AreaM2 = r.ctx.Area.Area()
			e.IntervalS = r.ctx.Time.Duration()
			if r.tol.MaxWidth > 0 && r.tol.MaxHeight > 0 {
				e.AreaTolFrac = e.AreaM2 / (r.tol.MaxWidth * r.tol.MaxHeight)
			}
			if r.tol.MaxDuration > 0 {
				e.TimeTolFrac = float64(e.IntervalS) / float64(r.tol.MaxDuration)
			}
		}
		a.Log(e)
	}
	return r.Decision
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
// success it marks the request's record unlinked and names the zone
// that enabled the rotation; on failure the user is flagged at risk.
// Callers hold st.mu.
func (s *Server) unlink(st *userState, pol Policy, r *record) {
	u, p := r.user, r.point
	// A recent static-zone crossing makes rotation safe immediately.
	// Without a static zone there is nothing to cross, and the history
	// the test reads is not fetched.
	if len(s.cfg.StaticZones.Zones()) > 0 {
		lookback := p.T - 4*3600
		if z, crossed := s.cfg.StaticZones.CrossedZone(s.store.History(u), lookback, p.T); crossed {
			r.zone = z.Name
			if r.zone == "" {
				r.zone = "static"
			}
			s.rotate(u, st, p.T, r.zone, r.Trace)
			r.Unlinked = true
			return
		}
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
		r.zone = "ondemand"
		if plan.Fallback {
			r.zone = "ondemand_fallback"
		}
		s.rotate(u, st, p.T, r.zone, r.Trace)
		r.Unlinked = true
		s.Counters.inc(evOndemandZones)
		return
	}
	s.Counters.inc(evUnlinkFailures)
	if !st.atRisk {
		st.atRisk = true
		s.Counters.inc(evAtRisk)
		if n := s.getNotifier(); n != nil {
			n.AtRisk(u, "generalization failed and no unlinking opportunity")
		}
	}
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
	s.Counters.inc(evUnlinkings)
	// Only a traced request renders its trace id here. Rotations are not
	// rare (28% of generalized requests rotate on perfbench's `requests`
	// workload), so a traced run pays this on many requests.
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
	s.Counters.inc(evResponses)
	if !ok {
		s.Counters.inc(evResponsesUnroutable)
	}
	// Deliver outside the lock: inboxes are user code.
	if inbox != nil {
		inbox.Receive(resp)
	}
}
