// Package httpapi exposes the trusted server over HTTP/JSON — the
// deployable form of the paper's Fig. 1, where mobile devices talk to
// the TS over the network and only the TS talks to service providers.
//
// Endpoints (JSON unless noted):
//
//	POST /v1/location   {"user":1,"x":10,"y":20,"t":25500}
//	POST /v1/request    {"user":1,"x":10,"y":20,"t":25500,
//	                     "service":"navigation","data":{"dest":"office"}}
//	POST /v1/batch      binary wire batch of location/service-call frames
//	                    (Content-Type application/x-histanon-wire; see
//	                    internal/wire and DESIGN.md §10)
//	POST /v1/lbqid      {"user":1,"spec":"lbqid \"commute\" { ... }"}
//	POST /v1/policy     {"user":1,"level":"high"}  or  {"user":1,"k":7,"theta":0.4}
//	GET  /v1/stats
//	GET  /v1/spans          -> recent retained spans; ?trace=<id> filters one trace
//	GET  /v1/spans/summary  -> span counts and per-stage latency breakdown
//	GET  /metrics           -> Prometheus text exposition (OBSERVABILITY.md)
//	GET  /healthz
//
// POST /v1/request participates in W3C Trace Context: a valid incoming
// `traceparent` header puts the request's span in the caller's trace
// (a sampled parent forces retention), and the response carries the
// request span's own traceparent so callers can correlate. Malformed
// headers are ignored, as the spec directs.
//
// Handler.EnablePprof additionally mounts net/http/pprof under
// /debug/pprof/ (opt-in; lbserve exposes it behind the -pprof flag).
// The matching Client lives in the same package.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"

	"histanon/internal/geo"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/resilience"
	"histanon/internal/storage"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// LocationRequest is the body of POST /v1/location.
type LocationRequest struct {
	User int64   `json:"user"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	T    int64   `json:"t"`
}

// ServiceRequest is the body of POST /v1/request.
type ServiceRequest struct {
	User    int64             `json:"user"`
	X       float64           `json:"x"`
	Y       float64           `json:"y"`
	T       int64             `json:"t"`
	Service string            `json:"service"`
	Data    map[string]string `json:"data,omitempty"`
}

// DecisionResponse mirrors ts.Decision on the wire.
type DecisionResponse struct {
	Forwarded    bool   `json:"forwarded"`
	Generalized  bool   `json:"generalized"`
	HKAnonymity  bool   `json:"hkAnonymity"`
	MatchedLBQID string `json:"matchedLbqid,omitempty"`
	Unlinked     bool   `json:"unlinked"`
	AtRisk       bool   `json:"atRisk"`
	Suppressed   bool   `json:"suppressed"`
	// Degraded marks a fail-closed suppression by the delivery layer
	// (queue full or circuit breaker open); DegradedReason names it.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
	QIDExposed     bool   `json:"qidExposed"`
	// TraceID is the request's trace id when the request was traced; the
	// key for GET /v1/spans?trace=.
	TraceID string `json:"traceId,omitempty"`
	// Context is the forwarded ⟨Area, TimeInterval⟩ when forwarded.
	Context *ContextJSON `json:"context,omitempty"`
	// Pseudonym is the pseudonym used toward the SP when forwarded.
	Pseudonym string `json:"pseudonym,omitempty"`
}

// ContextJSON is the generalized request context on the wire.
type ContextJSON struct {
	MinX  float64 `json:"minX"`
	MinY  float64 `json:"minY"`
	MaxX  float64 `json:"maxX"`
	MaxY  float64 `json:"maxY"`
	Start int64   `json:"start"`
	End   int64   `json:"end"`
}

// LBQIDRequest is the body of POST /v1/lbqid.
type LBQIDRequest struct {
	User int64  `json:"user"`
	Spec string `json:"spec"`
}

// PolicyRequest is the body of POST /v1/policy. Either Level or the
// explicit parameters must be set.
type PolicyRequest struct {
	User     int64   `json:"user"`
	Level    string  `json:"level,omitempty"`
	K        int     `json:"k,omitempty"`
	Theta    float64 `json:"theta,omitempty"`
	Suppress bool    `json:"suppress,omitempty"`
}

// StatsResponse is the body of GET /v1/stats: the events counted at
// least once, and the count and exact mean area (m²) and interval (s)
// of the forwarded generalized contexts, from the server's histograms.
type StatsResponse struct {
	Counters     map[string]int64 `json:"counters"`
	GenAreaMean  float64          `json:"genAreaMean"`
	GenWindow    float64          `json:"genWindowMean"`
	GenSamples   int              `json:"genSamples"`
	TrackedUsers int              `json:"trackedUsers"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// DefaultMaxBodyBytes bounds request bodies (1 MiB): no legitimate API
// body comes close, and an unbounded decoder is a memory-exhaustion
// vector.
const DefaultMaxBodyBytes = 1 << 20

// Handler serves the API over a trusted server.
type Handler struct {
	srv *ts.Server
	mux *http.ServeMux

	// maxBody bounds request bodies; overflowing requests get 413.
	maxBody int64
	// batchMaxBody, when > 0, bounds /v1/batch bodies separately from
	// maxBody (binary batches are legitimately larger than JSON bodies).
	batchMaxBody int64
	// wireBatchOff disables the binary /v1/batch endpoint (404).
	wireBatchOff bool
	// maxInFlight bounds concurrently served requests (0 = unlimited);
	// excess load is shed with 503 + Retry-After. /healthz and /metrics
	// are exempt so operators can observe an overloaded server.
	maxInFlight int64
	inflight    atomic.Int64
	shed        atomic.Int64

	// outbox, when set, contributes delivery-queue and breaker state to
	// /healthz.
	outbox *resilience.Outbox
	// storage, when set, contributes the durable tiered store's WAL,
	// tier and recovery state to /healthz.
	storage *storage.TieredStore
}

// New returns an http.Handler exposing srv with the default body bound
// and no admission limit; see SetMaxInFlight, SetMaxBodyBytes,
// SetOutbox and SetStorage for the production knobs.
func New(srv *ts.Server) *Handler {
	h := &Handler{srv: srv, mux: http.NewServeMux(), maxBody: DefaultMaxBodyBytes}
	h.mux.HandleFunc("/v1/location", h.postOnly(h.handleLocation))
	h.mux.HandleFunc("/v1/request", h.postOnly(h.handleRequest))
	h.mux.HandleFunc("/v1/batch", h.postOnly(h.handleBatch))
	h.mux.HandleFunc("/v1/lbqid", h.postOnly(h.handleLBQID))
	h.mux.HandleFunc("/v1/policy", h.postOnly(h.handlePolicy))
	h.mux.HandleFunc("/v1/stats", h.handleStats)
	h.mux.HandleFunc("/v1/spans", h.handleSpans)
	h.mux.HandleFunc("/v1/spans/summary", h.handleSpansSummary)
	h.mux.HandleFunc("/v1/slo", h.handleSLO)
	h.mux.HandleFunc("/metrics", h.handleMetrics)
	h.mux.HandleFunc("/healthz", h.handleHealthz)
	return h
}

// SetMaxInFlight bounds concurrently served requests; n <= 0 removes
// the bound. Configure before serving traffic. The shed counter and the
// in-flight gauge feed the server's histanon_http_* metric families.
func (h *Handler) SetMaxInFlight(n int) {
	h.maxInFlight = int64(n)
	if n > 0 {
		h.srv.SetHTTPMetrics(h.shed.Load,
			func() float64 { return float64(h.inflight.Load()) })
	}
}

// SetMaxBodyBytes bounds request bodies; n <= 0 restores the default.
func (h *Handler) SetMaxBodyBytes(n int64) {
	if n <= 0 {
		n = DefaultMaxBodyBytes
	}
	h.maxBody = n
}

// SetOutbox wires the resilience delivery queue into /healthz (queue
// depth, drops, per-service breaker states). Configure before serving
// traffic.
func (h *Handler) SetOutbox(o *resilience.Outbox) { h.outbox = o }

// SetStorage wires the durable tiered PHL store into /healthz: WAL
// health (a failed WAL suppresses every request and marks the server
// degraded), hot/cold tier occupancy, cold-read errors and what the
// last crash recovery replayed. Configure before serving traffic.
func (h *Handler) SetStorage(st *storage.TieredStore) { h.storage = st }

// EnablePprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/. Call it only on operator-facing listeners: profiles
// expose internals (goroutine dumps, heap contents) that must never be
// reachable from the public device API.
func (h *Handler) EnablePprof() {
	h.mux.HandleFunc("/debug/pprof/", pprof.Index)
	h.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	h.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	h.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	h.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// handleMetrics serves the Prometheus text exposition.
func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Errors past the first byte surface as a truncated scrape.
	_ = h.srv.MetricsRegistry().WritePrometheus(w)
}

// handleSpans returns the tracer's buffered spans, oldest first. An
// operator turns sampling on (lbserve -trace-sample) and reads recent
// per-stage timings here without attaching a profiler. ?trace=<id>
// restricts the output to one trace — the lookup a /metrics exemplar's
// trace_id resolves through.
func (h *Handler) handleSpans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	if trace := r.URL.Query().Get("trace"); trace != "" {
		writeJSON(w, http.StatusOK, h.srv.Obs.Tracer.SpansByTrace(trace))
		return
	}
	writeJSON(w, http.StatusOK, h.srv.Obs.Tracer.Spans())
}

// SpanSummaryResponse is the body of GET /v1/spans/summary: the
// retained spans aggregated by outcome, keep reason and pipeline stage.
type SpanSummaryResponse struct {
	// Spans is how many spans the ring currently holds.
	Spans int `json:"spans"`
	// ByOutcome and ByKeepReason count the buffered spans by their
	// outcome and tail-sampling keep reason.
	ByOutcome    map[string]int `json:"byOutcome"`
	ByKeepReason map[string]int `json:"byKeepReason"`
	// Stages is the per-stage latency breakdown over the buffered spans,
	// in pipeline order; stages no span reached are omitted.
	Stages []StageSummary `json:"stages"`
}

// StageSummary aggregates one pipeline stage's latency over the
// buffered spans that reached it.
type StageSummary struct {
	Stage   string  `json:"stage"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	MeanUs  float64 `json:"meanUs"`
	MaxUs   float64 `json:"maxUs"`
}

// handleSpansSummary aggregates the span ring into the stage-latency
// breakdown an operator reads before diving into individual traces.
func (h *Handler) handleSpansSummary(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	spans := h.srv.Obs.Tracer.Spans()
	resp := SpanSummaryResponse{
		Spans:        len(spans),
		ByOutcome:    map[string]int{},
		ByKeepReason: map[string]int{},
	}
	var count [obs.NumStages]int
	var total, max [obs.NumStages]int64
	for i := range spans {
		sp := &spans[i]
		if sp.Outcome != "" {
			resp.ByOutcome[sp.Outcome]++
		}
		if sp.KeepReason != "" {
			resp.ByKeepReason[sp.KeepReason]++
		}
		for s, ns := range sp.StageNs {
			if ns > 0 {
				count[s]++
				total[s] += ns
				if ns > max[s] {
					max[s] = ns
				}
			}
		}
	}
	for _, stage := range obs.Stages() {
		if count[stage] == 0 {
			continue
		}
		resp.Stages = append(resp.Stages, StageSummary{
			Stage:   stage.String(),
			Count:   count[stage],
			TotalMs: float64(total[stage]) / 1e6,
			MeanUs:  float64(total[stage]) / float64(count[stage]) / 1e3,
			MaxUs:   float64(max[stage]) / 1e3,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ServeHTTP implements http.Handler. When an admission limit is set,
// requests beyond it are shed with 503 + Retry-After instead of queuing
// without bound; /healthz, /metrics and /v1/slo bypass the limit so the
// overload — and any privacy burn it causes — stays observable.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.maxInFlight > 0 && r.URL.Path != "/healthz" && r.URL.Path != "/metrics" &&
		r.URL.Path != "/v1/slo" {
		if h.inflight.Add(1) > h.maxInFlight {
			h.inflight.Add(-1)
			h.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable,
				errorResponse{Error: "server overloaded, retry later"})
			return
		}
		defer h.inflight.Add(-1)
	}
	h.mux.ServeHTTP(w, r)
}

// HealthResponse is the body of GET /healthz: the server's real
// operational state, not a bare liveness ping. Status is "ok" or
// "degraded"; Degraded lists the reasons (open breakers, saturated
// delivery queue, saturated admission, a failed WAL, SLO alerts).
type HealthResponse struct {
	Status   string   `json:"status"`
	Degraded []string `json:"degraded,omitempty"`
	// InFlight / MaxInFlight / ShedTotal describe admission control
	// (MaxInFlight 0 = unlimited).
	InFlight    int64 `json:"inFlight"`
	MaxInFlight int64 `json:"maxInFlight,omitempty"`
	ShedTotal   int64 `json:"shedTotal,omitempty"`
	// Outbox describes the async SP delivery queue, when one is wired.
	Outbox *OutboxHealth `json:"outbox,omitempty"`
	// Storage describes the durable tiered PHL store, when one is wired.
	Storage *StorageHealth `json:"storage,omitempty"`
	// SLO summarizes the privacy-SLO engine (objective states and canary
	// staleness) when the engine is enabled.
	SLO *SLOHealth `json:"slo,omitempty"`
}

// StorageHealth is the durable-storage section of /healthz: the state
// an operator needs to tell "suppressing because the WAL died" from
// "serving normally with most of the PHL demoted to disk".
type StorageHealth struct {
	// Failed is true once a WAL write or fsync has failed; the store is
	// fail-stop and every request is suppressed until a restart.
	Failed bool `json:"failed"`
	// WALLagRecords counts appended records not yet covered by an fsync.
	WALLagRecords int64 `json:"walLagRecords"`
	// WALErrors / ColdReadErrors / SnapshotErrors are cumulative.
	WALErrors      int64 `json:"walErrors"`
	ColdReadErrors int64 `json:"coldReadErrors"`
	SnapshotErrors int64 `json:"snapshotErrors"`
	// HotSamples / ColdSamples split the PHL between memory and disk;
	// ChainFiles is the snapshot chain length (compaction bounds it).
	HotSamples  int `json:"hotSamples"`
	ColdSamples int `json:"coldSamples"`
	ChainFiles  int `json:"chainFiles"`
	// RecoverySeconds / RecoveryReplayed describe the last boot: wall
	// time to recover and WAL records replayed past the snapshot chain.
	RecoverySeconds  float64 `json:"recoverySeconds"`
	RecoveryReplayed int     `json:"recoveryReplayed"`
}

// OutboxHealth is the delivery-queue section of /healthz.
type OutboxHealth struct {
	QueueDepth    int               `json:"queueDepth"`
	QueueCapacity int               `json:"queueCapacity"`
	Dropped       int64             `json:"dropped"`
	Breakers      map[string]string `json:"breakers,omitempty"`
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	resp := HealthResponse{
		Status:      "ok",
		InFlight:    h.inflight.Load(),
		MaxInFlight: h.maxInFlight,
		ShedTotal:   h.shed.Load(),
	}
	if h.maxInFlight > 0 && resp.InFlight >= h.maxInFlight {
		resp.Degraded = append(resp.Degraded, "admission_saturated")
	}
	if o := h.outbox; o != nil {
		oh := &OutboxHealth{
			QueueDepth:    o.QueueDepth(),
			QueueCapacity: o.QueueCapacity(),
			Dropped:       o.Dropped(),
			Breakers:      o.BreakerStates(),
		}
		resp.Outbox = oh
		if oh.QueueDepth >= oh.QueueCapacity {
			resp.Degraded = append(resp.Degraded, "outbox_queue_full")
		}
		for svc, state := range oh.Breakers {
			if state == resilience.BreakerOpen.String() {
				resp.Degraded = append(resp.Degraded, "breaker_open:"+svc)
			}
		}
	}
	if st := h.storage; st != nil {
		stats := st.Stats()
		rec := st.Recovery()
		resp.Storage = &StorageHealth{
			Failed:           stats.Failed,
			WALLagRecords:    stats.WALLag,
			WALErrors:        stats.WALErrors,
			ColdReadErrors:   stats.ColdErrors,
			SnapshotErrors:   stats.SnapshotErrors,
			HotSamples:       stats.HotSamples,
			ColdSamples:      stats.ColdSamples,
			ChainFiles:       stats.ChainFiles,
			RecoverySeconds:  rec.Duration.Seconds(),
			RecoveryReplayed: rec.Replayed,
		}
		if stats.Failed {
			resp.Degraded = append(resp.Degraded, "storage_wal_failed")
		}
	}
	resp.SLO = h.sloHealth(&resp.Degraded)
	if len(resp.Degraded) > 0 {
		resp.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) postOnly(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
			return
		}
		fn(w, r)
	}
}

func (h *Handler) handleLocation(w http.ResponseWriter, r *http.Request) {
	var req LocationRequest
	if !h.decode(w, r, &req) {
		return
	}
	if err := h.srv.RecordLocation(phl.UserID(req.User), geo.STPoint{
		P: geo.Point{X: req.X, Y: req.Y}, T: req.T,
	}); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "recorded"})
}

func (h *Handler) handleRequest(w http.ResponseWriter, r *http.Request) {
	var req ServiceRequest
	if !h.decode(w, r, &req) {
		return
	}
	if req.Service == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "service is required"})
		return
	}
	if err := wire.ValidateData(req.Data); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// A malformed traceparent is ignored (the W3C spec's directive):
	// parent stays zero and the request is traced — or not — locally.
	var parent obs.TraceContext
	if tp := r.Header.Get("traceparent"); tp != "" {
		if tc, err := obs.ParseTraceparent(tp); err == nil {
			parent = tc
		}
	}
	dec := h.srv.RequestTraced(phl.UserID(req.User), geo.STPoint{
		P: geo.Point{X: req.X, Y: req.Y}, T: req.T,
	}, req.Service, req.Data, parent)
	if tp := dec.Traceparent(); tp != "" {
		w.Header().Set("traceparent", tp)
	}
	writeJSON(w, http.StatusOK, decisionJSON(dec))
}

func (h *Handler) handleLBQID(w http.ResponseWriter, r *http.Request) {
	var req LBQIDRequest
	if !h.decode(w, r, &req) {
		return
	}
	if err := h.srv.AddLBQIDSpec(phl.UserID(req.User), req.Spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "registered"})
}

func (h *Handler) handlePolicy(w http.ResponseWriter, r *http.Request) {
	var req PolicyRequest
	if !h.decode(w, r, &req) {
		return
	}
	var pol ts.Policy
	switch req.Level {
	case "low":
		pol = ts.PolicyForLevel(ts.Low)
	case "medium":
		pol = ts.PolicyForLevel(ts.Medium)
	case "high":
		pol = ts.PolicyForLevel(ts.High)
	case "":
		if req.K < 1 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "level or k required"})
			return
		}
		pol = ts.Policy{K: req.K, Theta: req.Theta, SuppressAtRisk: req.Suppress}
	default:
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("unknown level %q", req.Level)})
		return
	}
	h.srv.RegisterUser(phl.UserID(req.User), pol)
	writeJSON(w, http.StatusOK, map[string]string{"status": "registered"})
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	counters := map[string]int64{}
	for _, name := range h.srv.Counters.Names() {
		counters[name] = h.srv.Counters.Get(name)
	}
	area, interval := h.srv.Obs.GenAreaM2, h.srv.Obs.GenIntervalS
	resp := StatsResponse{
		Counters:     counters,
		GenSamples:   int(area.Count()),
		TrackedUsers: h.srv.Store().NumUsers(),
	}
	if resp.GenSamples > 0 {
		resp.GenAreaMean = area.Sum() / float64(resp.GenSamples)
		resp.GenWindow = interval.Sum() / float64(resp.GenSamples)
	}
	writeJSON(w, http.StatusOK, resp)
}

// decode parses a JSON body bounded by the handler's body limit.
// Overflowing bodies get 413 (and the connection closed, per
// http.MaxBytesReader); malformed ones get 400.
func (h *Handler) decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, h.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
				Error: "request body exceeds " + strconv.FormatInt(tooBig.Limit, 10) + " bytes"})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header cannot be reported to the client;
	// they surface as truncated bodies, which clients treat as errors.
	_ = json.NewEncoder(w).Encode(v)
}
