package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestStageStrings(t *testing.T) {
	want := []string{"lbqid_match", "knn_lookup", "box_construct",
		"tolerance_check", "unlink", "forward"}
	stages := Stages()
	if len(stages) != len(want) || len(stages) != int(NumStages) {
		t.Fatalf("Stages() = %v", stages)
	}
	seen := map[string]bool{}
	for i, s := range stages {
		name := s.String()
		if name != want[i] {
			t.Fatalf("stage %d = %q, want %q", i, name, want[i])
		}
		if seen[name] {
			t.Fatalf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
	if Stage(99).String() != "unknown" {
		t.Fatal("out-of-range stage must stringify as unknown")
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(8)
	if collect, head := tr.Sample(); collect || head {
		t.Fatal("a fresh tracer must not sample")
	}
	tr.SetSampleRate(1)
	for i := 0; i < 5; i++ {
		if collect, head := tr.Sample(); !collect || !head {
			t.Fatal("rate 1 must head-sample everything")
		}
	}
	tr.SetSampleRate(0.25) // deterministic: every 4th request
	heads := 0
	for i := 0; i < 100; i++ {
		collect, head := tr.Sample()
		if !collect {
			t.Fatal("with tracing on, every request must collect")
		}
		if head {
			heads++
		}
	}
	if heads != 25 {
		t.Fatalf("rate 0.25 head-sampled %d/100", heads)
	}
	tr.SetSampleRate(0)
	if collect, head := tr.Sample(); collect || head {
		t.Fatal("rate 0 must sample nothing")
	}
	if tr.SampleEvery() != 0 {
		t.Fatalf("SampleEvery = %d", tr.SampleEvery())
	}
	// An upstream sampled parent forces collection and retention even
	// with local tracing off.
	if collect, head := tr.SampleWithParent(true); !collect || !head {
		t.Fatal("a sampled parent must force collect+head")
	}
	if collect, head := tr.SampleWithParent(false); collect || head {
		t.Fatal("an unsampled parent must not force anything at rate 0")
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 6; i++ {
		sp := Span{MsgID: int64(i)}
		tr.Record(&sp)
	}
	if tr.Sampled() != 6 {
		t.Fatalf("Sampled = %d", tr.Sampled())
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Oldest first: 3, 4, 5, 6.
	for i, want := range []int64{3, 4, 5, 6} {
		if spans[i].MsgID != want {
			t.Fatalf("spans[%d].MsgID = %d, want %d", i, spans[i].MsgID, want)
		}
	}
}

func TestSpanTiming(t *testing.T) {
	var sp Span
	sp.Begin()
	sp.Mark(StageMatch)
	sp.Sync()
	sp.Mark(StageForward)
	sp.AddStage(StageKNN, 1234)
	tr := NewTracer(2)
	tr.Record(&sp)
	if sp.TotalNs <= 0 {
		t.Fatalf("TotalNs = %d", sp.TotalNs)
	}
	if sp.StageNs[StageKNN] != 1234 {
		t.Fatalf("StageNs[KNN] = %d", sp.StageNs[StageKNN])
	}
	if sp.StageNs[StageMatch] < 0 || sp.StageNs[StageForward] < 0 {
		t.Fatalf("negative stage time: %v", sp.StageNs)
	}
}

func TestAuditEventRoundTrip(t *testing.T) {
	in := Event{
		T:            25500,
		Kind:         KindRequest,
		TraceID:      "4bf92f3577b34da6a3ce929d0e0e4736",
		User:         42,
		MsgID:        7,
		Service:      "navigation",
		Matched:      "commute,lunch",
		RequestedK:   5,
		AchievedK:    6,
		AreaM2:       12345.5,
		IntervalS:    600,
		AreaTolFrac:  0.75,
		TimeTolFrac:  0.5,
		HKAnonymity:  true,
		Outcome:      OutcomeForwarded,
		Unlinked:     true,
		AtRisk:       true,
		Zone:         "plaza",
		OldPseudonym: "p-old",
		NewPseudonym: "p-new",
	}
	var buf bytes.Buffer
	a := NewAuditLog(&buf)
	a.Log(in)
	a.Log(Event{T: 25600, Kind: KindRotation, User: 42, Zone: "ondemand"})
	if err := a.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if a.Events() != 2 || a.Errors() != 0 {
		t.Fatalf("events=%d errors=%d", a.Events(), a.Errors())
	}

	events, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("read %d events", len(events))
	}
	if !reflect.DeepEqual(events[0], in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", events[0], in)
	}
	if events[1].Kind != KindRotation || events[1].Zone != "ondemand" {
		t.Fatalf("second event = %+v", events[1])
	}

	// The wire field names are part of the audit format contract.
	var raw map[string]any
	line, _, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	if err := json.Unmarshal(line, &raw); err != nil {
		t.Fatalf("line is not JSON: %v", err)
	}
	for _, field := range []string{
		"t", "kind", "trace_id", "user", "msgid", "service", "matched", "requested_k",
		"achieved_k", "area_m2", "interval_s", "area_tol_frac",
		"time_tol_frac", "hk", "outcome", "unlinked", "at_risk", "zone",
		"old_pseudonym", "new_pseudonym",
	} {
		if _, ok := raw[field]; !ok {
			t.Fatalf("wire field %q missing from %s", field, line)
		}
	}
}

func TestReadEventsBadLine(t *testing.T) {
	in := "{\"t\":1,\"kind\":\"request\",\"user\":1,\"hk\":true}\nnot json\n"
	events, err := ReadEvents(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("read %d events before the bad line", len(events))
	}
}

func TestNilAuditLogIsNoop(t *testing.T) {
	var a *AuditLog
	a.Log(Event{})
	if a.Events() != 0 || a.Errors() != 0 {
		t.Fatal("nil audit log must count nothing")
	}
	if err := a.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestReplayAchievedK(t *testing.T) {
	var buf bytes.Buffer
	a := NewAuditLog(&buf)
	for _, k := range []int{2, 2, 5, 21} {
		a.Log(Event{Kind: KindRequest, AchievedK: k})
	}
	a.Log(Event{Kind: KindRotation})              // ignored
	a.Log(Event{Kind: KindRequest, AchievedK: 0}) // suppressed-before-generalize: ignored
	a.Flush()

	h, err := ReplayAchievedK(&buf)
	if err != nil {
		t.Fatalf("ReplayAchievedK: %v", err)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	counts := h.BucketCounts()
	if counts[1] != 2 { // k=2 bucket
		t.Fatalf("k=2 bucket = %d (all: %v)", counts[1], counts)
	}
	if counts[len(counts)-1] != 1 { // k=21 overflows the 20-bucket range
		t.Fatalf("overflow bucket = %d", counts[len(counts)-1])
	}
}

func TestReplayAchievedKIgnoresUnknownFields(t *testing.T) {
	// Forward compatibility: audit logs written by a NEWER server (with
	// record fields this build does not know) must still replay. A
	// consumer pinned to an old build keeps working across log-format
	// growth — the property that let trace_id be added without a
	// migration.
	in := `{"t":1,"kind":"request","achieved_k":3,"hk":true,"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","future_field":"x","future_obj":{"a":1},"future_arr":[1,2]}
{"t":2,"kind":"request","achieved_k":5,"hk":true,"another_unknown":42}
`
	h, err := ReplayAchievedK(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReplayAchievedK: %v", err)
	}
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	counts := h.BucketCounts()
	if counts[2] != 1 || counts[4] != 1 { // k=3 and k=5 buckets
		t.Fatalf("bucket counts = %v", counts)
	}
}

func TestObserverDefaults(t *testing.T) {
	o := New()
	if o.Tracer.SampleEvery() != 0 {
		t.Fatal("a new observer must have sampling off")
	}
	if o.AuditSink() != nil {
		t.Fatal("a new observer must have no audit sink")
	}
	o.Audit(Event{Kind: KindRequest}) // must be a safe no-op

	var sp Span
	sp.AddStage(StageKNN, 2_000_000) // 2 ms
	o.RecordSpan(&sp, true)
	if got := o.StageSeconds[StageKNN].Count(); got != 1 {
		t.Fatalf("KNN stage histogram count = %d", got)
	}
	if got := o.StageSeconds[StageKNN].Sum(); math.Abs(got-0.002) > 1e-12 {
		t.Fatalf("KNN stage histogram sum = %g", got)
	}
	if got := o.StageSeconds[StageMatch].Count(); got != 0 {
		t.Fatalf("untouched stage histogram count = %d", got)
	}
}

func TestMetricNamesUniqueAndValid(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range MetricNames() {
		if !strings.HasPrefix(name, "histanon_") {
			t.Fatalf("metric %q lacks the histanon_ prefix", name)
		}
		if seen[name] {
			t.Fatalf("duplicate metric name %q", name)
		}
		seen[name] = true
	}
	if len(seen) != 56 {
		t.Fatalf("MetricNames lists %d families, want 56", len(seen))
	}
}
