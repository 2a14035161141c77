package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"histanon/internal/metrics"
)

func TestTailKeepReasons(t *testing.T) {
	tr := NewTracer(64)
	tr.SetTailSlow(time.Millisecond)

	cases := []struct {
		name string
		span Span
		want string // "" = discarded
	}{
		{"forwarded fast", Span{Outcome: OutcomeForwarded}, ""},
		{"degraded", Span{Outcome: OutcomeDegraded}, KeepDegraded},
		{"denied", Span{Outcome: OutcomeSuppressed}, KeepDenied},
		{"dropped delivery", Span{Kind: SpanKindDelivery, Outcome: OutcomeDropped}, KeepDropped},
		{"breaker event", Span{Outcome: OutcomeForwarded,
			Events: []SpanEvent{{Name: "shed_breaker_open"}}}, KeepBreaker},
		{"slow", Span{Outcome: OutcomeForwarded, TotalNs: 2e6}, KeepSlow},
		{"fast under threshold", Span{Outcome: OutcomeForwarded, TotalNs: 5e5}, ""},
	}
	for _, c := range cases {
		sp := c.span
		kept := tr.RecordTail(&sp, false)
		if kept != (c.want != "") {
			t.Fatalf("%s: kept = %v, want %v", c.name, kept, c.want != "")
		}
		if kept && sp.KeepReason != c.want {
			t.Fatalf("%s: KeepReason = %q, want %q", c.name, sp.KeepReason, c.want)
		}
	}

	// Head retention wins regardless of outcome, and is counted as such.
	sp := Span{Outcome: OutcomeForwarded}
	if !tr.RecordTail(&sp, true) {
		t.Fatal("head-sampled spans must always be retained")
	}
	if sp.KeepReason != KeepHead {
		t.Fatalf("KeepReason = %q, want %q", sp.KeepReason, KeepHead)
	}
	if got := tr.KeptCounters().Get(KeepHead); got != 1 {
		t.Fatalf("kept[head] = %d", got)
	}
	if got := tr.KeptCounters().Get(KeepDegraded); got != 1 {
		t.Fatalf("kept[degraded] = %d", got)
	}
}

func TestTailSlowKnob(t *testing.T) {
	tr := NewTracer(8)
	if tr.TailSlow() != 0 {
		t.Fatal("slow-keep must default to off")
	}
	sp := Span{Outcome: OutcomeForwarded, TotalNs: 1 << 40}
	if tr.RecordTail(&sp, false) {
		t.Fatal("with the slow rule off, slowness alone must not retain")
	}
	tr.SetTailSlow(-time.Second)
	if tr.TailSlow() != 0 {
		t.Fatal("negative thresholds must clamp to off")
	}
	tr.SetTailSlow(time.Second)
	if tr.TailSlow() != time.Second {
		t.Fatalf("TailSlow = %v", tr.TailSlow())
	}
}

func TestSpansByTrace(t *testing.T) {
	tr := NewTracer(16)
	tc := MintTraceContext(true)
	req := Span{TraceID: tc.TraceIDString(), SpanID: tc.SpanIDString(),
		Kind: SpanKindRequest, Outcome: OutcomeForwarded}
	child := tc.Child()
	del := Span{TraceID: child.TraceIDString(), SpanID: child.SpanIDString(),
		ParentSpanID: tc.SpanIDString(), Kind: SpanKindDelivery, Outcome: OutcomeDelivered}
	other := Span{TraceID: MintTraceContext(true).TraceIDString(), Outcome: OutcomeForwarded}
	tr.Record(&req)
	tr.Record(&del)
	tr.Record(&other)

	got := tr.SpansByTrace(tc.TraceIDString())
	if len(got) != 2 {
		t.Fatalf("SpansByTrace returned %d spans, want 2", len(got))
	}
	if got[0].Kind != SpanKindRequest || got[1].Kind != SpanKindDelivery {
		t.Fatalf("kinds = %q, %q", got[0].Kind, got[1].Kind)
	}
	if got[1].ParentSpanID != got[0].SpanID {
		t.Fatal("delivery span must hang off the request span")
	}
	if tr.SpansByTrace("") != nil {
		t.Fatal("empty trace id must match nothing")
	}
}

// TestSpanRingRaceStress hammers the ring from concurrent completers
// (mixed head and tail decisions) while readers drain Spans and
// SpansByTrace — the production shape of a busy server under a /v1/spans
// poller. Run with -race; correctness check is that every retained span
// is internally consistent.
func TestSpanRingRaceStress(t *testing.T) {
	tr := NewTracer(128)
	tr.SetTailSlow(time.Microsecond)
	const writers, perWriter = 8, 500

	var readers, writersWG sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sp := range tr.Spans() {
					if sp.KeepReason == "" {
						t.Error("retained span without a keep reason")
						return
					}
					if sp.TraceID != "" {
						tr.SpansByTrace(sp.TraceID)
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				tc := MintTraceContext(w%2 == 0)
				sp := Span{
					TraceID: tc.TraceIDString(),
					SpanID:  tc.SpanIDString(),
					Kind:    SpanKindRequest,
					MsgID:   int64(w*perWriter + i),
					Outcome: []string{OutcomeForwarded, OutcomeDegraded,
						OutcomeSuppressed}[i%3],
					TotalNs: int64(i%2) * 2000,
				}
				tr.RecordTail(&sp, tc.Sampled())
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	if tr.Sampled() == 0 {
		t.Fatal("stress run retained nothing")
	}
	spans := tr.Spans()
	if len(spans) == 0 || len(spans) > 128 {
		t.Fatalf("ring holds %d spans", len(spans))
	}
	for _, sp := range spans {
		if sp.KeepReason == "" {
			t.Fatalf("retained span without keep reason: %+v", sp)
		}
	}
}

func TestRecordSpanExemplarCapture(t *testing.T) {
	o := New()
	o.Tracer.SetSampleRate(1)
	o.SetExemplars(true)
	if !o.ExemplarsEnabled() {
		t.Fatal("SetExemplars(true) must stick")
	}
	tc := MintTraceContext(true)
	sp := Span{TraceID: tc.TraceIDString(), Outcome: OutcomeForwarded}
	sp.StageNs[StageKNN] = 2_000_000
	if !o.RecordSpan(&sp, true) {
		t.Fatal("head span must be retained")
	}
	counts := o.StageSeconds[StageKNN].BucketCounts()
	found := false
	for i := range counts {
		if e, ok := o.StageSeconds[StageKNN].Exemplar(i); ok {
			found = true
			if e.TraceID != tc.TraceIDString() {
				t.Fatalf("exemplar trace id = %q", e.TraceID)
			}
			if e.Value != 0.002 {
				t.Fatalf("exemplar value = %g", e.Value)
			}
		}
	}
	if !found {
		t.Fatal("no exemplar captured on the KNN histogram")
	}

	// Discarded spans must not leave exemplars.
	o2 := New()
	o2.Tracer.SetSampleRate(1)
	o2.SetExemplars(true)
	sp2 := Span{TraceID: MintTraceContext(false).TraceIDString(), Outcome: OutcomeForwarded}
	sp2.StageNs[StageBox] = 3_000_000
	if o2.RecordSpan(&sp2, false) {
		t.Fatal("boring non-head span must be discarded")
	}
	for i := 0; i < len(o2.StageSeconds[StageBox].BucketCounts()); i++ {
		if _, ok := o2.StageSeconds[StageBox].Exemplar(i); ok {
			t.Fatal("discarded span left an exemplar")
		}
	}
}

func TestExemplarsInPrometheusExposition(t *testing.T) {
	// End-to-end through the metrics registry: the bucket line carries
	// the OpenMetrics annotation only when the registry flag is on.
	o := New()
	o.Tracer.SetSampleRate(1)
	o.SetExemplars(true)
	tc := MintTraceContext(true)
	sp := Span{TraceID: tc.TraceIDString(), Outcome: OutcomeForwarded}
	sp.StageNs[StageKNN] = 2_000_000
	o.RecordSpan(&sp, true)

	reg := metrics.NewRegistry()
	reg.RegisterHistogram(MetricStageSeconds, "stage latency",
		metrics.Labels{"stage": StageKNN.String()}, o.StageSeconds[StageKNN])
	var off, on strings.Builder
	if err := reg.WritePrometheus(&off); err != nil {
		t.Fatal(err)
	}
	reg.SetExemplars(true)
	if err := reg.WritePrometheus(&on); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`# {trace_id="%s"} 0.002`, tc.TraceIDString())
	if strings.Contains(off.String(), want) {
		t.Fatal("exemplars emitted with the registry flag off")
	}
	if !strings.Contains(on.String(), want) {
		t.Fatalf("exposition lacks exemplar %q:\n%s", want, on.String())
	}
}
