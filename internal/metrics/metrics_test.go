package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty summary must answer NaN")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Fatalf("N=%d", s.N())
	}
	if got := s.Mean(); got != 3 {
		t.Fatalf("Mean=%g", got)
	}
	if got := s.Min(); got != 1 {
		t.Fatalf("Min=%g", got)
	}
	if got := s.Max(); got != 5 {
		t.Fatalf("Max=%g", got)
	}
	if got := s.Quantile(0.5); got != 3 {
		t.Fatalf("median=%g", got)
	}
	// Adding after a quantile query keeps order statistics correct.
	s.Add(0)
	if got := s.Min(); got != 0 {
		t.Fatalf("Min after re-add=%g", got)
	}
}

func TestSummaryQuantileEdges(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Quantile(0.95); got != 95 {
		t.Fatalf("p95=%g", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("p0=%g", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("p100=%g", got)
	}
}

func TestSummaryConcurrent(t *testing.T) {
	var s Summary
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Add(float64(i))
				s.Quantile(0.5)
			}
		}()
	}
	wg.Wait()
	if s.N() != 8000 {
		t.Fatalf("N=%d", s.N())
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	if got := s.String(); got != "n=0" {
		t.Fatalf("empty String=%q", got)
	}
	s.Add(2)
	if got := s.String(); !strings.Contains(got, "n=1") || !strings.Contains(got, "mean=2.00") {
		t.Fatalf("String=%q", got)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(1, 4); got != 0.25 {
		t.Fatalf("Ratio=%g", got)
	}
	if !math.IsNaN(Ratio(1, 0)) {
		t.Fatal("division by zero must be NaN")
	}
}
