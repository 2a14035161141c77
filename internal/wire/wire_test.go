package wire

import (
	"math"
	"strings"
	"testing"

	"histanon/internal/geo"
)

func box(minx, miny, maxx, maxy float64, start, end int64) geo.STBox {
	return geo.STBox{
		Area: geo.Rect{MinX: minx, MinY: miny, MaxX: maxx, MaxY: maxy},
		Time: geo.Interval{Start: start, End: end},
	}
}

func TestValidateRejects(t *testing.T) {
	valid := Request{ID: 1, Pseudonym: "p", Service: "s", Context: box(0, 0, 1, 1, 0, 1)}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	mutate := []struct {
		name string
		fn   func(r *Request)
	}{
		{"empty pseudonym", func(r *Request) { r.Pseudonym = "" }},
		{"empty service", func(r *Request) { r.Service = "" }},
		{"inverted rect", func(r *Request) { r.Context.Area.MinX = 2 }},
		{"inverted interval", func(r *Request) { r.Context.Time.End = -1 }},
		{"NaN coordinate", func(r *Request) { r.Context.Area.MaxY = math.NaN() }},
		{"infinite coordinate", func(r *Request) { r.Context.Area.MinY = math.Inf(-1) }},
		{"empty data key", func(r *Request) { r.Data = map[string]string{"": "v"} }},
	}
	for _, m := range mutate {
		r := valid
		m.fn(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", m.name, r)
		}
	}
}

func TestStringFormats(t *testing.T) {
	r := Request{ID: 7, Pseudonym: "p7", Service: "poi", Context: box(0, 0, 10, 10, 5, 25)}
	s := r.String()
	for _, want := range []string{"7", "p7", "poi"} {
		if !strings.Contains(s, want) {
			t.Errorf("Request.String() = %q, missing %q", s, want)
		}
	}
	resp := Response{ID: 7, Service: "poi"}
	if got := resp.String(); !strings.Contains(got, "7") || !strings.Contains(got, "poi") {
		t.Errorf("Response.String() = %q", got)
	}
}

func TestValidateTime(t *testing.T) {
	for _, tt := range []struct {
		t  int64
		ok bool
	}{
		{0, true},
		{MaxAbsTime - 1, true},
		{-MaxAbsTime + 1, true},
		{MaxAbsTime, false},
		{-MaxAbsTime, false},
		{math.MaxInt64, false},
		{math.MinInt64, false},
	} {
		if err := ValidateTime(tt.t); (err == nil) != tt.ok {
			t.Errorf("ValidateTime(%d) = %v, want ok=%v", tt.t, err, tt.ok)
		}
	}
}
