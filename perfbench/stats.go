package main

import (
	"math"
	"sort"
)

// quantile is the q-quantile of vs by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// groupQuantiles splits the rounds, in order, into groups just large
// enough that at least ten samples lie beyond the q-quantile, and
// returns each group's q-quantile. A short tail group joins the one
// before it. The reported figure is their median, so a stretch of the
// run slowed by the host moves one group's value, not the result.
func groupQuantiles(rs []roundResult, samples func(r roundResult) []float64, q float64) []float64 {
	need := int(math.Ceil(10 / math.Min(q, 1-q)))
	var groups [][]float64
	var cur []float64
	for _, r := range rs {
		cur = append(cur, samples(r)...)
		if len(cur) >= need {
			groups, cur = append(groups, cur), nil
		}
	}
	switch {
	case len(groups) == 0:
		groups = [][]float64{cur}
	case len(cur) > 0:
		last := len(groups) - 1
		groups[last] = append(groups[last], cur...)
	}
	out := make([]float64, len(groups))
	for i, g := range groups {
		out[i] = quantile(g, q)
	}
	return out
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
