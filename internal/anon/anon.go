// Package anon decides Historical k-anonymity (the paper's Def. 8) for a
// request series: HistoricalLevel counts the users LT-consistent with
// the series, the issuer included once, and SatisfiesHistoricalK asks
// whether k−1 of them are other users. The sets themselves are the
// store's queries: phl.Storer's UsersIn for one context, and its
// LTConsistentUsers (Def. 7) for a series.
package anon

import (
	"histanon/internal/geo"
	"histanon/internal/phl"
)

// HistoricalLevel returns the achieved historical anonymity level of a
// request series issued by issuer: 1 (the issuer alone) plus the number
// of other users LT-consistent with the series. The issuer's own history
// is not required to be consistent (it trivially should be, since the
// contexts generalize the issuer's true positions) and is never counted
// twice.
func HistoricalLevel(store phl.Storer, issuer phl.UserID, boxes []geo.STBox) int {
	level := 1
	for _, u := range store.LTConsistentUsers(boxes) {
		if u != issuer {
			level++
		}
	}
	return level
}

// SatisfiesHistoricalK decides Def. 8: the request series of issuer
// satisfies historical k-anonymity when there exist k−1 personal
// histories of other users, each LT-consistent with the series.
func SatisfiesHistoricalK(store phl.Storer, issuer phl.UserID, boxes []geo.STBox, k int) bool {
	if k <= 1 {
		return true
	}
	need := k - 1
	for _, u := range store.LTConsistentUsers(boxes) {
		if u == issuer {
			continue
		}
		need--
		if need == 0 {
			return true
		}
	}
	return false
}
