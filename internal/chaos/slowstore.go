// The slow-store fault: a wrapper delaying the spatio-temporal index
// queries on Algorithm 1's hot path (KNN witness search, box counting).
// A slow store must only make the trusted server slow — never change
// which contexts it forwards — and the invariant suite proves exactly
// that by running the same workload with and without the wrapper.

package chaos

import (
	"time"

	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/stindex"
)

// SlowIndex wraps a spatio-temporal index, stalling every query by
// Delay (real time — keep it small in tests). It implements
// stindex.Index and is injected through ts.Config.Index. Safe for
// concurrent use when the wrapped index is.
type SlowIndex struct {
	// Inner is the real index answering the queries.
	Inner stindex.Index
	// Delay is the injected per-query stall.
	Delay time.Duration
}

// stall sleeps the injected delay.
func (s *SlowIndex) stall() {
	if s.Delay > 0 {
		time.Sleep(s.Delay)
	}
}

// Insert implements stindex.Index (writes are not delayed: the fault
// under study is slow anonymity-set queries, not slow ingest).
func (s *SlowIndex) Insert(u phl.UserID, p geo.STPoint) { s.Inner.Insert(u, p) }

// Len implements stindex.Index.
func (s *SlowIndex) Len() int { return s.Inner.Len() }

// UsersInBox implements stindex.Index with the injected stall.
func (s *SlowIndex) UsersInBox(b geo.STBox) []phl.UserID {
	s.stall()
	return s.Inner.UsersInBox(b)
}

// CountUsersInBox implements stindex.Index with the injected stall.
func (s *SlowIndex) CountUsersInBox(b geo.STBox) int {
	s.stall()
	return s.Inner.CountUsersInBox(b)
}

// KNearestUsers implements stindex.Index with the injected stall.
func (s *SlowIndex) KNearestUsers(q geo.STPoint, k int, m geo.STMetric, exclude map[phl.UserID]bool) []stindex.UserPoint {
	s.stall()
	return s.Inner.KNearestUsers(q, k, m, exclude)
}
