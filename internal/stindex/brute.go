package stindex

import (
	"sync"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

// Brute is the paper's baseline: a flat list of samples scanned linearly
// for every query. KNearestUsers is the O(k·n)-flavored method of
// Algorithm 1 ("considering the nearest neighbor in the PHL of each user
// and then taking the closest k points" — a single scan computes the
// per-user nearest neighbors).
//
// Concurrency: an RWMutex serializes Insert against queries; queries
// run in parallel with each other.
type Brute struct {
	mu      sync.RWMutex
	entries []UserPoint
}

// NewBrute returns an empty brute-force index.
func NewBrute() *Brute { return &Brute{} }

// Insert implements Index.
func (b *Brute) Insert(u phl.UserID, p geo.STPoint) {
	b.mu.Lock()
	b.entries = append(b.entries, UserPoint{User: u, Point: p})
	b.mu.Unlock()
}

// Len implements Index.
func (b *Brute) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.entries)
}

// UsersInBox implements Index.
func (b *Brute) UsersInBox(box geo.STBox) []phl.UserID {
	seen := getSeen()
	defer putSeen(seen)
	var out []phl.UserID
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, e := range b.entries {
		if !seen[e.User] && box.Contains(e.Point) {
			seen[e.User] = true
			out = append(out, e.User)
		}
	}
	return out
}

// CountUsersInBox implements Index.
func (b *Brute) CountUsersInBox(box geo.STBox) int {
	seen := getSeen()
	defer putSeen(seen)
	n := 0
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, e := range b.entries {
		if !seen[e.User] && box.Contains(e.Point) {
			seen[e.User] = true
			n++
		}
	}
	return n
}

// KNearestUsers implements Index.
func (b *Brute) KNearestUsers(q geo.STPoint, k int, m geo.STMetric, exclude map[phl.UserID]bool) []UserPoint {
	if k <= 0 {
		return nil
	}
	acc := getKNNAcc(k)
	defer acc.release()
	b.mu.RLock()
	for _, e := range b.entries {
		if d := m.Dist(e.Point, q); acc.admits(d) && !exclude[e.User] {
			acc.offer(e, d)
		}
	}
	b.mu.RUnlock()
	return acc.result()
}
