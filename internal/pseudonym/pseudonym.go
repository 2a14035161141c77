// Package pseudonym manages the UserPseudonym field of service requests
// (paper §3): the trusted server assigns each user a pseudonym, uses it
// toward service providers, and rotates it during an Unlinking action
// (§6.3) so that future requests cannot be bound to past ones.
package pseudonym

import (
	"fmt"
	"sync"

	"histanon/internal/phl"
	"histanon/internal/wire"
)

// Manager assigns and rotates pseudonyms. It is safe for concurrent use.
type Manager struct {
	mu      sync.Mutex
	seq     int64
	current map[phl.UserID]wire.Pseudonym
	// rotations counts each user's retired pseudonyms.
	rotations map[phl.UserID]int
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{
		current:   make(map[phl.UserID]wire.Pseudonym),
		rotations: make(map[phl.UserID]int),
	}
}

// Current returns the user's pseudonym, assigning a fresh one on first
// use.
func (m *Manager) Current(u phl.UserID) wire.Pseudonym {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.current[u]; ok {
		return p
	}
	p := m.fresh()
	m.current[u] = p
	return p
}

// Rotate replaces the user's pseudonym, returning the old and the new
// one. The old pseudonym is never reused. The manager keeps only the
// user's current pseudonym and rotation count, so its state stays one
// entry per user however often users rotate.
func (m *Manager) Rotate(u phl.UserID) (old, fresh wire.Pseudonym) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old, had := m.current[u]
	if had {
		m.rotations[u]++
	}
	fresh = m.fresh()
	m.current[u] = fresh
	return old, fresh
}

// Rotations returns how many times the user's pseudonym has been
// rotated — a measure of unlinking (and hence service-continuity
// disruption) frequency.
func (m *Manager) Rotations(u phl.UserID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rotations[u]
}

// fresh mints an unused pseudonym. Callers hold m.mu.
func (m *Manager) fresh() wire.Pseudonym {
	m.seq++
	return wire.Pseudonym(fmt.Sprintf("p%06d", m.seq))
}
