// Package sp implements the service-provider side of the model (§3) and
// the adversary the framework defends against: an SP that records every
// request it receives and tries to re-identify users from the
// generalized location contexts.
//
// The threat model follows the paper's §5: the SP links the requests
// that share a pseudonym into one series, and consults an external
// observation source to learn who was where — modeled, worst case, as
// access to the true Personal-History-of-Locations database. Score is
// that attack: it intersects, over a series, the users whose histories
// are LT-consistent with every request context (Defs. 7–8), and the
// series is broken when that set is exactly its issuer. Weighted
// sharpens the same candidate set into a posterior (E14). Linking
// across pseudonyms (§5.2) is measured apart from Score, by
// link.RotationLikelihoods (E8).
package sp

import (
	"sync"

	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/wire"
)

// Provider is a recording service provider. It is safe for concurrent
// use and implements the trusted server's Outbox.
type Provider struct {
	mu    sync.Mutex
	reqs  []*wire.Request
	logic map[string]Logic
	ret   func(*wire.Response)
}

// NewProvider returns an empty provider.
func NewProvider() *Provider { return &Provider{} }

// Deliver records a request (Outbox implementation) and, when response
// logic is configured for the service, computes and returns the answer
// through the trusted server.
func (p *Provider) Deliver(req *wire.Request) {
	p.mu.Lock()
	p.reqs = append(p.reqs, req)
	logic := p.logic[req.Service]
	ret := p.ret
	p.mu.Unlock()
	if logic == nil || ret == nil {
		return
	}
	ret(&wire.Response{ID: req.ID, Service: req.Service, Payload: logic.Answer(req)})
}

// Requests returns all recorded requests in arrival order.
func (p *Provider) Requests() []*wire.Request {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*wire.Request, len(p.reqs))
	copy(out, p.reqs)
	return out
}

// GroupReport is the attack outcome for one series.
type GroupReport struct {
	// Issuer is the series' true user.
	Issuer phl.UserID
	// Requests is the series length.
	Requests int
	// Candidates are the users whose histories are LT-consistent with
	// every request context in the series — the attacker's anonymity set.
	Candidates []phl.UserID
	// Identified is true when the candidate set is exactly the issuer.
	Identified bool
}

// Report is Score's outcome, one GroupReport per series in order.
type Report struct {
	Groups []GroupReport
}

// IdentifiedGroups counts the series whose candidate set is exactly
// their issuer.
func (r Report) IdentifiedGroups() int {
	n := 0
	for _, g := range r.Groups {
		if g.Identified {
			n++
		}
	}
	return n
}

// MinAnonymity returns the smallest candidate-set size over all groups
// (0 when a group has no candidates, which signals an inconsistent log).
func (r Report) MinAnonymity() int {
	min := -1
	for _, g := range r.Groups {
		if min < 0 || len(g.Candidates) < min {
			min = len(g.Candidates)
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// MeanAnonymity returns the mean candidate-set size over groups.
func (r Report) MeanAnonymity() float64 {
	if len(r.Groups) == 0 {
		return 0
	}
	sum := 0
	for _, g := range r.Groups {
		sum += len(g.Candidates)
	}
	return float64(sum) / float64(len(r.Groups))
}

// LinkProbability returns the mean over groups of 1/|candidates|, the
// probability the attacker puts on each candidate when it guesses
// uniformly (a group with no candidates adds 0). It is at most 1/k
// when every group's anonymity set holds k users.
func (r Report) LinkProbability() float64 {
	if len(r.Groups) == 0 {
		return 0
	}
	sum := 0.0
	for _, g := range r.Groups {
		if n := len(g.Candidates); n > 0 {
			sum += 1 / float64(n)
		}
	}
	return sum / float64(len(r.Groups))
}

// AttackStore is the one read of the attacker's knowledge that Score
// needs: the users LT-consistent with every box (Def. 7), and nothing
// that can write. phl.Store and storage.TieredStore satisfy it.
type AttackStore interface {
	LTConsistentUsers(boxes []geo.STBox) []phl.UserID
}

// Series is one linked request series as the SP saw it, with the
// ground-truth issuer the attack is scored against.
type Series struct {
	Issuer phl.UserID
	Boxes  []geo.STBox
}

// Logged is one forwarded request as a recording SP logged it, with
// the ground-truth issuer the attack is scored against.
type Logged struct {
	Issuer phl.UserID
	Req    *wire.Request
}

// Split turns a time-ordered log into the two inputs of the §5 attack:
// the pseudonym series Score attacks, in order of first appearance and
// each with its first maxBoxes boxes, and each issuer's requests in
// time order, which link.RotationLikelihoods reads.
func Split(log []Logged, maxBoxes int) (series []Series, byIssuer [][]*wire.Request) {
	seriesAt := map[wire.Pseudonym]int{}
	issuerAt := map[phl.UserID]int{}
	for _, l := range log {
		s, ok := seriesAt[l.Req.Pseudonym]
		if !ok {
			s = len(series)
			seriesAt[l.Req.Pseudonym] = s
			series = append(series, Series{Issuer: l.Issuer})
		}
		if len(series[s].Boxes) < maxBoxes {
			series[s].Boxes = append(series[s].Boxes, l.Req.Context)
		}
		u, ok := issuerAt[l.Issuer]
		if !ok {
			u = len(byIssuer)
			issuerAt[l.Issuer] = u
			byIssuer = append(byIssuer, nil)
		}
		byIssuer[u] = append(byIssuer[u], l.Req)
	}
	return series, byIssuer
}

// Score runs the §5 attack on each series in order: it intersects the
// users LT-consistent with every box of the series (Defs. 7–8), and a
// series is identified when that set is exactly its issuer. Callers
// cap the number of series and of boxes per series.
func Score(kn AttackStore, series []Series) Report {
	rep := Report{Groups: make([]GroupReport, len(series))}
	for i, s := range series {
		cands := kn.LTConsistentUsers(s.Boxes)
		rep.Groups[i] = GroupReport{
			Issuer:     s.Issuer,
			Requests:   len(s.Boxes),
			Candidates: cands,
			Identified: len(cands) == 1 && cands[0] == s.Issuer,
		}
	}
	return rep
}

// Logic computes a service's answer from the generalized request it
// received — the only view of the user's position an SP ever has.
type Logic interface {
	Answer(req *wire.Request) map[string]string
}

// LogicFunc adapts a function to the Logic interface.
type LogicFunc func(req *wire.Request) map[string]string

// Answer implements Logic.
func (f LogicFunc) Answer(req *wire.Request) map[string]string { return f(req) }

// Respond configures the provider to answer requests: logic per service
// name, and the return channel to the trusted server (normally
// (*ts.Server).DeliverResponse). Requests for services without logic
// are recorded but not answered.
func (p *Provider) Respond(logic map[string]Logic, ret func(*wire.Response)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.logic = logic
	p.ret = ret
}
