// Package sp implements the service-provider side of the model (§3) and
// the adversary the framework defends against: an SP that records every
// request it receives and tries to re-identify users from the
// generalized location contexts.
//
// The threat model follows the paper: the SP can (a) trivially link
// requests sharing a pseudonym, (b) run multi-target tracking to link
// across pseudonyms (§5.2), and (c) consult an external observation
// source to learn who was where — modeled, worst case, as access to the
// true Personal-History-of-Locations database. Re-identification then
// means intersecting, over a linked request set, the users whose
// histories are LT-consistent with every request context (Def. 7): if a
// single user remains, the pseudonym is broken.
package sp

import (
	"sort"
	"sync"

	"histanon/internal/anon"
	"histanon/internal/geo"
	"histanon/internal/link"
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

// ByPseudonym groups the recorded requests by pseudonym.
func (p *Provider) ByPseudonym() map[wire.Pseudonym][]*wire.Request {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[wire.Pseudonym][]*wire.Request)
	for _, r := range p.reqs {
		out[r.Pseudonym] = append(out[r.Pseudonym], r)
	}
	return out
}

// Attacker runs re-identification over a provider's log.
type Attacker struct {
	// Knowledge is the external observation source (worst case: the full
	// PHL database).
	Knowledge phl.Storer
	// Linker links requests across pseudonyms; nil means
	// pseudonym-equality only.
	Linker link.Func
	// Theta is the linkability threshold used to form linked groups.
	Theta float64
}

// GroupReport is the attack outcome for one linked request group.
type GroupReport struct {
	// Issuer is the group's true user, known when Score attacks a
	// Series; Attack and AttackSeries cannot know it and leave it zero.
	Issuer phl.UserID
	// Pseudonyms seen in the group (more than one when tracking linked
	// across a pseudonym change).
	Pseudonyms []wire.Pseudonym
	// Requests is the group size.
	Requests int
	// Candidates are the users whose histories are LT-consistent with
	// every request context in the group — the attacker's anonymity set.
	Candidates []phl.UserID
	// Identified is true when the candidate set is exactly the issuer
	// (Score), or holds one user (Attack and AttackSeries).
	Identified bool
}

// Report aggregates an attack over all groups.
type Report struct {
	Groups []GroupReport
}

// IdentifiedGroups counts the groups pinned to a single candidate.
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

// CandidateUsers returns the users LT-consistent with every request in
// the set — the attacker's anonymity set for that linked series.
func (a *Attacker) CandidateUsers(reqs []*wire.Request) []phl.UserID {
	boxes := Contexts(reqs)
	return anon.HistoricalAnonymitySet(a.Knowledge, boxes)
}

// Attack groups the provider's log and attacks each group. Grouping uses
// the configured linker at threshold Theta; with a nil linker, groups
// are exactly the pseudonyms.
func (a *Attacker) Attack(p *Provider) Report {
	reqs := p.Requests()
	var groups [][]*wire.Request
	if a.Linker == nil {
		by := map[wire.Pseudonym][]*wire.Request{}
		var order []wire.Pseudonym
		for _, r := range reqs {
			if _, ok := by[r.Pseudonym]; !ok {
				order = append(order, r.Pseudonym)
			}
			by[r.Pseudonym] = append(by[r.Pseudonym], r)
		}
		for _, ps := range order {
			groups = append(groups, by[ps])
		}
	} else {
		groups = link.Components(reqs, a.Linker, a.Theta)
	}

	var rep Report
	for _, g := range groups {
		rep.Groups = append(rep.Groups, a.AttackSeries(g))
	}
	return rep
}

// AttackSeries attacks one already-linked request series and returns its
// report.
func (a *Attacker) AttackSeries(reqs []*wire.Request) GroupReport {
	cands := a.CandidateUsers(reqs)
	return GroupReport{
		Pseudonyms: pseudonymsOf(reqs),
		Requests:   len(reqs),
		Candidates: cands,
		Identified: len(cands) == 1,
	}
}

// Contexts returns the requests' context boxes, in order: the series
// as the LT-consistency attack reads it.
func Contexts(reqs []*wire.Request) []geo.STBox {
	boxes := make([]geo.STBox, 0, len(reqs))
	for _, r := range reqs {
		boxes = append(boxes, r.Context)
	}
	return boxes
}

func pseudonymsOf(reqs []*wire.Request) []wire.Pseudonym {
	seen := map[wire.Pseudonym]bool{}
	var out []wire.Pseudonym
	for _, r := range reqs {
		if !seen[r.Pseudonym] {
			seen[r.Pseudonym] = true
			out = append(out, r.Pseudonym)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
