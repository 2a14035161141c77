package ts

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// event is one kind of trusted-server pipeline event: a slot in Counters
// and one series of the histanon_ts_events_total family.
type event int

// The events in exposition order. finish counts the per-request ones;
// unlink, rotate and DeliverResponse count the rest where they happen.
const (
	evRequests event = iota
	evForwarded
	evGeneralized
	evHKFailures
	evUnlinkings
	evAtRisk
	evSuppressed
	evDegraded
	evExposures
	evOndemandZones
	evUnlinkFailures
	evResponses
	evResponsesUnroutable
	numEvents
)

// eventNames are the events' label values; scripts/checkobsdocs.sh
// holds them equal to OBSERVABILITY.md's event table.
var eventNames = [numEvents]string{
	"requests", "forwarded", "generalized", "hk_failures", "unlinkings",
	"at_risk", "suppressed", "degraded", "exposures", "ondemand_zones",
	"unlink_failures", "responses", "responses_unroutable",
}

// Counters holds the server's event counters: one atomic per event, so
// counting takes no lock. It is safe for concurrent use.
type Counters struct {
	n [numEvents]atomic.Int64
}

func (c *Counters) inc(e event) { c.n[e].Add(1) }

func (c *Counters) incIf(e event, cond bool) {
	if cond {
		c.n[e].Add(1)
	}
}

// Get returns the named event's count, or zero for a name the server
// does not count.
func (c *Counters) Get(name string) int64 {
	for e, n := range eventNames {
		if n == name {
			return c.n[e].Load()
		}
	}
	return 0
}

// Names returns the names of the events counted at least once, in
// sorted order.
func (c *Counters) Names() []string {
	var out []string
	for e, n := range eventNames {
		if c.n[e].Load() != 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// String renders "a=1 b=2 …" over Names, in name order.
func (c *Counters) String() string {
	var b strings.Builder
	for i, name := range c.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, c.Get(name))
	}
	return b.String()
}
