// Throughput workload (E11 bench family): a trusted server preloaded
// with a small crowd and one commute LBQID per client user, and the
// request that drives it down the full monitor → generalize → forward
// pipeline. bench_test.go's E11, E-obs and E-slo benchmarks run it, as
// do the tail-tracing allocation guard and internal/slo's differential
// tests.

package sim

import (
	"fmt"
	"math/rand"

	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/tgran"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// ThroughputClients is the number of distinct client users (each with
// its own LBQID) the throughput workload draws from; worker goroutine
// counts beyond this share users.
const ThroughputClients = 8

// NewThroughputServer builds a TS preloaded with a 60-user crowd and
// one matching commute LBQID per client user, so every benchmark
// request runs the full monitor → generalize → forward pipeline.
func NewThroughputServer(clients int) *ts.Server {
	server := ts.New(ts.Config{
		DefaultPolicy: ts.Policy{K: 5},
		Services: map[string]ts.ServiceSpec{
			"navigation": {Name: "navigation", Tolerance: generalize.Unlimited},
		},
	}, ts.OutboxFunc(func(*wire.Request) {}))
	for c := 0; c < clients; c++ {
		err := server.AddLBQIDSpec(phl.UserID(c), fmt.Sprintf(`
lbqid "commute%d" {
    element area [0,400]x[0,400] time [06:00,10:00]
    recurrence 1.Days
}`, c))
		if err != nil {
			panic(err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for u := phl.UserID(1000); u < 1060; u++ {
		for d := int64(0); d < 5; d++ {
			server.RecordLocation(u, geo.STPoint{
				P: geo.Point{X: rng.Float64() * 400, Y: rng.Float64() * 400},
				T: d*tgran.Day + 7*tgran.Hour + int64(rng.Intn(7200)),
			})
		}
	}
	return server
}

// ThroughputRequest issues the i-th benchmark request for user u: a
// point inside the user's LBQID window, so the request is monitored,
// generalized and forwarded. The timestamp is monotone in i (the day
// advances every 3600 requests) so the user's history grows by
// amortized-O(1) appends rather than O(n) mid-slice inserts.
func ThroughputRequest(s *ts.Server, u phl.UserID, i int) {
	t := int64(i/3600)*tgran.Day + 7*tgran.Hour + int64(i%3600)
	s.Request(u, geo.STPoint{P: geo.Point{X: 200, Y: 200}, T: t}, "navigation", nil)
}
