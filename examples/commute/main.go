// Commute: the paper's running example end to end. A city of commuters,
// the Example-2 LBQID ("home [7-8am] → office [8-9am] → office [4-6pm]
// → home [5-7pm], 3 weekdays a week for 2 weeks"), and a trusted server
// that keeps the pattern historically k-anonymous over two simulated
// weeks.
//
// Run with:
//
//	go run ./examples/commute
package main

import (
	"fmt"

	"histanon/internal/anon"
	"histanon/internal/sim"
	"histanon/internal/ts"
)

func main() {
	cfg := sim.DefaultScenario()
	cfg.Mobility.Users = 100
	cfg.Mobility.Days = 14
	cfg.Policy = ts.Policy{K: 5}

	fmt.Println("simulating 100 users for 14 days; commuters carry the Example-2 LBQID...")
	res := sim.Run(cfg)

	fmt.Printf("events: %d, service requests: %d\n", len(res.World.Events), len(res.Requests))
	fmt.Printf("TS counters: %s\n", res.Server.Counters)

	// Report the first commuter, in user order, whose quasi-identifier
	// was fully matched.
	series := res.ExposedSeries()
	fmt.Printf("\n%d users completed their LBQID (2 weeks x 3 weekdays of commuting)\n", len(series))

	if len(series) > 0 {
		s := series[0]
		level := anon.HistoricalLevel(res.Server.Store(), s.Issuer, s.Boxes)
		fmt.Printf("\nuser %v: %d generalized requests under one pseudonym\n", s.Issuer, len(s.Boxes))
		fmt.Printf("  first forwarded context: %s\n", s.Boxes[0])
		fmt.Printf("  historical anonymity level of the whole series: %d (policy k=%d)\n",
			level, cfg.Policy.K)
		if level >= cfg.Policy.K {
			fmt.Println("  ✓ even knowing everyone's true movements, the service provider")
			fmt.Printf("    cannot narrow this commute pattern below %d candidates\n", level)
		}
	}

	area, interval := res.GeneralizedStats()
	fmt.Printf("\nQoS cost of k=%d: mean cloak %.2f km^2, mean window %.0f s\n",
		cfg.Policy.K, area.Mean()/1e6, interval.Mean())
}
