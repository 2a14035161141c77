// Command lbsim runs one end-to-end scenario — synthetic city, trusted
// server, adversarial service provider — and prints a privacy/QoS
// report.
//
// Usage:
//
//	lbsim -users 120 -days 14 -k 5 -tolerance 1000 -window 900
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"histanon/internal/generalize"
	"histanon/internal/sim"
	"histanon/internal/ts"
)

func main() {
	var (
		users     = flag.Int("users", 120, "city population")
		days      = flag.Int("days", 14, "simulated days (starting on a Monday)")
		k         = flag.Int("k", 5, "historical anonymity value")
		initial   = flag.Int("kprime", 0, "initial witness over-provisioning k' (0 = k)")
		tolerance = flag.Float64("tolerance", 0, "service tolerance: max cloak side in meters (0 = unlimited)")
		window    = flag.Int64("window", 0, "service tolerance: max cloak window in seconds (0 = unlimited)")
		seed      = flag.Int64("seed", 1, "workload seed")
		track     = flag.Bool("lbqids", true, "attach commute LBQIDs to commuters")
	)
	flag.Parse()

	cfg := sim.DefaultScenario()
	cfg.Mobility.Users = *users
	cfg.Mobility.Days = *days
	cfg.Mobility.Seed = *seed
	cfg.TrackLBQIDs = *track
	cfg.Policy = ts.Policy{K: *k}
	if *initial > *k {
		cfg.Policy.Decay = generalize.DecaySchedule{Target: *k, Initial: *initial, Step: 1}
	}
	if *tolerance > 0 || *window > 0 {
		cfg.Tolerance = generalize.Tolerance{
			MaxWidth: *tolerance, MaxHeight: *tolerance, MaxDuration: *window,
		}
	}

	res := sim.Run(cfg)

	fmt.Printf("scenario: %d users, %d days, k=%d, seed=%d\n",
		*users, *days, *k, *seed)
	fmt.Printf("events: %d (requests: %d)\n", len(res.World.Events), len(res.Requests))
	fmt.Printf("counters: %s\n", res.Server.Counters)
	area, interval := res.GeneralizedStats()
	if area.N() > 0 {
		fmt.Printf("generalized area (km^2): mean=%.3f p95=%.3f\n",
			area.Mean()/1e6, area.Quantile(0.95)/1e6)
		fmt.Printf("generalized window (s): mean=%.0f p95=%.0f\n",
			interval.Mean(), interval.Quantile(0.95))
	}
	if fr := res.FailureRate(); !math.IsNaN(fr) {
		fmt.Printf("generalization failure rate: %.2f%%\n", 100*fr)
	}
	fmt.Printf("unlinkings per user-day: %.4f\n", res.UnlinkingsPerUserDay())

	if exposed := res.AttackExposed(); len(exposed.Groups) > 0 {
		minAS, ident := exposed.MinAnonymity(), exposed.IdentifiedGroups()
		fmt.Printf("exposed LBQID series: %d users, min |AS|=%d, identified=%d (Theorem 1 expects min >= k and 0 identified)\n",
			len(exposed.Groups), minAS, ident)
		if minAS < *k || ident > 0 {
			fmt.Fprintln(os.Stderr, "WARNING: historical k-anonymity violated for some series")
			os.Exit(1)
		}
	}
}
