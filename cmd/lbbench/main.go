// Command lbbench regenerates the experiment tables of EXPERIMENTS.md.
//
// Usage:
//
//	lbbench             # run the whole suite (E2..E8, E11..E14, E-comp-frontier)
//	lbbench -e E2,E6    # run selected experiments
//	lbbench -md         # emit GitHub-flavored markdown instead of text
//	lbbench -list       # list experiment ids and titles
//
// Every table it prints is deterministic and held to the document by
// TestExperimentTablesMatchDoc (internal/sim). Timings live elsewhere:
// microbenchmarks, E1, E9 and E10 among them, are `go test -bench`
// targets (bench_test.go and the packages' own), and end-to-end and
// per-layer figures come from the perfbench module
// (perfbench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"histanon/internal/sim"
)

func main() {
	var (
		ids      = flag.String("e", "", "comma-separated experiment ids (default: all)")
		markdown = flag.Bool("md", false, "render markdown tables")
		list     = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range sim.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []sim.Experiment
	if *ids == "" {
		selected = sim.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			id = strings.TrimSpace(id)
			e, ok := sim.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "lbbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		start := time.Now()
		table := e.Run()
		var err error
		if *markdown {
			err = table.Markdown(os.Stdout)
		} else {
			err = table.Render(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s took %.1fs]\n", e.ID, time.Since(start).Seconds())
	}
}
