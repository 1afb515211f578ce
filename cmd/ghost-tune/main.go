// Command ghost-tune searches policy tunables with seeded successive
// halving and prints a Pareto front (p99 latency vs throughput) per
// scenario in the ghost-bench report style.
//
// Usage:
//
//	ghost-tune -list
//	ghost-tune -scenario shinjuku-rocksdb
//	ghost-tune -scenario all -quick -parallel 8
//	ghost-tune -scenario fifo-snap -trials 9 -eta 3
//
// Output is deterministic: for a fixed -seed the report is
// byte-identical at any -parallel setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ghost/internal/cli"
	"ghost/internal/sim"
	"ghost/internal/tune"
)

func main() {
	var (
		c        cli.Common
		scenario = flag.String("scenario", "all", "scenario name (see -list) or 'all'")
		trials   = flag.Int("trials", 0, "rung-0 population (0 = 27, or 9 with -quick)")
		eta      = flag.Int("eta", 3, "successive-halving cull factor")
		list     = flag.Bool("list", false, "list available scenarios")
	)
	c.SeedFlag(flag.CommandLine, 1)
	c.ParallelFlag(flag.CommandLine)
	c.QuickFlag(flag.CommandLine, "shrink population and horizons for a fast pass")
	flag.Parse()

	if *list {
		for _, s := range tune.Scenarios() {
			fmt.Printf("%-18s %s\n", s.Name, s.Doc)
		}
		return
	}

	cfg := tune.Config{
		Trials:      *trials,
		Eta:         *eta,
		Seed:        c.Seed,
		Parallel:    c.Parallel,
		BaseHorizon: 20 * sim.Millisecond,
	}
	if c.Quick {
		cfg.BaseHorizon = 5 * sim.Millisecond
		if cfg.Trials == 0 {
			cfg.Trials = 9
		}
	}

	var selected []tune.Scenario
	if *scenario == "all" {
		selected = tune.Scenarios()
	} else {
		s, ok := tune.ByName(*scenario)
		if !ok {
			fmt.Fprintf(os.Stderr, "ghost-tune: unknown scenario %q (try -list)\n", *scenario)
			os.Exit(2)
		}
		selected = []tune.Scenario{s}
	}
	for _, s := range selected {
		start := time.Now()
		res := tune.Search(s, cfg)
		fmt.Println(res.Report(s).String())
		fmt.Printf("(%s completed in %v)\n\n", s.Name, time.Since(start).Round(time.Millisecond))
	}
}
