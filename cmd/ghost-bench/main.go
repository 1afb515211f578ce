// Command ghost-bench regenerates the tables and figures of the ghOSt
// paper's evaluation (§4) from the simulator.
//
// Usage:
//
//	ghost-bench -list
//	ghost-bench -exp fig6a
//	ghost-bench -exp all -quick
//	ghost-bench -exp fig8-ablation -parallel 4
//	ghost-bench -exp fig5 -quick -snapshot-every 5ms  # restore-transparency smoke
//	ghost-bench -diff BENCH_old.json BENCH_new.json
//
// Each experiment prints an aligned text table with the paper's numbers
// alongside the measured ones, plus notes on the expected shape. The
// -diff mode compares two scripts/bench.sh recordings and fails on
// per-benchmark regressions beyond the built-in thresholds.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ghost/internal/cli"
	"ghost/internal/experiments"
	"ghost/internal/sim"
)

func main() { os.Exit(realMain()) }

// realMain carries the exit status back to main so deferred cleanup —
// notably the -cpuprofile/-memprofile stop function — runs on every
// path before the process exits.
func realMain() int {
	var (
		c    cli.Common
		exp  = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list = flag.Bool("list", false, "list available experiments")
		diff = flag.Bool("diff", false, "compare two scripts/bench.sh JSON recordings: ghost-bench -diff old.json new.json")
	)
	c.SeedFlag(flag.CommandLine, 1)
	c.ParallelFlag(flag.CommandLine)
	c.QuickFlag(flag.CommandLine, "shrink durations/sweeps for a fast pass")
	c.SnapshotFlags(flag.CommandLine)
	c.ProfileFlags(flag.CommandLine)
	flag.Parse()

	if c.Restore != "" {
		fmt.Fprintln(os.Stderr, "ghost-bench: experiments are generated, not restored; -restore belongs to ghost-sim/ghost-check")
		return 2
	}

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: ghost-bench -diff old.json new.json")
			return 2
		}
		return runDiff(flag.Arg(0), flag.Arg(1))
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return 0
	}
	var todo []experiments.Experiment
	if *exp == "all" {
		todo = experiments.All()
	} else {
		e := experiments.ByID(*exp)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			return 1
		}
		todo = []experiments.Experiment{*e}
	}

	stop, err := c.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghost-bench:", err)
		return 1
	}
	defer stop()

	opts := experiments.Options{
		Quick: c.Quick, Seed: c.Seed, Parallel: c.Parallel,
		SnapshotEvery: sim.Duration(c.SnapshotEvery),
	}
	for _, e := range todo {
		e := e
		// Label each experiment's samples so one -cpuprofile over -exp all
		// can still be sliced per figure (pprof -tagfocus experiment=...).
		cli.Labeled("experiment", e.ID, func() {
			start := time.Now()
			rep := e.Run(opts)
			fmt.Println(rep.String())
			fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		})
	}
	return 0
}
