// Command ghost-check is the property-based invariant checker for the
// ghOSt protocol: it generates seed-deterministic random scenarios
// (policies, thread mixes, topologies, fault plans), runs each one on a
// ghost.Machine with the internal/check oracles attached
// (internal/check/scenario), and on a violation shrinks the scenario to
// a minimal repro.
//
// Usage:
//
//	ghost-check -seeds 500 -parallel 8     # scan seeds 1..500
//	ghost-check -quick -seeds 25           # CI smoke configuration
//	ghost-check -repro "seed=7 policy=shinjuku cpus=4 threads=6 horizon=20.000ms"
//	ghost-check -seed 42 -mutate skip-tseq # run one seed with a seeded bug
//
// Exit status is 1 if any invariant was violated, 0 otherwise.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ghost"
	"ghost/internal/check/scenario"
	"ghost/internal/cli"
	"ghost/internal/experiments"
	"ghost/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args and returns the exit status instead of calling
// os.Exit inline, so the deferred -cpuprofile/-memprofile stop function
// always runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ghost-check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		c        cli.Common
		repro    = fs.String("repro", "", `run one scenario from a repro string, e.g. "seed=7 policy=shinjuku cpus=4 threads=6 horizon=20.000ms"`)
		mutate   = fs.String("mutate", "", "seed an intentional protocol bug: "+strings.Join(scenario.MutationNames(), ", "))
		noShrink = fs.Bool("noshrink", false, "report the first failing scenario without shrinking it")
		verbose  = fs.Bool("v", false, "print every scenario as it is checked")
	)
	c.SeedFlag(fs, 1)
	c.SeedsFlag(fs, 100, "scenarios")
	c.ParallelFlag(fs)
	c.QuickFlag(fs, "halve every scenario horizon (CI smoke mode)")
	c.SnapshotFlags(fs)
	c.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	w := report{out: stdout, err: stderr}

	if (c.SnapshotEvery > 0 || c.Restore != "") && *repro == "" {
		fmt.Fprintln(w.err, "ghost-check: -snapshot-every/-restore need a single scenario; use -repro")
		return 2
	}

	if *mutate != "" && !contains(scenario.MutationNames(), *mutate) {
		fmt.Fprintf(w.err, "ghost-check: unknown mutation %q (want one of %s)\n",
			*mutate, strings.Join(scenario.MutationNames(), ", "))
		return 2
	}

	stop, err := c.StartProfiles()
	if err != nil {
		fmt.Fprintln(w.err, "ghost-check:", err)
		return 2
	}
	defer stop()

	if *repro != "" {
		s, err := scenario.ParseRepro(*repro)
		if err != nil {
			fmt.Fprintln(w.err, "ghost-check:", err)
			return 2
		}
		if *mutate != "" {
			s.Mutation = *mutate
		}
		if c.Restore != "" {
			return w.reproFromFile(s, c.Restore)
		}
		if c.SnapshotEvery > 0 {
			return w.reproWithRewind(s, sim.Duration(c.SnapshotEvery))
		}
		return w.reportScenario(s.Run())
	}

	jobs := make([]experiments.Job, c.Seeds)
	for i := range jobs {
		s := scenario.Generate(c.Seed + uint64(i))
		if c.Quick {
			if s.Horizon /= 2; s.Horizon < 5*sim.Millisecond {
				s.Horizon = 5 * sim.Millisecond
			}
		}
		s.Mutation = *mutate
		jobs[i] = experiments.Job{
			Name: s.Repro(),
			Seed: s.Seed,
			Run:  func() any { return s.Run() },
		}
	}
	results := experiments.RunJobs(c.Parallel, jobs)

	failures := 0
	for _, r := range results {
		res := r.(*scenario.Result)
		if *verbose {
			fmt.Fprintf(w.out, "checked %s: %d violations\n", res.Scenario.Repro(), len(res.Violations))
		}
		if !res.Failed() {
			continue
		}
		failures++
		if failures > 1 {
			// Report every failing seed but only shrink the first.
			fmt.Fprintf(w.out, "\nFAIL %s (%d violations)\n", res.Scenario.Repro(), len(res.Violations))
			continue
		}
		w.reportFailure(res, !*noShrink)
	}
	if failures > 0 {
		fmt.Fprintf(w.out, "\nghost-check: %d/%d scenarios violated invariants\n", failures, len(jobs))
		return 1
	}
	fmt.Fprintf(w.out, "ghost-check: %d scenarios OK (seeds %d..%d)\n", len(jobs), c.Seed, c.Seed+uint64(c.Seeds)-1)
	return 0
}

// reproWithRewind runs a repro scenario with periodic checkpoints and,
// if it fails, rewinds from the last checkpoint before the first
// violation, reporting how many events the rewind replayed versus
// skipped. The rewind checkpoint is written to a .snap file so a later
// `-restore FILE` resumes from it directly.
func (w report) reproWithRewind(s scenario.Scenario, every sim.Duration) int {
	if ok, why := s.SnapshotCapable(); !ok {
		fmt.Fprintf(w.err, "ghost-check: scenario is not snapshot-capable (%s); running without checkpoints\n", why)
		return w.reportScenario(s.Run())
	}
	cr := s.RunWithCheckpoints(every)
	if n := len(cr.Skipped); n > 0 {
		fmt.Fprintf(w.err, "ghost-check: %d checkpoint boundaries skipped (first at t=%v: the machine was outside the snapshot envelope)\n",
			n, cr.Skipped[0])
	}
	if !cr.Result.Failed() {
		fmt.Fprintf(w.out, "ghost-check: OK: %s (%d checkpoints, %d events)\n",
			s.Repro(), len(cr.Checkpoints), cr.FinalExecuted)
		return 0
	}
	w.reportFailure(cr.Result, false)
	rep, err := scenario.Rewind(s, cr)
	if err != nil {
		fmt.Fprintln(w.err, "ghost-check: rewind:", err)
		return 1
	}
	fmt.Fprintf(w.out, "rewind: from checkpoint t=%v replayed %d events, skipped %d (t=0 re-run executes %d)\n",
		rep.From, rep.Replayed, rep.Skipped, cr.FinalExecuted)
	if rep.Result.Failed() {
		fmt.Fprintf(w.out, "rewind: reproduced %d violations\n", len(rep.Result.Violations))
	} else {
		fmt.Fprintf(w.out, "rewind: no violations after the checkpoint (evidence predates it; rewind from an earlier checkpoint)\n")
	}
	if best := cr.CheckpointBefore(cr.Result.Violations[0].Time); best != nil {
		file := fmt.Sprintf("ghost-check-rewind-seed%d.snap", s.Seed)
		if err := writeSnapshot(file, best); err != nil {
			fmt.Fprintln(w.err, "ghost-check:", err)
		} else {
			fmt.Fprintf(w.out, "rewind: checkpoint saved to %s; resume it with\n  ghost-check -repro %q -restore %s\n",
				file, s.Repro(), file)
		}
	}
	return 1
}

// reproFromFile rewinds a repro scenario from an on-disk checkpoint
// written by an earlier -snapshot-every run.
func (w report) reproFromFile(s scenario.Scenario, file string) int {
	f, err := os.Open(file)
	if err != nil {
		fmt.Fprintln(w.err, "ghost-check:", err)
		return 2
	}
	snapshot, err := ghost.ReadSnapshot(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(w.err, "ghost-check: %s: %v\n", file, err)
		return 2
	}
	rep, err := scenario.RewindFrom(s, snapshot)
	if err != nil {
		fmt.Fprintln(w.err, "ghost-check:", err)
		return 2
	}
	fmt.Fprintf(w.out, "rewind: from %s (t=%v) replayed %d events, skipped %d\n",
		file, rep.From, rep.Replayed, rep.Skipped)
	return w.reportScenario(rep.Result)
}

// writeSnapshot writes a checkpoint to a .snap file.
func writeSnapshot(file string, s *ghost.Snapshot) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if _, err := s.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report carries the command's output streams to the reporting helpers.
type report struct{ out, err io.Writer }

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// reportScenario prints one result and returns the exit status.
func (w report) reportScenario(res *scenario.Result) int {
	if !res.Failed() {
		fmt.Fprintf(w.out, "ghost-check: OK: %s\n", res.Scenario.Repro())
		return 0
	}
	w.reportFailure(res, false)
	return 1
}

// reportFailure prints a failing scenario's violations and, when asked,
// shrinks it to a minimal repro.
func (w report) reportFailure(res *scenario.Result, shrink bool) {
	fmt.Fprintf(w.out, "\nFAIL %s\n", res.Scenario.Repro())
	for _, v := range res.Violations {
		fmt.Fprintf(w.out, "  %s\n", v)
	}
	if !shrink {
		return
	}
	fmt.Fprintf(w.out, "shrinking...\n")
	small, sres := scenario.Shrink(res.Scenario)
	fmt.Fprintf(w.out, "minimal repro (%d violations, %d threads, %d fault ops):\n",
		len(sres.Violations), small.Threads, small.FaultOps())
	fmt.Fprintf(w.out, "  ghost-check -repro %q\n", small.Repro())
	for _, v := range sres.Violations {
		fmt.Fprintf(w.out, "  %s\n", v)
	}
}
