package check

import (
	"strings"

	"ghost/internal/sim"
)

// maxShrinkRuns bounds the total number of candidate re-executions so a
// pathological scenario cannot stall the shrinker.
const maxShrinkRuns = 200

// Shrink reduces a failing scenario to a smaller one that still fails,
// by deterministic bisection: at each step it tries, in a fixed order,
// halving the thread count, dropping one thread, removing each fault op,
// halving the horizon, halving the CPU count, and disabling the
// watchdog; the first candidate that still violates an invariant is
// adopted and the search restarts from it. The result is the fixpoint —
// no single reduction keeps it failing. Shrinking a given scenario is
// fully deterministic, so repro strings are byte-stable across reruns.
func Shrink(s Scenario) (Scenario, *Result) {
	best := s
	res := best.Run()
	if !res.Failed() {
		return best, res
	}
	runs := 0
	for runs < maxShrinkRuns {
		improved := false
		for _, cand := range shrinkCandidates(best) {
			if runs >= maxShrinkRuns {
				break
			}
			runs++
			if r := cand.Run(); r.Failed() {
				best, res = cand, r
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return best, res
}

// shrinkCandidates lists the one-step reductions of s, most aggressive
// first so the fixpoint is reached in few runs.
func shrinkCandidates(s Scenario) []Scenario {
	var out []Scenario
	add := func(c Scenario) { out = append(out, c) }

	if half := s.Threads / 2; half >= 1 && half < s.Threads {
		c := s
		c.Threads = half
		add(c)
	}
	if s.Threads > 1 {
		c := s
		c.Threads--
		add(c)
	}
	if s.FaultSpec != "" {
		ops := strings.Split(s.FaultSpec, ",")
		for i := range ops {
			rest := make([]string, 0, len(ops)-1)
			rest = append(rest, ops[:i]...)
			rest = append(rest, ops[i+1:]...)
			c := s
			c.FaultSpec = strings.Join(rest, ",")
			add(c)
		}
	}
	if s.Horizon > 5*sim.Millisecond {
		c := s
		c.Horizon = s.Horizon / 2
		if c.Horizon < 5*sim.Millisecond {
			c.Horizon = 5 * sim.Millisecond
		}
		add(c)
	}
	if s.CPUs > 2 {
		c := s
		c.CPUs = s.CPUs / 2
		add(c)
	}
	if s.Watchdog != 0 {
		c := s
		c.Watchdog = 0
		add(c)
	}
	return out
}
