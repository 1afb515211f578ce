package check

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ghost/internal/sim"
)

// TestCleanSeedsNoFalsePositives runs a spread of generated scenarios
// with no seeded bug: the oracles must stay silent (fault injection is
// part of the protocol, not a violation of it).
func TestCleanSeedsNoFalsePositives(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		s := Generate(seed)
		res := s.Run()
		if res.Failed() {
			t.Errorf("seed %d (%s): unexpected violations:", seed, s.Repro())
			for _, v := range res.Violations {
				t.Errorf("  %s", v)
			}
		}
	}
}

// TestGenerateDeterministic pins that scenario generation depends only
// on the seed.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a != b {
			t.Fatalf("seed %d: Generate not deterministic:\n  %+v\n  %+v", seed, a, b)
		}
	}
}

// TestRunDeterministic pins that running the same scenario twice yields
// identical violation lists (byte-identical repro requirement).
func TestRunDeterministic(t *testing.T) {
	for _, seed := range []uint64{3, 7, 11} {
		s := Generate(seed)
		s.Mutation = "double-latch" // force activity in the violation path too
		a, b := s.Run(), s.Run()
		if !reflect.DeepEqual(violationStrings(a), violationStrings(b)) {
			t.Fatalf("seed %d: Run not deterministic:\n  %v\n  %v",
				seed, violationStrings(a), violationStrings(b))
		}
	}
}

func violationStrings(r *Result) []string {
	out := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		out[i] = v.String()
	}
	return out
}

// TestParseReproLegacyShards: repro strings printed while a machine
// could be split over several event queues carry shards=N. ParseRepro
// still accepts them, validates the count and ignores it, so each one
// names exactly the scenario of the same string without it (and so
// reproduces it); Repro no longer prints the field.
func TestParseReproLegacyShards(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		s := Generate(seed)
		if seed%2 == 0 {
			s.Mutation = MutationNames()[int(seed/2)%len(MutationNames())]
		}
		for _, n := range []int{2, 4} {
			legacy := fmt.Sprintf("%s shards=%d", s.Repro(), n)
			got, err := ParseRepro(legacy)
			if err != nil {
				t.Fatalf("ParseRepro(%q): %v", legacy, err)
			}
			if got != s {
				t.Fatalf("ParseRepro(%q) = %+v, want %+v", legacy, got, s)
			}
			if strings.Contains(got.Repro(), "shards=") {
				t.Fatalf("Repro() = %q still prints shards=", got.Repro())
			}
		}
	}
	if _, err := ParseRepro("seed=1 policy=cfs shards=two"); err == nil {
		t.Fatal(`ParseRepro accepted "shards=two"`)
	}
}

// TestReproRoundTrip pins Repro/ParseRepro as a lossless pair: parsing a
// rendered scenario yields the same scenario, and re-rendering yields
// the same bytes.
func TestReproRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		s := Generate(seed)
		if seed%3 == 0 {
			s.Mutation = MutationNames()[int(seed)%len(MutationNames())]
		}
		spec := s.Repro()
		got, err := ParseRepro(spec)
		if err != nil {
			t.Fatalf("seed %d: ParseRepro(%q): %v", seed, spec, err)
		}
		if got != s {
			t.Fatalf("seed %d: round-trip mismatch:\n  in:  %+v\n  out: %+v", seed, s, got)
		}
		if got.Repro() != spec {
			t.Fatalf("seed %d: re-render mismatch:\n  %q\n  %q", seed, spec, got.Repro())
		}
	}
}

// TestReproExactDurations: a duration the rounded engineering units
// cannot spell (1000500ns would print as a 1.00xms) is rendered in
// nanoseconds, so the repro string names the same scenario.
func TestReproExactDurations(t *testing.T) {
	s, err := ParseRepro("seed=1 policy=shinjuku horizon=1000500ns watchdog=2500001ns")
	if err != nil {
		t.Fatal(err)
	}
	want := "seed=1 policy=shinjuku cpus=2 threads=2 horizon=1000500ns watchdog=2500001ns"
	if got := s.Repro(); got != want {
		t.Fatalf("Repro() = %q, want %q", got, want)
	}
	if back, err := ParseRepro(s.Repro()); err != nil || back != s {
		t.Fatalf("ParseRepro(Repro()) = %+v, %v; want %+v", back, err, s)
	}
	s.Horizon = 25 * sim.Millisecond
	if got := s.Repro(); !strings.Contains(got, " horizon=25.000ms ") {
		t.Fatalf("Repro() = %q: a whole-microsecond horizon left engineering units", got)
	}
}

func TestParseReproErrors(t *testing.T) {
	for _, bad := range []string{
		"seed=1",                         // missing policy
		"policy=nope seed=1",             // unknown policy
		"policy=shinjuku seed=x",         // bad seed
		"policy=shinjuku mutate=nope",    // unknown mutation
		"policy=shinjuku faults=zap@1ms", // bad fault kind
		"policy=shinjuku horizon=fast",   // bad duration
		"garbage",                        // no key=value
		"policy=shinjuku color=red",      // unknown key
		"policy=shinjuku horizon=-5ms",   // negative horizon
		"policy=shinjuku horizon=0s",     // empty run
		"policy=shinjuku watchdog=-1ms",  // negative watchdog
		"policy=shinjuku cpus=3",         // not SMT pairs
		"policy=shinjuku cpus=0",         // no machine
		"policy=shinjuku threads=0",      // no workload
	} {
		if _, err := ParseRepro(bad); err == nil {
			t.Errorf("ParseRepro(%q): expected error, got nil", bad)
		}
	}
}
