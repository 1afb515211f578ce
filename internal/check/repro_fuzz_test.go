package check_test

import (
	"testing"

	"ghost/internal/check/scenario"
)

// FuzzParseRepro: whatever the string, ParseRepro never panics, and a
// scenario it accepts renders to a repro string that parses back to the
// same scenario. Seeds: the repro strings of the tests, scripts and
// docs, a generated and a shrunk-horizon scenario, and a legacy string
// that names a shard count.
func FuzzParseRepro(f *testing.F) {
	for _, seed := range []string{
		"seed=3 policy=central-fifo cpus=4 threads=9 horizon=25.000ms",
		"seed=3 policy=central-fifo cpus=4 threads=9 horizon=25.000ms shards=2",
		"seed=7 policy=shinjuku cpus=4 threads=6 horizon=20.000ms",
		"seed=7 policy=shinjuku cpus=2 threads=3 horizon=5ms",
		"seed=2 policy=percpu-fifo cpus=2 threads=3 horizon=5.000ms mutate=double-latch",
		"seed=1 policy=cfs shards=two",
		"policy=shinjuku faults=zap@1ms",
		"policy=shinjuku horizon=fast",
		"policy=shinjuku horizon=-5ms",
		"policy=shinjuku watchdog=-1ms",
		"policy=shinjuku horizon=1000500ns",
		scenario.Generate(11).Repro(),
		scenario.Generate(12).Repro() + " mutate=skip-tseq",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := scenario.ParseRepro(spec)
		if err != nil {
			return
		}
		back, err := scenario.ParseRepro(s.Repro())
		if err != nil {
			t.Fatalf("ParseRepro(%q) accepted, but its Repro %q fails: %v", spec, s.Repro(), err)
		}
		if back != s {
			t.Fatalf("ParseRepro(%q) = %+v; Repro %q parses to %+v", spec, s, s.Repro(), back)
		}
	})
}
