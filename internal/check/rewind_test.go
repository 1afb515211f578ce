package check

import (
	"reflect"
	"testing"
)

// The directed time-travel regression: a snapshot-capable scenario with a
// seeded protocol bug must (a) fail identically whether run plain or
// chunked with checkpoints, and (b) reproduce the failure from a rewind
// that replays strictly fewer events than a from-scratch re-run.
func TestRewindReproducesViolation(t *testing.T) {
	s := Generate(3)
	if ok, why := s.SnapshotCapable(); !ok {
		t.Fatalf("seed 3 fell outside the snapshot envelope (%s); pick a new directed seed", why)
	}
	s.Mutation = "drop-wakeup"

	cr := s.RunWithCheckpoints(s.Horizon / 8)
	if !cr.Result.Failed() {
		t.Fatal("mutated scenario did not fail; the directed case has rotted")
	}
	if cr.Skips > 0 {
		t.Fatalf("checkpoint skips on a capable scenario: %v", cr.SkipReasons)
	}
	if len(cr.Checkpoints) == 0 {
		t.Fatal("no checkpoints taken")
	}

	// Chunked execution with read-only snapshots must not perturb the run.
	plain := s.Run()
	if !reflect.DeepEqual(plain.Violations, cr.Result.Violations) {
		t.Fatalf("checkpointed run diverged from plain run:\nplain:  %v\nchunked: %v",
			plain.Violations, cr.Result.Violations)
	}

	rep, err := Rewind(s, cr)
	if err != nil {
		t.Fatalf("rewind: %v", err)
	}
	if !rep.Result.Failed() {
		t.Fatal("rewind did not reproduce a violation")
	}
	if rep.Replayed >= cr.FinalExecuted {
		t.Fatalf("rewind replayed %d events, not fewer than the full run's %d",
			rep.Replayed, cr.FinalExecuted)
	}
	// The restored machine's forward history is byte-identical, so the
	// rewind's replayed events plus the skipped prefix must account for
	// exactly the full run.
	if got := rep.Replayed + rep.Skipped; got != cr.FinalExecuted {
		t.Fatalf("replayed(%d) + skipped(%d) = %d, want %d: the rewound run diverged",
			rep.Replayed, rep.Skipped, got, cr.FinalExecuted)
	}
	if rep.From <= 0 || rep.From >= s.Horizon {
		t.Fatalf("implausible rewind point t=%v (horizon %v)", rep.From, s.Horizon)
	}
}

// A healthy capable scenario takes its checkpoints with zero skips and
// reports nothing to rewind from.
func TestCheckpointsOnPassingRun(t *testing.T) {
	s := Generate(3)
	cr := s.RunWithCheckpoints(s.Horizon / 4)
	if cr.Result.Failed() {
		t.Fatalf("unmutated seed 3 failed: %v", cr.Result.Violations)
	}
	if cr.Skips > 0 {
		t.Fatalf("skips on a capable scenario: %v", cr.SkipReasons)
	}
	if want := 3; len(cr.Checkpoints) != want {
		t.Fatalf("got %d checkpoints, want %d", len(cr.Checkpoints), want)
	}
	if _, err := Rewind(s, cr); err == nil {
		t.Fatal("Rewind on a passing run should error")
	}
}

func TestSnapshotCapableGates(t *testing.T) {
	s := Scenario{Policy: "central-fifo", FaultSpec: "crash@1ms"}
	if ok, why := s.SnapshotCapable(); ok || why == "" {
		t.Fatal("fault-injecting scenario must be snapshot-incapable with a reason")
	}
	s = Scenario{Policy: "search"}
	if ok, why := s.SnapshotCapable(); ok || why == "" {
		t.Fatal("search policy must be snapshot-incapable with a reason")
	}
	s = Scenario{Policy: "central-fifo"}
	if ok, why := s.SnapshotCapable(); !ok || why != "" {
		t.Fatalf("plain central-fifo should be capable, got %v %q", ok, why)
	}
}
