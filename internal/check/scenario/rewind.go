package scenario

import (
	"errors"
	"fmt"

	"ghost"
	"ghost/internal/sim"
)

// Time-travel repro (DESIGN.md §3j): a checked run can take periodic
// snapshots at quiescent barriers (ghost.WithSnapshotEvery), and a
// failing scenario then rewinds from the last checkpoint before its
// first violation (ghost.Restore) instead of replaying the whole
// history — `ghost-check -repro ... -snapshot-every` reports how many
// events the rewind replayed versus skipped.
//
// Restore attaches the oracles fresh after the overlay (they must not
// observe the construction-time noise it erases), so invariants whose
// evidence predates the checkpoint — a double latch opened before it, a
// message dropped before it — are checked only from the checkpoint
// forward. The rewind reproduces the violation itself because the
// restored machine's forward history is byte-identical. The seeded
// mutation rides in the snapshot.

// SnapshotCapable reports whether the scenario stays inside the v1
// snapshot envelope; when it does not, reason names the first blocker
// (the checkpoint loop would skip every boundary).
func (s Scenario) SnapshotCapable() (bool, string) {
	if s.FaultSpec != "" {
		return false, "fault plans schedule closure events"
	}
	switch s.Policy {
	case "search", "coresched":
		return false, fmt.Sprintf("policy %q has no snapshot capability", s.Policy)
	}
	return true, ""
}

// CheckpointedResult is a scenario run that carried periodic snapshots.
type CheckpointedResult struct {
	Result      *Result
	Checkpoints []*ghost.Snapshot
	// Skipped lists the boundaries where the machine state fell outside
	// the snapshot envelope, so no checkpoint was taken.
	Skipped       []sim.Time
	FinalExecuted uint64
}

// RunWithCheckpoints executes the scenario like Run, additionally taking
// an in-memory snapshot at every multiple of `every` simulated time
// before the horizon (0 defaults to a quarter of the horizon). The run
// itself is byte-identical to Run — snapshots are read-only.
func (s Scenario) RunWithCheckpoints(every sim.Duration) *CheckpointedResult {
	if every <= 0 {
		every = s.Horizon / 4
	}
	if every <= 0 {
		every = sim.Millisecond
	}
	m := s.build(ghost.WithSnapshotEvery(every))
	m.Run(s.Horizon)
	m.Shutdown()
	cr := &CheckpointedResult{
		Result:        &Result{Scenario: s, Violations: m.Invariants().Violations()},
		FinalExecuted: m.Metrics().EngineEvents,
	}
	// The horizon ends the run; a snapshot there is no rewind point.
	taken := m.Checkpoints()
	for at := sim.Time(every); at < sim.Time(s.Horizon); at += sim.Time(every) {
		if len(taken) > 0 && taken[0].Time() == at {
			cr.Checkpoints = append(cr.Checkpoints, taken[0])
			taken = taken[1:]
			continue
		}
		cr.Skipped = append(cr.Skipped, at)
	}
	return cr
}

// RewindReport describes one time-travel reproduction: the run resumed
// From a checkpoint, Replayed that many events to the horizon, and
// skipped the Skipped events before the checkpoint.
type RewindReport struct {
	From     sim.Time
	Replayed uint64
	Skipped  uint64
	Result   *Result
}

// Rewind reproduces a failing checkpointed run from the last checkpoint
// at or before its first violation.
func Rewind(s Scenario, cr *CheckpointedResult) (*RewindReport, error) {
	if !cr.Result.Failed() {
		return nil, errors.New("check: nothing to rewind from: the run had no violations")
	}
	best := cr.CheckpointBefore(cr.Result.Violations[0].Time)
	if best == nil {
		return nil, fmt.Errorf("check: no checkpoint at or before the first violation (t=%v)",
			cr.Result.Violations[0].Time)
	}
	return RewindFrom(s, best)
}

// CheckpointBefore returns the latest checkpoint taken at or before t,
// nil if none — the rewind point for a violation observed at t.
func (cr *CheckpointedResult) CheckpointBefore(t sim.Time) *ghost.Snapshot {
	var best *ghost.Snapshot
	for _, ckpt := range cr.Checkpoints {
		if ckpt.Time() <= t && (best == nil || ckpt.Time() > best.Time()) {
			best = ckpt
		}
	}
	return best
}

// RewindFrom resumes the scenario from a checkpoint — one taken by
// RunWithCheckpoints in this process or read from a .snap file a
// previous `ghost-check -snapshot-every` run wrote — and checks the
// remaining horizon under fresh oracles. The checkpoint carries the
// machine's topology and seeded mutation, so a scenario naming other
// ones is an error rather than a report over a different machine.
func RewindFrom(s Scenario, snap *ghost.Snapshot) (*RewindReport, error) {
	at := snap.Time()
	if sim.Duration(at) >= s.Horizon {
		return nil, fmt.Errorf("check: checkpoint t=%v is at or past the scenario horizon %v", at, s.Horizon)
	}
	m, err := ghost.Restore(snap, ghost.WithInvariants())
	if err != nil {
		return nil, fmt.Errorf("check: rewind restore: %w", err)
	}
	if n := m.Topology().NumCPUs(); n != s.CPUs {
		m.Shutdown()
		return nil, fmt.Errorf("check: repro cpus=%d does not match the checkpoint's %d CPUs", s.CPUs, n)
	}
	if mut := mutations(s.Mutation); m.Ghost.Mut != mut {
		m.Shutdown()
		return nil, fmt.Errorf("check: repro mutate=%q does not match the checkpoint's seeded mutation %+v", s.Mutation, m.Ghost.Mut)
	}
	s.setLostThreshold(m.Invariants())
	skipped := m.Metrics().EngineEvents
	m.Run(s.Horizon - sim.Duration(at))
	m.Shutdown()
	return &RewindReport{
		From:     at,
		Replayed: m.Metrics().EngineEvents - skipped,
		Skipped:  skipped,
		Result:   &Result{Scenario: s, Violations: m.Invariants().Violations()},
	}, nil
}
