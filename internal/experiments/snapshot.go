package experiments

import (
	"fmt"

	"ghost"

	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/snap"
)

// The fig5 yield-looper is registered as a resumable body so the fig5
// driver can run the snapshot smoke (Options.SnapshotEvery): snapshot a
// warmed machine, restore it, and require the restored machine's
// forward digest to match the original run's byte-for-byte.

func init() {
	snap.RegisterBody("experiments.fig5-looper", func(_ *snap.RestoreCtx, rec kernel.BodyRec, _ *sim.Rand, res snap.Resume) (kernel.ThreadFunc, error) {
		if len(rec.Args) != 1 {
			return nil, fmt.Errorf("fig5-looper wants 1 arg, got %d", len(rec.Args))
		}
		return fig5Looper(sim.Duration(rec.Args[0]), res.InRun), nil
	})
}

// fig5Looper is the fig5 workload body: one transaction is work worth of
// CPU followed by a yield. inRun, its resume state, rebuilds a looper
// that a snapshot caught mid-transaction: the overlay restores the
// remaining work, and the yield comes next.
func fig5Looper(work sim.Duration, inRun bool) kernel.ThreadFunc {
	return func(tc *kernel.TaskContext) kernel.Op {
		inRun = !inRun
		if inRun {
			return tc.Run(work)
		}
		return tc.Yield()
	}
}

// fig5SnapshotSmoke verifies restore transparency on a live experiment
// machine: snapshot m at the current quiescent barrier, run the original
// to until, restore the snapshot into a second machine and run it to the
// same time, then compare the two core digests. A mismatch is a
// determinism bug, not a measurement artifact — fail loudly.
func fig5SnapshotSmoke(m *machine, until sim.Time) {
	s, err := m.m.Snapshot()
	if err != nil {
		panic(fmt.Sprintf("experiments: fig5 snapshot smoke: %v", err))
	}
	m.m.RunUntil(until)
	want, err := m.m.Snapshot()
	if err != nil {
		panic(fmt.Sprintf("experiments: fig5 snapshot smoke: %v", err))
	}
	restored, err := ghost.Restore(s)
	if err != nil {
		panic(fmt.Sprintf("experiments: fig5 snapshot smoke: restore: %v", err))
	}
	defer restored.Shutdown()
	restored.RunUntil(until)
	got, err := restored.Snapshot()
	if err != nil {
		panic(fmt.Sprintf("experiments: fig5 snapshot smoke: %v", err))
	}
	if got.Digest() != want.Digest() {
		panic(fmt.Sprintf("experiments: fig5 snapshot smoke: restore diverged at t=%v:\noriginal %s\nrestored %s",
			until, want.Digest(), got.Digest()))
	}
}
