package ghostcore_test

import (
	"slices"
	"testing"

	"ghost"
)

// managedTIDs lists the threads enc's Threads() reports, checking that
// they are strictly TID-increasing and are exactly the live threads
// the kernel has in the ghOSt class (m has one enclave).
func managedTIDs(t *testing.T, m *ghost.Machine, enc *ghost.Enclave) []ghost.TID {
	t.Helper()
	var got []ghost.TID
	for _, th := range enc.Threads() {
		if n := len(got); n > 0 && got[n-1] >= th.TID() {
			t.Fatalf("Threads() not strictly TID-increasing: T%d then T%d", got[n-1], th.TID())
		}
		got = append(got, th.TID())
	}
	var want []ghost.TID
	for _, th := range m.Kernel().Threads() {
		if th.Class() == m.Ghost {
			want = append(want, th.TID())
		}
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Threads() = %v, ghOSt-class threads = %v", got, want)
	}
	return got
}

// TestThreadSetOrderedAcrossRestore checks that a restored enclave
// rebuilds the same TID-ordered managed set after kills and moves to
// CFS have punched holes in it.
func TestThreadSetOrderedAcrossRestore(t *testing.T) {
	m := ghost.NewMachine(ghost.XeonE5())
	t.Cleanup(m.Shutdown)
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3))
	m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
	pool := m.NewWorkerPool(6, &ghost.LatencyRecorder{}, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(enc)}, body)
	})
	m.AddSnapshotComponent("pool", pool)
	var spinners []*ghost.Thread
	for i := 0; i < 4; i++ {
		spinners = append(spinners, m.SpawnSpinner(ghost.ThreadOpts{Name: "spin", Class: ghost.Ghost(enc)}, 15*ghost.Microsecond))
	}
	m.Run(2 * ghost.Millisecond)
	m.Kernel().Kill(spinners[1])
	m.Kernel().SetClass(spinners[2], m.CFS)
	m.Run(2 * ghost.Millisecond)
	before := managedTIDs(t, m, enc)
	if len(before) != 8 {
		t.Fatalf("managed set before snapshot = %v, want 6 workers and 2 spinners", before)
	}

	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	r, err := ghost.Restore(snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	t.Cleanup(r.Shutdown)
	encs := r.Ghost.Enclaves()
	if len(encs) != 1 {
		t.Fatalf("restored machine has %d enclaves, want 1", len(encs))
	}
	if after := managedTIDs(t, r, encs[0]); !slices.Equal(after, before) {
		t.Fatalf("restored Threads() = %v, before snapshot %v", after, before)
	}
	r.Run(2 * ghost.Millisecond)
	managedTIDs(t, r, encs[0])
}
