package ghost_test

import (
	"testing"

	"ghost"
)

// TestQuickstart exercises the README quickstart through the public API:
// build a machine, create an enclave, start a centralized FIFO agent, and
// schedule ghOSt threads.
func TestQuickstart(t *testing.T) {
	m := ghost.NewMachine(ghost.XeonE5())
	defer m.Shutdown()
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3))
	set := m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())

	done := 0
	for i := 0; i < 8; i++ {
		m.Spawn(ghost.ThreadOpts{Name: "worker", Class: ghost.Ghost(enc)}, ghost.Sequential(func(tc *ghost.SeqTask) {
			tc.Run(50 * ghost.Microsecond)
			done++
		}))
	}
	m.Run(5 * ghost.Millisecond)
	if done != 8 {
		t.Fatalf("done = %d, want 8", done)
	}
	if set.TxnsCommitted < 8 {
		t.Fatalf("txns = %d", set.TxnsCommitted)
	}
}

func TestPublicPolicies(t *testing.T) {
	m := ghost.NewMachine(ghost.Skylake())
	defer m.Shutdown()
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3, 4, 5))
	pol := ghost.NewShinjukuPolicy()
	m.StartAgents(enc, pol, ghost.Global())

	long := m.Spawn(ghost.ThreadOpts{Name: "long", Class: ghost.Ghost(enc)}, ghost.Sequential(func(tc *ghost.SeqTask) {
		tc.Run(ghost.Millisecond)
	}))
	m.Run(2 * ghost.Millisecond)
	if long.CPUTime() == 0 {
		t.Fatal("nothing scheduled via public API")
	}
}

func TestPublicSnapPolicy(t *testing.T) {
	m := ghost.NewMachine(ghost.XeonE5())
	defer m.Shutdown()
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 2))
	pol := ghost.SnapPolicy(func(t *ghost.Thread) bool { return t.Name() == "snap" })
	m.StartAgents(enc, pol, ghost.Global())

	batch := m.Spawn(ghost.ThreadOpts{Name: "batch", Class: ghost.Ghost(enc)}, ghost.Sequential(func(tc *ghost.SeqTask) {
		for {
			tc.Run(100 * ghost.Microsecond)
		}
	}))
	m.Run(ghost.Millisecond)
	if batch.CPUTime() == 0 {
		t.Fatal("batch never ran on idle enclave")
	}
	snap := m.Spawn(ghost.ThreadOpts{Name: "snap", Class: ghost.Ghost(enc)}, ghost.Sequential(func(tc *ghost.SeqTask) {
		tc.Run(20 * ghost.Microsecond)
	}))
	m.Run(ghost.Millisecond)
	if snap.State() != 4 /* dead */ && snap.CPUTime() == 0 {
		t.Fatal("snap worker starved")
	}
}

func TestMachineHelpers(t *testing.T) {
	m := ghost.NewMachine(ghost.Haswell())
	defer m.Shutdown()
	if m.Topology().NumCPUs() != 72 {
		t.Fatal("topology mismatch")
	}
	if m.AllCPUs().Count() != 72 {
		t.Fatal("AllCPUs mismatch")
	}
	fired := false
	m.After(ghost.Millisecond, func() { fired = true })
	ticks := 0
	m.Every(ghost.Millisecond, func(ghost.Time) { ticks++ })
	m.Run(5 * ghost.Millisecond)
	if !fired || ticks != 5 {
		t.Fatalf("timer helpers broken: fired=%v ticks=%d", fired, ticks)
	}
	if len(m.IdleCPUs()) != 72 {
		t.Fatal("idle CPUs mismatch on empty machine")
	}
	th := m.Spawn(ghost.ThreadOpts{Name: "t"}, ghost.Sequential(func(tc *ghost.SeqTask) {
		tc.Block()
		tc.Run(10 * ghost.Microsecond)
	}))
	m.Run(ghost.Millisecond)
	m.Wake(th)
	m.Run(ghost.Millisecond)
	if th.CPUTime() == 0 {
		t.Fatal("CFS thread via facade never ran")
	}
}

func TestMicroQuantaFacade(t *testing.T) {
	m := ghost.NewMachine(ghost.XeonE5())
	defer m.Shutdown()
	th := m.Spawn(ghost.ThreadOpts{Name: "rt", Affinity: ghost.MaskOf(0), Class: ghost.MicroQuanta},
		ghost.Sequential(func(tc *ghost.SeqTask) {
			for {
				tc.Run(100 * ghost.Microsecond)
			}
		}))
	m.Run(10 * ghost.Millisecond)
	share := float64(th.CPUTime()) / float64(10*ghost.Millisecond)
	if share < 0.8 || share > 0.95 {
		t.Fatalf("MicroQuanta share = %.2f, want ~0.9", share)
	}
}
