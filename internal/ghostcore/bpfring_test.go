package ghostcore

import (
	"ghost/internal/sequential"
	"testing"
	"testing/quick"

	"ghost/internal/kernel"
	"ghost/internal/sim"
)

func TestBPFRingPushPopOrder(t *testing.T) {
	env := newGhostEnv(t)
	ring := NewBPFRing(env.enc, 8, kernel.Mask{})
	var ths []*kernel.Thread
	for i := 0; i < 3; i++ {
		ths = append(ths, env.spawnGhost("w", 10*sim.Microsecond, 1))
	}
	for _, th := range ths {
		if !ring.Push(th) {
			t.Fatal("push failed")
		}
	}
	if ring.Len() != 3 {
		t.Fatalf("len = %d", ring.Len())
	}
	for i := 0; i < 3; i++ {
		got := ring.PickNextOnIdle(1)
		if got != ths[i] {
			t.Fatalf("pop %d = %v, want %v", i, got, ths[i])
		}
	}
	if ring.PickNextOnIdle(1) != nil {
		t.Fatal("pop from empty ring")
	}
}

func TestBPFRingCapacity(t *testing.T) {
	env := newGhostEnv(t)
	ring := NewBPFRing(env.enc, 2, kernel.Mask{})
	a := env.spawnGhost("a", sim.Microsecond, 1)
	b := env.spawnGhost("b", sim.Microsecond, 1)
	c := env.spawnGhost("c", sim.Microsecond, 1)
	if !ring.Push(a) || !ring.Push(b) {
		t.Fatal("pushes failed")
	}
	if ring.Push(c) {
		t.Fatal("push into full ring succeeded")
	}
}

func TestBPFRingRevoke(t *testing.T) {
	env := newGhostEnv(t)
	ring := NewBPFRing(env.enc, 8, kernel.Mask{})
	a := env.spawnGhost("a", sim.Microsecond, 1)
	b := env.spawnGhost("b", sim.Microsecond, 1)
	c := env.spawnGhost("c", sim.Microsecond, 1)
	ring.Push(a)
	ring.Push(b)
	ring.Push(c)
	if !ring.Revoke(b) {
		t.Fatal("revoke failed")
	}
	if ring.Revoke(b) {
		t.Fatal("double revoke succeeded")
	}
	if got := ring.PickNextOnIdle(1); got != a {
		t.Fatalf("pop = %v, want a", got)
	}
	if got := ring.PickNextOnIdle(1); got != c {
		t.Fatalf("pop = %v, want c (b revoked)", got)
	}
}

func TestBPFRingSkipsStale(t *testing.T) {
	env := newGhostEnv(t)
	ring := NewBPFRing(env.enc, 8, kernel.Mask{})
	a := env.spawnGhost("a", 10*sim.Microsecond, 1)
	b := env.spawnGhost("b", 10*sim.Microsecond, 1)
	ring.Push(a)
	ring.Push(b)
	// Schedule `a` through the normal transaction path: its ring entry
	// becomes stale and must be skipped.
	txn := env.enc.TxnCreate(a.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn})
	if got := ring.PickNextOnIdle(2); got != b {
		t.Fatalf("pop = %v, want b (a is latched)", got)
	}
}

func TestBPFRingEndToEnd(t *testing.T) {
	// The ring attached as the enclave's BPF program schedules threads
	// on idle CPUs without any agent transactions.
	env := newGhostEnv(t)
	ring := NewBPFRing(env.enc, 16, kernel.Mask{})
	env.enc.SetBPF(ring)
	var ths []*kernel.Thread
	for i := 0; i < 4; i++ {
		th := env.spawnGhost("w", 20*sim.Microsecond, 1)
		ths = append(ths, th)
		ring.Push(th)
	}
	// Trigger idle transitions: a short CFS thread comes and goes.
	env.k.Spawn(kernel.SpawnOpts{Name: "kick", Class: env.cfs, Affinity: kernel.MaskOf(3)},
		sequential.Body(func(tc *sequential.Task) { tc.Run(sim.Microsecond) }))
	env.eng.RunFor(5 * sim.Millisecond)
	done := 0
	for _, th := range ths {
		if th.State() == kernel.StateDead {
			done++
		}
	}
	if done == 0 {
		t.Fatal("ring never scheduled anything")
	}
	if ring.Pops == 0 {
		t.Fatal("pops not counted")
	}
}

func TestMultiRingDomains(t *testing.T) {
	env := newGhostEnv(t)
	r0 := NewBPFRing(env.enc, 4, kernel.MaskOf(0, 1))
	r1 := NewBPFRing(env.enc, 4, kernel.MaskOf(2, 3))
	m := &MultiRing{Rings: []*BPFRing{r0, r1}}
	a := env.spawnGhost("a", sim.Microsecond, 1)
	b := env.spawnGhost("b", sim.Microsecond, 1)
	r0.Push(a)
	r1.Push(b)
	if got := m.PickNextOnIdle(2); got != b {
		t.Fatalf("cpu2 pick = %v, want b (domain ring)", got)
	}
	if got := m.PickNextOnIdle(0); got != a {
		t.Fatalf("cpu0 pick = %v, want a", got)
	}
	if got := m.PickNextOnIdle(0); got != nil {
		t.Fatalf("drained ring returned %v", got)
	}
}

// Property: after any sequence of pushes and revokes, Len equals pushes
// minus successful revokes, bounded by capacity.
func TestBPFRingLenProperty(t *testing.T) {
	env := newGhostEnv(t)
	f := func(ops []bool) bool {
		ring := NewBPFRing(env.enc, 8, kernel.Mask{})
		var live []*kernel.Thread
		for _, push := range ops {
			if push {
				th := env.spawnGhost("p", sim.Microsecond, 1)
				if ring.Push(th) {
					live = append(live, th)
				}
			} else if len(live) > 0 {
				if !ring.Revoke(live[0]) {
					return false
				}
				live = live[1:]
			}
			if ring.Len() != len(live) || ring.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
