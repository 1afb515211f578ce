package ghostcore

import (
	"ghost/internal/sequential"
	"slices"
	"testing"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// checkManagedOrdered asserts the enclave's thread set invariant:
// Threads() is strictly TID-increasing and holds exactly the live
// threads whose ghOSt state names enc.
func checkManagedOrdered(t *testing.T, step string, k *kernel.Kernel, enc *Enclave) {
	t.Helper()
	got := enc.Threads()
	for i := 1; i < len(got); i++ {
		if got[i-1].TID() >= got[i].TID() {
			t.Fatalf("%s: enc%d Threads() not strictly TID-increasing at %d: T%d then T%d",
				step, enc.ID(), i, got[i-1].TID(), got[i].TID())
		}
	}
	var want []kernel.TID
	for _, th := range k.Threads() {
		if gt := gstate(th); gt != nil && gt.enc == enc {
			want = append(want, th.TID())
		}
	}
	slices.Sort(want)
	var tids []kernel.TID
	for _, th := range got {
		tids = append(tids, th.TID())
	}
	if !slices.Equal(tids, want) {
		t.Fatalf("%s: enc%d Threads() = %v, managed set = %v", step, enc.ID(), tids, want)
	}
	if view := enc.ThreadsView(); !slices.Equal(view, got) {
		t.Fatalf("%s: enc%d ThreadsView() differs from Threads()", step, enc.ID())
	}
}

// TestThreadSetOrdered drives attach, out-of-order attach of older native
// threads, kill, move-to-CFS and DestroyWith across two enclaves and
// checks the ordered-set invariant after every step.
func TestThreadSetOrdered(t *testing.T) {
	topo := hw.NewTopology(hw.Config{Name: "o8", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 8, SMTWidth: 1})
	eng := sim.NewEngine()
	k := kernel.New(eng, topo, hw.DefaultCostModel())
	kernel.NewAgentClass(k)
	cfs := kernel.NewCFS(k)
	g := NewClass(k, cfs)
	t.Cleanup(k.Shutdown)
	a := NewEnclave(g, kernel.MaskOf(0, 1, 2, 3))
	b := NewEnclave(g, kernel.MaskOf(4, 5, 6, 7))
	check := func(step string) {
		t.Helper()
		for _, e := range []*Enclave{a, b} {
			checkManagedOrdered(t, step, k, e)
		}
	}

	// Native threads first, so they hold the lowest TIDs.
	var native []*kernel.Thread
	for i := 0; i < 6; i++ {
		native = append(native, k.Spawn(kernel.SpawnOpts{Name: "n", Class: cfs}, sequential.Body(func(tc *sequential.Task) {
			for {
				tc.Block()
			}
		})))
	}
	eng.RunFor(sim.Millisecond)
	spin := sequential.Body(func(tc *sequential.Task) {
		for {
			tc.Run(sim.Millisecond)
		}
	})
	var ga, gb []*kernel.Thread
	for i := 0; i < 5; i++ {
		ga = append(ga, a.SpawnThread(kernel.SpawnOpts{Name: "a"}, spin))
		gb = append(gb, b.SpawnThread(kernel.SpawnOpts{Name: "b"}, spin))
	}
	check("spawn")

	// Attach older threads behind newer ones, in reverse TID order, so
	// every insert lands at the front or in the middle.
	for i := len(native) - 1; i >= 0; i-- {
		e := a
		if i%2 == 1 {
			e = b
		}
		e.AddThread(native[i])
		check("attach native")
	}

	k.Kill(ga[2])
	check("kill middle")
	k.Kill(gb[0])
	check("kill first")
	k.SetClass(native[0], cfs)
	check("move first to CFS")
	k.SetClass(ga[4], cfs)
	check("move last to CFS")
	a.AddThread(ga[4])
	check("re-attach")
	eng.RunFor(sim.Millisecond)
	check("run")

	managedB := b.Threads()
	b.DestroyWith(ErrDestroyed)
	if n := len(b.ThreadsView()); n != 0 {
		t.Fatalf("destroyed enclave still lists %d threads", n)
	}
	if got := g.Enclaves(); len(got) != 1 || got[0] != a {
		t.Fatalf("Enclaves() after destroy = %v, want only enc%d", got, a.ID())
	}
	for _, th := range managedB {
		if th.State() != kernel.StateDead && th.Class() != kernel.Class(cfs) {
			t.Fatalf("T%d did not fall back to CFS", th.TID())
		}
	}
	check("destroy")
	b2 := NewEnclave(g, kernel.MaskOf(4, 5, 6, 7))
	b2.AddThread(gb[1])
	checkManagedOrdered(t, "attach after destroy", k, b2)
	checkManagedOrdered(t, "attach after destroy", k, a)
}
