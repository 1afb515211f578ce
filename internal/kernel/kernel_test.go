package kernel_test

import (
	. "ghost/internal/kernel"
	"ghost/internal/sequential"
	"testing"

	"ghost/internal/hw"
	"ghost/internal/sim"
)

// testEnv bundles a small simulated machine for tests.
type testEnv struct {
	eng *sim.Engine
	k   *Kernel
	cfs *CFS
}

func newTestEnv(t *testing.T, topo *hw.Topology) *testEnv {
	t.Helper()
	eng := sim.NewEngine()
	k := New(eng, topo, hw.DefaultCostModel())
	cfs := NewCFS(k)
	t.Cleanup(k.Shutdown)
	return &testEnv{eng: eng, k: k, cfs: cfs}
}

func smallTopo() *hw.Topology {
	return hw.NewTopology(hw.Config{Name: "t2x2", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 2, SMTWidth: 2})
}

func oneCPUTopo() *hw.Topology {
	return hw.NewTopology(hw.Config{Name: "t1", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 1, SMTWidth: 1})
}

func TestSingleThreadRuns(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	var done sim.Time
	env.k.Spawn(SpawnOpts{Name: "worker", Class: env.cfs}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(100 * sim.Microsecond)
		done = tc.Now()
	}))
	env.eng.RunFor(10 * sim.Millisecond)
	if done == 0 {
		t.Fatal("thread never completed")
	}
	// 100us of work plus one context switch (599 ns).
	want := 100*sim.Microsecond + env.k.Cost().ContextSwitchCFS
	if done != want {
		t.Fatalf("completed at %v, want %v", done, want)
	}
}

func TestThreadCPUTimeAccounting(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	th := env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(50 * sim.Microsecond)
		tc.Sleep(sim.Millisecond)
		tc.Run(50 * sim.Microsecond)
	}))
	env.eng.RunFor(10 * sim.Millisecond)
	if th.State() != StateDead {
		t.Fatalf("thread state = %v, want dead", th.State())
	}
	if got := th.CPUTime(); got != 100*sim.Microsecond {
		t.Fatalf("cpuTime = %v, want 100us", got)
	}
}

func TestBlockWake(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	var woke sim.Time
	th := env.k.Spawn(SpawnOpts{Name: "sleeper", Class: env.cfs}, sequential.Body(func(tc *sequential.Task) {
		tc.Block()
		woke = tc.Now()
		tc.Run(10 * sim.Microsecond)
	}))
	env.eng.RunFor(sim.Millisecond)
	if th.State() != StateBlocked {
		t.Fatalf("state = %v, want blocked", th.State())
	}
	env.k.Wake(th)
	env.eng.RunFor(sim.Millisecond)
	if th.State() != StateDead {
		t.Fatalf("state = %v, want dead after wake", th.State())
	}
	if woke != sim.Millisecond {
		t.Fatalf("woke at %v, want 1ms", woke)
	}
}

func TestWakePendingCoalesce(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	blocks := 0
	th := env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(100 * sim.Microsecond) // wake arrives during this run
		tc.Block()                    // must return immediately (pending wake)
		blocks++
		tc.Block() // blocks for real
		blocks++
	}))
	env.eng.After(10*sim.Microsecond, func() { env.k.Wake(th) })
	env.eng.RunFor(sim.Millisecond)
	if blocks != 1 {
		t.Fatalf("blocks = %d, want 1 (first Block consumed pending wake)", blocks)
	}
	if th.State() != StateBlocked {
		t.Fatalf("state = %v, want blocked", th.State())
	}
}

func TestFairSharingTwoThreads(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	spin := sequential.Body(func(tc *sequential.Task) {
		for i := 0; i < 10000; i++ {
			tc.Run(100 * sim.Microsecond)
		}
	})
	a := env.k.Spawn(SpawnOpts{Name: "a", Class: env.cfs}, spin)
	b := env.k.Spawn(SpawnOpts{Name: "b", Class: env.cfs}, spin)
	env.eng.RunFor(200 * sim.Millisecond)
	at, bt := float64(a.CPUTime()), float64(b.CPUTime())
	if at == 0 || bt == 0 {
		t.Fatalf("starvation: a=%v b=%v", a.CPUTime(), b.CPUTime())
	}
	ratio := at / bt
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("unfair sharing: a=%v b=%v ratio=%.2f", a.CPUTime(), b.CPUTime(), ratio)
	}
}

func TestNiceWeighting(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	spin := sequential.Body(func(tc *sequential.Task) {
		for i := 0; i < 100000; i++ {
			tc.Run(100 * sim.Microsecond)
		}
	})
	hi := env.k.Spawn(SpawnOpts{Name: "hi", Class: env.cfs, Nice: -5}, spin)
	lo := env.k.Spawn(SpawnOpts{Name: "lo", Class: env.cfs, Nice: 5}, spin)
	env.eng.RunFor(500 * sim.Millisecond)
	ratio := float64(hi.CPUTime()) / float64(lo.CPUTime())
	// weight(-5)/weight(5) = 3121/335 ≈ 9.3; CFS granularity effects
	// compress this, but the high-priority thread must clearly dominate.
	if ratio < 3 {
		t.Fatalf("nice had weak effect: hi=%v lo=%v ratio=%.2f", hi.CPUTime(), lo.CPUTime(), ratio)
	}
}

func TestYieldAlternation(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	var order []string
	mk := func(name string) ThreadFunc {
		return sequential.Body(func(tc *sequential.Task) {
			for i := 0; i < 3; i++ {
				tc.Run(sim.Microsecond)
				order = append(order, name)
				tc.Yield()
			}
		})
	}
	env.k.Spawn(SpawnOpts{Name: "a", Class: env.cfs}, mk("a"))
	env.k.Spawn(SpawnOpts{Name: "b", Class: env.cfs}, mk("b"))
	env.eng.RunFor(10 * sim.Millisecond)
	if len(order) != 6 {
		t.Fatalf("order = %v, want 6 entries", order)
	}
	// With equal vruntime and yields, the two must interleave rather
	// than one running all three slices first.
	if order[0] == order[1] && order[1] == order[2] {
		t.Fatalf("no alternation: %v", order)
	}
}

func TestSMTDilation(t *testing.T) {
	topo := smallTopo() // CPUs 0,1 are cores; 2,3 their siblings
	env := newTestEnv(t, topo)
	sib := topo.CPU(0).Sibling()
	var aDone, bDone sim.Time
	a := env.k.Spawn(SpawnOpts{Name: "a", Class: env.cfs, Affinity: MaskOf(0)}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(sim.Millisecond)
		aDone = tc.Now()
	}))
	b := env.k.Spawn(SpawnOpts{Name: "b", Class: env.cfs, Affinity: MaskOf(sib)}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(sim.Millisecond)
		bDone = tc.Now()
	}))
	_ = a
	_ = b
	env.eng.RunFor(10 * sim.Millisecond)
	if aDone == 0 || bDone == 0 {
		t.Fatal("threads did not finish")
	}
	// Both run concurrently on sibling hyperthreads: each should take
	// ~1.4 ms of wall time for 1 ms of work (plus switch costs).
	min := sim.Duration(float64(sim.Millisecond) * 1.3)
	if aDone < min || bDone < min {
		t.Fatalf("SMT contention not applied: a=%v b=%v", aDone, bDone)
	}
	// And an isolated run must be faster than a contended one.
	env2 := newTestEnv(t, topo)
	var soloDone sim.Time
	env2.k.Spawn(SpawnOpts{Name: "solo", Class: env2.cfs, Affinity: MaskOf(0)}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(sim.Millisecond)
		soloDone = tc.Now()
	}))
	env2.eng.RunFor(10 * sim.Millisecond)
	if soloDone >= aDone {
		t.Fatalf("solo run (%v) not faster than contended (%v)", soloDone, aDone)
	}
}

func TestMultiCPUSpreads(t *testing.T) {
	env := newTestEnv(t, smallTopo())
	var dones []sim.Time
	for i := 0; i < 4; i++ {
		env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs}, sequential.Body(func(tc *sequential.Task) {
			tc.Run(sim.Millisecond)
			dones = append(dones, tc.Now())
		}))
	}
	env.eng.RunFor(20 * sim.Millisecond)
	if len(dones) != 4 {
		t.Fatalf("finished %d of 4", len(dones))
	}
	// 4 threads on 4 CPUs (2 cores SMT-2): all should finish within
	// ~1.4x + eps, i.e. genuinely in parallel, not serialized.
	for _, d := range dones {
		if d > 2*sim.Millisecond {
			t.Fatalf("thread finished at %v; not parallel", d)
		}
	}
}

func TestIdleStealing(t *testing.T) {
	// 8 CPU-bound threads, all woken targeting CPU 0's queue via
	// simultaneous spawn; idle CPUs must steal rather than starve.
	env := newTestEnv(t, smallTopo())
	finished := 0
	for i := 0; i < 8; i++ {
		env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs}, sequential.Body(func(tc *sequential.Task) {
			tc.Run(500 * sim.Microsecond)
			finished++
		}))
	}
	env.eng.RunFor(5 * sim.Millisecond)
	if finished != 8 {
		t.Fatalf("finished = %d, want 8", finished)
	}
	busy := 0
	for i := 0; i < env.k.NumCPUs(); i++ {
		if env.k.CPU(hw.CPUID(i)).BusyTime() > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Fatalf("only %d CPUs did work; stealing/balancing broken", busy)
	}
}

func TestAffinityRespected(t *testing.T) {
	env := newTestEnv(t, smallTopo())
	th := env.k.Spawn(SpawnOpts{Name: "pin", Class: env.cfs, Affinity: MaskOf(1)}, sequential.Body(func(tc *sequential.Task) {
		for i := 0; i < 100; i++ {
			tc.Run(10 * sim.Microsecond)
			tc.Yield()
		}
	}))
	env.eng.RunFor(10 * sim.Millisecond)
	if th.LastCPU() != 1 {
		t.Fatalf("pinned thread ran on cpu %d", th.LastCPU())
	}
	if got := env.k.CPU(1).BusyTime(); got == 0 {
		t.Fatal("cpu 1 never busy")
	}
}

func TestSetAffinityMigrates(t *testing.T) {
	env := newTestEnv(t, smallTopo())
	var sawCPU1 bool
	th := env.k.Spawn(SpawnOpts{Name: "m", Class: env.cfs, Affinity: MaskOf(0)}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(100 * sim.Microsecond)
		tc.SetAffinity(MaskOf(1))
		for i := 0; i < 10; i++ {
			tc.Run(100 * sim.Microsecond)
			if tc.Thread().OnCPU() == 1 {
				sawCPU1 = true
			}
		}
	}))
	env.eng.RunFor(20 * sim.Millisecond)
	if th.State() != StateDead {
		t.Fatalf("state = %v", th.State())
	}
	if !sawCPU1 {
		t.Fatal("thread never migrated to cpu 1 after SetAffinity")
	}
}

func TestSleepDuration(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	var woke sim.Time
	env.k.Spawn(SpawnOpts{Name: "s", Class: env.cfs}, sequential.Body(func(tc *sequential.Task) {
		tc.Sleep(5 * sim.Millisecond)
		woke = tc.Now()
	}))
	env.eng.RunFor(20 * sim.Millisecond)
	if woke < 5*sim.Millisecond || woke > 5*sim.Millisecond+10*sim.Microsecond {
		t.Fatalf("woke at %v, want ~5ms", woke)
	}
}

func TestMicroQuantaThrottling(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, oneCPUTopo(), hw.DefaultCostModel())
	mq := NewMicroQuanta(k)
	cfs := NewCFS(k)
	defer k.Shutdown()

	// One spinning MicroQuanta thread plus one CFS thread on a single
	// CPU: MQ should get ~90% (0.9ms/1ms), CFS the blackout remainder.
	spin := sequential.Body(func(tc *sequential.Task) {
		for {
			tc.Run(50 * sim.Microsecond)
		}
	})
	rt := k.Spawn(SpawnOpts{Name: "rt", Class: mq}, spin)
	batch := k.Spawn(SpawnOpts{Name: "batch", Class: cfs}, spin)
	eng.RunFor(100 * sim.Millisecond)

	rtShare := float64(rt.CPUTime()) / float64(100*sim.Millisecond)
	batchShare := float64(batch.CPUTime()) / float64(100*sim.Millisecond)
	if rtShare < 0.80 || rtShare > 0.95 {
		t.Fatalf("MQ share = %.2f, want ~0.9", rtShare)
	}
	if batchShare < 0.04 {
		t.Fatalf("CFS starved during blackouts: share = %.2f", batchShare)
	}
}

func TestMicroQuantaPreemptsCFS(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, oneCPUTopo(), hw.DefaultCostModel())
	mq := NewMicroQuanta(k)
	cfs := NewCFS(k)
	defer k.Shutdown()

	k.Spawn(SpawnOpts{Name: "batch", Class: cfs}, sequential.Body(func(tc *sequential.Task) {
		for {
			tc.Run(sim.Millisecond)
		}
	}))
	var latency sim.Duration
	rt := k.Spawn(SpawnOpts{Name: "rt", Class: mq}, sequential.Body(func(tc *sequential.Task) {
		tc.Block()
		latency = tc.Now() - tc.Thread().WakeTime()
		tc.Run(10 * sim.Microsecond)
	}))
	eng.RunFor(5 * sim.Millisecond)
	k.Wake(rt)
	eng.RunFor(5 * sim.Millisecond)
	if rt.State() != StateDead {
		t.Fatalf("rt state = %v", rt.State())
	}
	// Wakeup latency should be a context switch, not a CFS slice.
	if latency > 10*sim.Microsecond {
		t.Fatalf("MQ wake latency = %v; did not preempt CFS", latency)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Duration, sim.Duration, uint64) {
		eng := sim.NewEngine()
		k := New(eng, smallTopo(), hw.DefaultCostModel())
		cfs := NewCFS(k)
		defer k.Shutdown()
		r := sim.NewRand(7)
		var a, b *Thread
		for i := 0; i < 6; i++ {
			th := k.Spawn(SpawnOpts{Name: "w", Class: cfs}, sequential.Body(func(tc *sequential.Task) {
				for j := 0; j < 50; j++ {
					tc.Run(sim.Duration(10+r.Intn(90)) * sim.Microsecond)
					if j%7 == 0 {
						tc.Sleep(sim.Duration(r.Intn(100)) * sim.Microsecond)
					}
				}
			}))
			if i == 0 {
				a = th
			}
			if i == 1 {
				b = th
			}
		}
		eng.RunFor(50 * sim.Millisecond)
		return a.CPUTime(), b.CPUTime(), eng.Executed
	}
	a1, b1, e1 := run()
	a2, b2, e2 := run()
	if a1 != a2 || b1 != b2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%v,%v,%d) vs (%v,%v,%d)", a1, b1, e1, a2, b2, e2)
	}
}

func TestSpinOccupiesCPU(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	ac := NewAgentClass(env.k)
	steps := 0
	st := agentBody(func(now sim.Time) (sim.Duration, Op) {
		steps++
		return 100, Spin()
	})
	ag := env.k.Spawn(SpawnOpts{Name: "agent", Class: ac, Affinity: MaskOf(0)}, st)
	env.k.Wake(ag)
	env.eng.RunFor(sim.Millisecond)
	if ag.State() != StateRunning {
		t.Fatalf("agent state = %v, want running (spinning)", ag.State())
	}
	if steps != 1 {
		t.Fatalf("steps = %d, want exactly 1 without pokes", steps)
	}
	// CPU is fully busy while spinning.
	if got := env.k.CPU(0).BusyTime(); got < 900*sim.Microsecond {
		t.Fatalf("cpu busy = %v, want ~1ms", got)
	}
	// A poke triggers exactly one more step.
	env.k.Poke(ag)
	env.eng.RunFor(sim.Millisecond)
	if steps != 2 {
		t.Fatalf("steps = %d after poke, want 2", steps)
	}
}

// agentBody builds a body shaped like an agent runner: it starts parked,
// and each resume on its CPU runs step, charging the returned cost before
// applying the returned follow-up.
func agentBody(step func(now sim.Time) (sim.Duration, Op)) ThreadFunc {
	return func(tc *TaskContext) Op {
		if tc.Thread().State() == StateNew {
			return Park()
		}
		cost, next := step(tc.Now())
		return tc.Run(cost).Then(next)
	}
}

func TestParkWakeCycle(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	ac := NewAgentClass(env.k)
	var stepTimes []sim.Time
	st := agentBody(func(now sim.Time) (sim.Duration, Op) {
		stepTimes = append(stepTimes, now)
		return 500, Park()
	})
	ag := env.k.Spawn(SpawnOpts{Name: "agent", Class: ac, Affinity: MaskOf(0)}, st)
	env.k.Wake(ag)
	env.eng.RunFor(sim.Millisecond)
	if len(stepTimes) != 1 {
		t.Fatalf("steps = %d, want 1", len(stepTimes))
	}
	if ag.State() != StateBlocked {
		t.Fatalf("state = %v, want blocked", ag.State())
	}
	// Step must run only after the wakeup context switch, not at Wake.
	if stepTimes[0] < env.k.Cost().ContextSwitchMinimal {
		t.Fatalf("step at %v, before context switch completed", stepTimes[0])
	}
	env.k.Wake(ag)
	env.eng.RunFor(sim.Millisecond)
	if len(stepTimes) != 2 {
		t.Fatalf("steps = %d after second wake", len(stepTimes))
	}
}

func TestAgentPreemptsEverything(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, oneCPUTopo(), hw.DefaultCostModel())
	ac := NewAgentClass(k)
	mq := NewMicroQuanta(k)
	cfs := NewCFS(k)
	defer k.Shutdown()

	k.Spawn(SpawnOpts{Name: "cfs", Class: cfs}, sequential.Body(func(tc *sequential.Task) {
		for {
			tc.Run(sim.Millisecond)
		}
	}))
	k.Spawn(SpawnOpts{Name: "mq", Class: mq}, sequential.Body(func(tc *sequential.Task) {
		for {
			tc.Run(100 * sim.Microsecond)
		}
	}))
	eng.RunFor(2 * sim.Millisecond)

	var ranAt sim.Time
	st := agentBody(func(now sim.Time) (sim.Duration, Op) {
		ranAt = now
		return 100, Park()
	})
	ag := k.Spawn(SpawnOpts{Name: "agent", Class: ac, Affinity: MaskOf(0)}, st)
	wakeAt := eng.Now()
	k.Wake(ag)
	eng.RunFor(sim.Millisecond)
	if ranAt == 0 {
		t.Fatal("agent never ran")
	}
	if d := ranAt - wakeAt; d > 2*sim.Microsecond {
		t.Fatalf("agent wake-to-run = %v; should preempt all classes immediately", d)
	}
}

func TestSetClassMoves(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, oneCPUTopo(), hw.DefaultCostModel())
	mq := NewMicroQuanta(k)
	cfs := NewCFS(k)
	defer k.Shutdown()
	th := k.Spawn(SpawnOpts{Name: "w", Class: cfs}, sequential.Body(func(tc *sequential.Task) {
		for i := 0; i < 1000; i++ {
			tc.Run(100 * sim.Microsecond)
		}
	}))
	eng.RunFor(sim.Millisecond)
	k.SetClass(th, mq)
	if th.Class() != Class(mq) {
		t.Fatal("class not changed")
	}
	eng.RunFor(5 * sim.Millisecond)
	if th.CPUTime() < 4*sim.Millisecond {
		t.Fatalf("thread stalled after class change: cpuTime=%v", th.CPUTime())
	}
}

func TestThreadsListing(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	th := env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(sim.Microsecond)
	}))
	if len(env.k.Threads()) != 1 {
		t.Fatal("live thread not listed")
	}
	if env.k.Thread(th.TID()) != th {
		t.Fatal("lookup by TID failed")
	}
	env.eng.RunFor(sim.Millisecond)
	if len(env.k.Threads()) != 0 {
		t.Fatal("dead thread still listed")
	}
}

func TestBusyAccountingSums(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	env.k.Spawn(SpawnOpts{Name: "w", Class: env.cfs}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(2 * sim.Millisecond)
		tc.Sleep(2 * sim.Millisecond)
		tc.Run(2 * sim.Millisecond)
	}))
	env.eng.RunFor(10 * sim.Millisecond)
	busy := env.k.CPU(0).BusyTime()
	if busy < 4*sim.Millisecond || busy > 4*sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("busy = %v, want ~4ms", busy)
	}
}

func TestMigrationPenaltyCharged(t *testing.T) {
	// A thread that runs on CPU 0, then is forced to CPU 1 (different
	// physical core), pays a cache-warmup penalty.
	env := newTestEnv(t, smallTopo())
	var t1, t2 sim.Time
	th := env.k.Spawn(SpawnOpts{Name: "m", Class: env.cfs, Affinity: MaskOf(0)}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(100 * sim.Microsecond)
		t1 = tc.Now()
		tc.SetAffinity(MaskOf(1))
		tc.Run(100 * sim.Microsecond)
		t2 = tc.Now()
	}))
	_ = th
	env.eng.RunFor(10 * sim.Millisecond)
	if t1 == 0 || t2 == 0 {
		t.Fatal("did not finish")
	}
	second := t2 - t1
	first := t1
	if second <= first {
		t.Fatalf("migrated segment (%v) not slower than first (%v)", second, first)
	}
}

func TestMaskOps(t *testing.T) {
	m := MaskOf(0, 3, 255)
	if !m.Has(0) || !m.Has(3) || !m.Has(255) || m.Has(1) {
		t.Fatal("mask membership wrong")
	}
	if m.Count() != 3 {
		t.Fatalf("count = %d", m.Count())
	}
	m.Clear(3)
	if m.Has(3) || m.Count() != 2 {
		t.Fatal("clear failed")
	}
	all := MaskAll(8)
	if all.Count() != 8 {
		t.Fatalf("MaskAll(8) = %d CPUs", all.Count())
	}
	inter := all.And(MaskOf(2, 9))
	if inter.Count() != 1 || !inter.Has(2) {
		t.Fatalf("intersect wrong: %v", inter)
	}
	union := MaskOf(1).Or(MaskOf(2))
	if union.Count() != 2 {
		t.Fatal("union wrong")
	}
	var cpus []hw.CPUID
	MaskOf(5, 1, 64).ForEach(func(c hw.CPUID) bool {
		cpus = append(cpus, c)
		return true
	})
	if len(cpus) != 3 || cpus[0] != 1 || cpus[1] != 5 || cpus[2] != 64 {
		t.Fatalf("ForEach order wrong: %v", cpus)
	}
	if MaskOf(7).String() != "{7}" {
		t.Fatalf("String = %q", MaskOf(7).String())
	}
	var empty Mask
	if !empty.Empty() || empty.Count() != 0 {
		t.Fatal("empty mask wrong")
	}
}

func TestTickOverheadInjection(t *testing.T) {
	cost := hw.DefaultCostModel()
	cost.TickOverhead = 10 * sim.Microsecond
	eng := sim.NewEngine()
	k := New(eng, oneCPUTopo(), cost)
	cfs := NewCFS(k)
	defer k.Shutdown()
	var done sim.Time
	k.Spawn(SpawnOpts{Name: "w", Class: cfs}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(5 * sim.Millisecond)
		done = tc.Now()
	}))
	eng.RunFor(20 * sim.Millisecond)
	// 5ms of work crosses ~5 ticks, each adding 10us: completion should
	// exceed the no-overhead time by roughly 4-6 tick costs.
	base := 5*sim.Millisecond + cost.ContextSwitchCFS
	extra := done - base
	if extra < 30*sim.Microsecond || extra > 80*sim.Microsecond {
		t.Fatalf("tick overhead extra = %v, want ~50us", extra)
	}
}

func TestTicklessSkipsOverheadAndTicks(t *testing.T) {
	cost := hw.DefaultCostModel()
	cost.TickOverhead = 10 * sim.Microsecond
	eng := sim.NewEngine()
	k := New(eng, oneCPUTopo(), cost)
	cfs := NewCFS(k)
	defer k.Shutdown()
	k.SetTickless(0, true)
	if !k.Tickless(0) {
		t.Fatal("tickless flag not set")
	}
	hookFired := 0
	k.AddTickHook(func(*CPU) { hookFired++ })
	var done sim.Time
	k.Spawn(SpawnOpts{Name: "w", Class: cfs}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(5 * sim.Millisecond)
		done = tc.Now()
	}))
	eng.RunFor(20 * sim.Millisecond)
	if want := 5*sim.Millisecond + cost.ContextSwitchCFS; done != want {
		t.Fatalf("tickless completion = %v, want %v", done, want)
	}
	if hookFired != 0 {
		t.Fatalf("tick hooks fired %d times on tickless CPU", hookFired)
	}
}
