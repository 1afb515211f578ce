package agentsdk_test

import (
	"ghost/internal/sequential"
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
)

type env struct {
	eng *sim.Engine
	k   *kernel.Kernel
	cfs *kernel.CFS
	ac  *kernel.AgentClass
	g   *ghostcore.Class
	enc *ghostcore.Enclave
}

func newEnv(t *testing.T, cpus int) *env {
	t.Helper()
	topo := hw.NewTopology(hw.Config{Name: "t", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: cpus / 2, SMTWidth: 2})
	eng := sim.NewEngine()
	k := kernel.New(eng, topo, hw.DefaultCostModel())
	ac := kernel.NewAgentClass(k)
	cfs := kernel.NewCFS(k)
	g := ghostcore.NewClass(k, cfs)
	enc := ghostcore.NewEnclave(g, kernel.MaskAll(cpus))
	t.Cleanup(k.Shutdown)
	return &env{eng: eng, k: k, cfs: cfs, ac: ac, g: g, enc: enc}
}

// spawnWorkers creates n ghost threads that each serve `iters` requests:
// block until woken, run `work`, repeat. An external driver wakes them.
func spawnWorkers(e *env, n, iters int, work sim.Duration) []*kernel.Thread {
	var out []*kernel.Thread
	for i := 0; i < n; i++ {
		th := e.enc.SpawnThread(kernel.SpawnOpts{Name: "worker"}, sequential.Body(func(tc *sequential.Task) {
			for j := 0; j < iters; j++ {
				tc.Block()
				tc.Run(work)
			}
		}))
		out = append(out, th)
	}
	return out
}

func TestCentralizedSchedulesWorkers(t *testing.T) {
	e := newEnv(t, 8)
	set := agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	workers := spawnWorkers(e, 4, 10, 20*sim.Microsecond)
	// Drive: wake each worker every 100us.
	sim.NewTicker(e.eng, 100*sim.Microsecond, func(sim.Time) {
		for _, w := range workers {
			if w.State() == kernel.StateBlocked {
				e.k.Wake(w)
			}
		}
	})
	e.eng.RunFor(20 * sim.Millisecond)
	for i, w := range workers {
		if w.State() != kernel.StateDead {
			t.Fatalf("worker %d state %v (cpu time %v)", i, w.State(), w.CPUTime())
		}
		if got := w.CPUTime(); got < 200*sim.Microsecond {
			t.Fatalf("worker %d cpuTime %v, want >= 200us", i, got)
		}
	}
	if set.TxnsCommitted < 40 {
		t.Fatalf("txns committed = %d, want >= 40", set.TxnsCommitted)
	}
	if set.MsgDelivery.Count() == 0 {
		t.Fatal("no message delivery samples")
	}
	// Spinning-agent delivery should be well under a microsecond at p50.
	if p50 := set.MsgDelivery.P50(); p50 > 2*sim.Microsecond {
		t.Fatalf("global delivery p50 = %v", p50)
	}
}

func TestCentralizedAgentOccupiesOneCPU(t *testing.T) {
	e := newEnv(t, 4)
	agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	e.eng.RunFor(5 * sim.Millisecond)
	// Agent spins on CPU 0.
	busy := e.k.CPU(0).BusyTime()
	if busy < 4*sim.Millisecond {
		t.Fatalf("agent cpu busy = %v, want ~5ms", busy)
	}
	cur := e.k.CPU(0).Curr()
	if cur == nil || cur.Name() != "ghost-agent" {
		t.Fatalf("cpu0 running %v, want agent", cur)
	}
}

func TestPerCPUSchedulesWorkers(t *testing.T) {
	e := newEnv(t, 4)
	set := agentsdk.Start(e.k, e.enc, e.ac, policies.NewPerCPUFIFO(), agentsdk.PerCPU())
	workers := spawnWorkers(e, 6, 8, 30*sim.Microsecond)
	sim.NewTicker(e.eng, 200*sim.Microsecond, func(sim.Time) {
		for _, w := range workers {
			if w.State() == kernel.StateBlocked {
				e.k.Wake(w)
			}
		}
	})
	e.eng.RunFor(30 * sim.Millisecond)
	for i, w := range workers {
		if w.State() != kernel.StateDead {
			t.Fatalf("worker %d state %v cpu=%v", i, w.State(), w.CPUTime())
		}
	}
	if set.TxnsCommitted < 48 {
		t.Fatalf("txns = %d", set.TxnsCommitted)
	}
	// Local agents block between decisions: CPUs are shared with the
	// workers, so no CPU should be saturated by agents alone.
	for i := 0; i < 4; i++ {
		if e.k.CPU(hw.CPUID(i)).BusyTime() > 25*sim.Millisecond {
			t.Fatalf("cpu %d suspiciously busy", i)
		}
	}
}

func TestPerCPUWorkStealing(t *testing.T) {
	e := newEnv(t, 4)
	pol := policies.NewPerCPUFIFO()
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.PerCPU())
	// Many short-lived CPU-bound ghost threads spawned at once: stealing
	// must spread them across CPUs.
	var ths []*kernel.Thread
	for i := 0; i < 12; i++ {
		ths = append(ths, e.enc.SpawnThread(kernel.SpawnOpts{Name: "w"}, sequential.Body(func(tc *sequential.Task) {
			tc.Run(300 * sim.Microsecond)
		})))
	}
	e.eng.RunFor(30 * sim.Millisecond)
	for i, th := range ths {
		if th.State() != kernel.StateDead {
			t.Fatalf("thread %d: %v", i, th.State())
		}
	}
	busyCPUs := 0
	for i := 0; i < 4; i++ {
		if e.k.CPU(hw.CPUID(i)).BusyTime() > 300*sim.Microsecond {
			busyCPUs++
		}
	}
	if busyCPUs < 2 {
		t.Fatalf("work not spread: %d busy CPUs", busyCPUs)
	}
}

func TestHotHandoff(t *testing.T) {
	e := newEnv(t, 4)
	set := agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	e.eng.RunFor(sim.Millisecond)
	if got := set.GlobalAgentThread().OnCPU(); got != 0 {
		t.Fatalf("global agent on cpu %d, want 0", got)
	}
	// A CFS daemon pinned to CPU 0 must displace the global agent.
	daemon := e.k.Spawn(kernel.SpawnOpts{Name: "daemon", Class: e.cfs, Affinity: kernel.MaskOf(0)},
		sequential.Body(func(tc *sequential.Task) { tc.Run(500 * sim.Microsecond) }))
	e.eng.RunFor(5 * sim.Millisecond)
	if daemon.State() != kernel.StateDead {
		t.Fatalf("pinned CFS daemon starved behind agent: %v", daemon.State())
	}
	if set.Handoffs == 0 {
		t.Fatal("no hot handoff recorded")
	}
	if got := set.GlobalAgentThread().OnCPU(); got == 0 {
		t.Fatal("global agent did not move off cpu 0")
	}
	// Scheduling still works after the handoff.
	w := spawnWorkers(e, 1, 1, 10*sim.Microsecond)[0]
	e.k.Wake(w)
	e.eng.RunFor(5 * sim.Millisecond)
	if w.State() != kernel.StateDead {
		t.Fatalf("worker not scheduled after handoff: %v", w.State())
	}
}

func TestAgentCrashFallsBackToCFS(t *testing.T) {
	e := newEnv(t, 4)
	set := agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	workers := spawnWorkers(e, 2, 1, 50*sim.Microsecond)
	for _, w := range workers {
		e.k.Wake(w)
	}
	set.Crash()
	if !e.enc.Destroyed() {
		t.Fatal("enclave survived crash without upgrade")
	}
	e.eng.RunFor(10 * sim.Millisecond)
	for i, w := range workers {
		if w.State() != kernel.StateDead {
			t.Fatalf("worker %d stranded after crash: %v", i, w.State())
		}
	}
}

func TestInPlaceUpgrade(t *testing.T) {
	e := newEnv(t, 4)
	set1 := agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	workers := spawnWorkers(e, 3, 60, 20*sim.Microsecond)
	sim.NewTicker(e.eng, 100*sim.Microsecond, func(sim.Time) {
		for _, w := range workers {
			if w.State() == kernel.StateBlocked {
				e.k.Wake(w)
			}
		}
	})
	e.eng.RunFor(2 * sim.Millisecond)
	// Upgrade: stop generation 1, start generation 2 on the live enclave.
	set1.Stop()
	if e.enc.Destroyed() {
		t.Fatal("enclave destroyed during upgrade")
	}
	set2 := agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	e.eng.RunFor(30 * sim.Millisecond)
	for i, w := range workers {
		if w.State() != kernel.StateDead {
			t.Fatalf("worker %d stalled across upgrade: %v", i, w.State())
		}
	}
	if set2.TxnsCommitted == 0 {
		t.Fatal("new generation never scheduled")
	}
}

func TestRepollAfterDrivesTimeslice(t *testing.T) {
	e := newEnv(t, 4)
	pol := &repollPolicy{inner: policies.NewCentralFIFO()}
	set := agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())
	e.eng.RunFor(5 * sim.Millisecond)
	if pol.polls < 40 {
		t.Fatalf("repoll count = %d, want ~50 (every 100us)", pol.polls)
	}
	_ = set
}

// repollPolicy re-arms a 100us poll timer on every Schedule call.
type repollPolicy struct {
	inner *policies.CentralFIFO
	polls int
}

func (p *repollPolicy) Attach(ctx *agentsdk.Context) { p.inner.Attach(ctx) }
func (p *repollPolicy) OnMessage(ctx *agentsdk.Context, m ghostcore.Message) {
	p.inner.OnMessage(ctx, m)
}
func (p *repollPolicy) Schedule(ctx *agentsdk.Context) []agentsdk.Assignment {
	p.polls++
	ctx.RepollAfter(100 * sim.Microsecond)
	return p.inner.Schedule(ctx)
}
func (p *repollPolicy) OnTxnFail(ctx *agentsdk.Context, a agentsdk.Assignment, s ghostcore.TxnStatus) {
	p.inner.OnTxnFail(ctx, a, s)
}

func TestPriorityBandsWithPreemption(t *testing.T) {
	e := newEnv(t, 4)
	pol := policies.NewCentralFIFO()
	pol.NumBands = 2
	pol.PreemptLower = true
	pol.Band = func(t *kernel.Thread) int {
		if t.Name() == "latency" {
			return 0
		}
		return 1
	}
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())
	// Batch threads saturate all schedulable CPUs (1,2,3; agent on 0).
	var batch []*kernel.Thread
	for i := 0; i < 3; i++ {
		batch = append(batch, e.enc.SpawnThread(kernel.SpawnOpts{Name: "batch"}, sequential.Body(func(tc *sequential.Task) {
			for j := 0; j < 1000; j++ {
				tc.Run(100 * sim.Microsecond)
			}
		})))
	}
	e.eng.RunFor(2 * sim.Millisecond)
	running := 0
	for _, b := range batch {
		if b.State() == kernel.StateRunning {
			running++
		}
	}
	if running != 3 {
		t.Fatalf("batch running = %d, want 3", running)
	}
	// A latency-critical thread arrives: must preempt a batch thread.
	lat := e.enc.SpawnThread(kernel.SpawnOpts{Name: "latency"}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(10 * sim.Microsecond)
	}))
	start := e.eng.Now()
	e.eng.RunFor(sim.Millisecond)
	if lat.State() != kernel.StateDead {
		t.Fatalf("latency thread state %v", lat.State())
	}
	// It must have started well before any batch 100us chunk ended.
	delay := lat.SchedDelay()
	if delay > 50*sim.Microsecond {
		t.Fatalf("latency thread sched delay %v", delay)
	}
	_ = start
}
