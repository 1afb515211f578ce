package ghostcore

import (
	"cmp"
	"fmt"
	"slices"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// BPFProgram is the interface of the agent-supplied program attached to
// pick_next_task (§3.2): when a CPU idles with no pending transaction,
// the kernel asks it for a thread to run. Implementations are typically
// backed by a shared ring the agent keeps filled.
type BPFProgram interface {
	PickNextOnIdle(cpu hw.CPUID) *kernel.Thread
}

// Agent is the kernel-side handle of an attached userspace agent thread:
// its CPU, its Aseq status word, and its queue association.
type Agent struct {
	enc    *Enclave
	cpu    hw.CPUID
	thread *kernel.Thread
	queue  *Queue // queue this agent consumes (for TIMER_TICK routing)
	aseq   uint64
	sw     StatusWord

	attached bool
}

// CPU returns the agent's home CPU.
func (a *Agent) CPU() hw.CPUID { return a.cpu }

// Thread returns the agent's kernel thread.
func (a *Agent) Thread() *kernel.Thread { return a.thread }

// Seq returns the agent's current Aseq, as read from its status word
// (shared memory, no syscall).
func (a *Agent) Seq() uint64 { return a.sw.Seq }

// Enclave is a CPU partition running one scheduling policy (§3, Fig 2).
type Enclave struct {
	id   int
	g    *Class
	k    *kernel.Kernel
	cpus kernel.Mask

	defaultQueue *Queue
	queues       []*Queue

	threads []*kernel.Thread // managed threads, strictly TID-ordered
	agents  []*Agent         // attached agents, indexed by CPU
	nagents int              // non-nil entries of agents

	bpf BPFProgram

	// DeliverTicks enables TIMER_TICK message delivery (§3.1).
	DeliverTicks bool

	// WatchdogTimeout, when non-zero, destroys the enclave if a runnable
	// thread goes unscheduled longer than this (§3.4).
	WatchdogTimeout sim.Duration
	watchdog        *sim.Ticker

	// upgradePending suppresses the crash fallback while a new agent
	// generation is waiting to take over (§3.4 dynamic upgrades).
	upgradePending bool
	// UpgradeTimeout bounds how long an upgrade may stay pending before
	// the enclave gives up on the new generation and falls back to CFS
	// instead of stranding its threads. Zero selects
	// DefaultUpgradeTimeout; set it before BeginUpgrade to override.
	UpgradeTimeout  sim.Duration
	upgradeDeadline *sim.Deadline
	tickless        bool

	destroyed    bool
	destroyCause error
}

// NewEnclave partitions the given CPUs into a new enclave. Panics if any
// CPU already belongs to a live enclave.
func NewEnclave(g *Class, cpus kernel.Mask) *Enclave {
	if cpus.Empty() {
		panic("ghostcore: enclave with no CPUs")
	}
	e := &Enclave{
		id:     g.nextEncID,
		g:      g,
		k:      g.k,
		cpus:   cpus,
		agents: make([]*Agent, g.k.NumCPUs()),
	}
	g.nextEncID++
	cpus.ForEach(func(c hw.CPUID) bool {
		if g.cpuOwner[c] != nil {
			panic(fmt.Sprintf("ghostcore: cpu %d already in enclave %d", c, g.cpuOwner[c].id))
		}
		g.cpuOwner[c] = e
		return true
	})
	e.defaultQueue = e.CreateQueue("default")
	g.enclaves = append(g.enclaves, e)
	g.live = append(g.live, e)
	return e
}

// ID returns the enclave id.
func (e *Enclave) ID() int { return e.id }

// CPUs returns the enclave's CPU mask.
func (e *Enclave) CPUs() kernel.Mask { return e.cpus }

// Destroyed reports whether the enclave has been torn down.
func (e *Enclave) Destroyed() bool { return e.destroyed }

// DestroyCause reports why the enclave was torn down, nil while it is
// alive. The cause wraps one of the typed sentinels (ErrWatchdog,
// ErrAgentCrash, ErrUpgradeTimeout, ErrDestroyed), so callers classify
// it with errors.Is.
func (e *Enclave) DestroyCause() error { return e.destroyCause }

// DefaultQueue returns the queue threads are implicitly associated with.
func (e *Enclave) DefaultQueue() *Queue { return e.defaultQueue }

// CreateQueue creates a message queue (CREATE_QUEUE).
func (e *Enclave) CreateQueue(name string) *Queue {
	q := &Queue{enc: e, name: name}
	e.queues = append(e.queues, q)
	return q
}

// DestroyQueue removes a queue (DESTROY_QUEUE). Threads associated with
// it fall back to the default queue.
func (e *Enclave) DestroyQueue(q *Queue) {
	q.dead = true
	for _, t := range e.threads {
		if gt := gstate(t); gt != nil && gt.q == q {
			gt.q = e.defaultQueue
		}
	}
	for i, qq := range e.queues {
		if qq == q {
			e.queues = append(e.queues[:i], e.queues[i+1:]...)
			return
		}
	}
}

// AssociateQueue redirects a thread's messages to q (ASSOCIATE_QUEUE).
// Per §3.1 it fails if the thread still has undrained messages in its
// current queue, in which case the agent must drain and retry.
func (e *Enclave) AssociateQueue(t *kernel.Thread, q *Queue) error {
	gt := gstate(t)
	if gt == nil || gt.enc != e {
		return fmt.Errorf("ghostcore: thread %v not in enclave %d", t, e.id)
	}
	if gt.pendingMsgs > 0 {
		return fmt.Errorf("ghostcore: thread %v has %d pending messages", t, gt.pendingMsgs)
	}
	gt.q = q
	return nil
}

// ConfigQueueWakeup makes q wake agent a when messages are produced
// (CONFIG_QUEUE_WAKEUP); pass nil to make it polled (centralized model).
// The agent's Aseq advances on every post either way.
func (e *Enclave) ConfigQueueWakeup(q *Queue, a *Agent, wake bool) {
	q.seqAgent = a
	if wake {
		q.wakeAgent = a
	} else {
		q.wakeAgent = nil
	}
	if a != nil {
		a.queue = q
	}
}

// AddThread moves a native thread under ghOSt management in this enclave
// (the thread joins the ghOSt scheduling class; the agent learns of it
// via THREAD_CREATED).
func (e *Enclave) AddThread(t *kernel.Thread) {
	if e.destroyed {
		panic("ghostcore: AddThread on destroyed enclave")
	}
	e.g.pendingEnclave = e
	e.k.SetClass(t, e.g)
	e.g.pendingEnclave = nil
}

// SpawnThread spawns a new thread directly into this enclave.
func (e *Enclave) SpawnThread(opts kernel.SpawnOpts, body kernel.ThreadFunc) *kernel.Thread {
	if e.destroyed {
		panic("ghostcore: SpawnThread on destroyed enclave")
	}
	opts.Class = e.g
	e.g.pendingEnclave = e
	t := e.k.Spawn(opts, body)
	e.g.pendingEnclave = nil
	return t
}

// Threads returns a copy of the threads currently managed by the
// enclave, in TID order, for callers that change the set while walking
// it or keep the result.
func (e *Enclave) Threads() []*kernel.Thread {
	return append([]*kernel.Thread(nil), e.threads...)
}

// ThreadsView returns the managed threads in TID order without copying.
// The slice is the enclave's own: callers must not modify it, and it is
// valid only until a thread joins or leaves the enclave. A new agent
// generation walks it to rebuild its state after an upgrade.
func (e *Enclave) ThreadsView() []*kernel.Thread { return e.threads }

// threadIndex returns where tid sits (or would sit) in e.threads.
func (e *Enclave) threadIndex(tid kernel.TID) (int, bool) {
	return slices.BinarySearchFunc(e.threads, tid, func(t *kernel.Thread, tid kernel.TID) int { return cmp.Compare(t.TID(), tid) })
}

// RunnableThreads returns managed threads that are runnable and waiting
// for a scheduling decision, in TID order.
func (e *Enclave) RunnableThreads() []*kernel.Thread {
	var out []*kernel.Thread
	for _, t := range e.threads {
		if gt := gstate(t); gt != nil && gt.runnable && !gt.latched {
			out = append(out, t)
		}
	}
	return out
}

// StatusWord returns a thread's status word for shared-memory polling.
func (e *Enclave) StatusWord(t *kernel.Thread) *StatusWord {
	gt := gstate(t)
	if gt == nil {
		return nil
	}
	return &gt.sw
}

// ThreadSeq returns the thread's current Tseq.
func (e *Enclave) ThreadSeq(t *kernel.Thread) uint64 {
	gt := gstate(t)
	if gt == nil {
		return 0
	}
	return gt.tseq
}

// AttachAgent registers an agent thread for cpu (AGENT_INIT). The agent
// thread must be pinned to cpu and scheduled by the agent class.
func (e *Enclave) AttachAgent(cpu hw.CPUID, t *kernel.Thread) *Agent {
	if !e.cpus.Has(cpu) {
		panic(fmt.Sprintf("ghostcore: agent cpu %d outside enclave", cpu))
	}
	// Aseq starts at 1 so that 0 always means "no sequence check".
	a := &Agent{enc: e, cpu: cpu, thread: t, attached: true, aseq: 1}
	a.sw.Seq = 1
	if e.agents[cpu] == nil {
		e.nagents++
	}
	e.agents[cpu] = a
	if e.upgradePending {
		e.upgradePending = false
		if e.upgradeDeadline != nil {
			e.upgradeDeadline.Cancel()
		}
		if tr := e.k.Tracer(); tr != nil {
			tr.EnclaveEvent(e.k.Now(), e.id, "upgrade-attach", fmt.Sprintf("cpu%d", cpu))
		}
	}
	return a
}

// DetachAgent removes an agent (exit or crash). When the last agent
// detaches without a pending upgrade, the enclave falls back: it is
// destroyed and all threads return to the default scheduler (§3.4).
func (e *Enclave) DetachAgent(a *Agent) {
	if !a.attached {
		return
	}
	a.attached = false
	if e.agents[a.cpu] == a {
		e.agents[a.cpu] = nil
		e.nagents--
	}
	if e.nagents == 0 && !e.upgradePending && !e.destroyed {
		e.DestroyWith(fmt.Errorf("%w: all agents exited", ErrAgentCrash))
	}
}

// DefaultUpgradeTimeout is the upgrade-attach timeout used when
// Enclave.UpgradeTimeout is zero.
const DefaultUpgradeTimeout = 50 * sim.Millisecond

// BeginUpgrade announces that a new agent generation will attach shortly:
// the crash fallback is suppressed so threads stay in the enclave across
// the handover (§3.4 "replacing agents while keeping the enclave").
//
// The suppression is bounded: if no successor attaches within
// UpgradeTimeout the enclave is destroyed and its threads fall back to
// CFS, so a failed upgrade degrades like a crash instead of stranding
// runnable threads forever.
func (e *Enclave) BeginUpgrade() {
	if e.destroyed {
		return
	}
	e.upgradePending = true
	if tr := e.k.Tracer(); tr != nil {
		tr.EnclaveEvent(e.k.Now(), e.id, "upgrade-begin", "")
	}
	timeout := e.UpgradeTimeout
	if timeout <= 0 {
		timeout = DefaultUpgradeTimeout
	}
	if e.upgradeDeadline == nil {
		e.upgradeDeadline = sim.NewDeadline(e.k.Scheduler())
	}
	e.upgradeDeadline.Arm(e.k.Now()+timeout, e.upgradeTimedOut)
}

// upgradeTimedOut fires when a pending upgrade's successor never
// attached: re-arm the crash fallback and, if the old generation is
// already gone, destroy the enclave now (CFS fallback).
func (e *Enclave) upgradeTimedOut() {
	if e.destroyed || !e.upgradePending {
		return
	}
	e.upgradePending = false
	if tr := e.k.Tracer(); tr != nil {
		tr.EnclaveEvent(e.k.Now(), e.id, "upgrade-timeout", "")
	}
	if e.nagents == 0 {
		e.DestroyWith(ErrUpgradeTimeout)
	}
}

// AgentsAttached reports how many agents are currently attached; new
// agent generations epoll on this reaching zero before taking over.
func (e *Enclave) AgentsAttached() int { return e.nagents }

// agentOn returns the agent attached on cpu, nil if none.
func (e *Enclave) agentOn(cpu hw.CPUID) *Agent {
	if cpu < 0 || int(cpu) >= len(e.agents) {
		return nil
	}
	return e.agents[cpu]
}

// tickQueue picks the queue receiving cpu's TIMER_TICK messages.
func (e *Enclave) tickQueue(cpu hw.CPUID) *Queue {
	if a := e.agentOn(cpu); a != nil && a.queue != nil {
		return a.queue
	}
	// Centralized model: ticks flow to whichever queue the (single)
	// attached agent consumes, else the default queue. Multi-agent
	// enclaves take the lowest-CPU agent's queue.
	for _, a := range e.agents {
		if a != nil && a.queue != nil {
			return a.queue
		}
	}
	return e.defaultQueue
}

// SetBPF attaches the enclave's BPF pick_next_task program (§3.2).
func (e *Enclave) SetBPF(p BPFProgram) { e.bpf = p }

// SetTickless disables (or re-enables) timer ticks on every enclave CPU
// (§5): with a spinning global agent making all decisions, per-CPU ticks
// only cause VM-exit jitter for guest workloads. Re-enabled
// automatically when the enclave is destroyed.
func (e *Enclave) SetTickless(on bool) {
	e.tickless = on
	e.cpus.ForEach(func(c hw.CPUID) bool {
		e.k.SetTickless(c, on)
		return true
	})
}

// LatchedFor returns the thread committed-but-not-yet-switched-in on
// cpu, nil if none: either an installed latch awaiting pick, or a commit
// whose IPI is still in flight. Agents and policies use this to avoid
// double-committing a CPU.
func (e *Enclave) LatchedFor(cpu hw.CPUID) *kernel.Thread {
	if e.g.Mut.DoubleLatch {
		// Seeded double-latch bug: claim no commit is pending, so agents
		// and policies happily commit a second thread to the CPU.
		return nil
	}
	if !e.cpus.Has(cpu) {
		return nil
	}
	if s := e.g.slots[cpu]; s != nil {
		return s
	}
	if s := e.g.inflight[cpu]; s != nil {
		if gt := gstate(s); gt != nil && gt.latched {
			return s
		}
		e.g.inflight[cpu] = nil
	}
	return nil
}

// DebugThreadState reports the ghOSt-side view of a thread (runnable,
// latched) for diagnostics and tests.
func (e *Enclave) DebugThreadState(t *kernel.Thread) (runnable, latched bool) {
	gt := gstate(t)
	if gt == nil {
		return false, false
	}
	return gt.runnable, gt.latched
}

// DebugRunnableSince returns when the thread last entered the
// runnable-waiting state (zero if it never has). Invariant checkers use
// it to bound scheduling-decision latency.
func (e *Enclave) DebugRunnableSince(t *kernel.Thread) sim.Time {
	gt := gstate(t)
	if gt == nil {
		return 0
	}
	return gt.runnableSince
}

// DebugInstall, when set, observes every transaction install attempt.
var DebugInstall func(t *kernel.Thread, cpu hw.CPUID, destroyed, latched bool, state int)

// TxnCreate opens a transaction to run t on cpu (TXN_CREATE).
func (e *Enclave) TxnCreate(tid kernel.TID, cpu hw.CPUID) *Txn {
	return &Txn{TID: tid, CPU: cpu}
}

// TxnsCommit validates and applies a group of transactions
// (TXNS_COMMIT, §3.2). Statuses are set synchronously, matching the
// syscall semantics; committed remote transactions take effect on their
// target CPUs after the (batched) IPI propagation delay from the cost
// model. a is the committing agent (used for Aseq validation and IPI
// distance); it may be nil for kernel-internal commits.
func (e *Enclave) TxnsCommit(a *Agent, txns []*Txn) {
	if e.destroyed {
		for _, txn := range txns {
			txn.Status = TxnInvalid
		}
		return
	}
	n := len(txns)
	if n > 1 {
		if tr := e.k.Tracer(); tr != nil {
			tr.GroupCommit(e.k.Now(), e.id, n, false)
		}
	}
	for _, txn := range txns {
		e.commitOne(a, txn, n)
	}
	e.g.obsTxnGroup(e, txns, false)
}

// TxnsCommitAtomic is the synchronized group commit used by per-core
// scheduling policies (§4.5): the transactions either all commit or all
// fail (status TxnInvalid is set on otherwise-valid members of a failed
// group, mirroring the aborted-commit semantics).
func (e *Enclave) TxnsCommitAtomic(a *Agent, txns []*Txn) bool {
	if e.destroyed {
		for _, txn := range txns {
			txn.Status = TxnInvalid
		}
		return false
	}
	tr := e.k.Tracer()
	for _, txn := range txns {
		if s, cause := e.validate(a, txn); s != TxnCommitted {
			txn.Status = s
			e.g.TxnsFailed++
			if tr != nil {
				tr.TxnFailed(e.k.Now(), e.id, uint64(txn.TID), txn.CPU, s.String(), cause)
			}
			for _, other := range txns {
				if other != txn && other.Status == TxnPending {
					other.Status = TxnInvalid
					e.g.TxnsFailed++
					if tr != nil {
						tr.TxnFailed(e.k.Now(), e.id, uint64(other.TID), other.CPU,
							TxnInvalid.String(), "group-abort")
					}
				}
			}
			e.g.obsTxnGroup(e, txns, true)
			return false
		}
	}
	n := len(txns)
	if tr != nil {
		tr.GroupCommit(e.k.Now(), e.id, n, true)
	}
	for _, txn := range txns {
		e.apply(a, txn, n)
	}
	e.g.obsTxnGroup(e, txns, true)
	return true
}

// PreemptCPU kicks the ghOSt thread currently running on cpu off the CPU
// (it returns to the agent with THREAD_PREEMPTED) and clears any latched
// transaction. Used to force a sibling idle for core scheduling.
func (e *Enclave) PreemptCPU(cpu hw.CPUID) {
	if !e.cpus.Has(cpu) {
		return
	}
	g := e.g
	if s := g.slots[cpu]; s != nil {
		if gt := gstate(s); gt != nil {
			gt.latched = false
			g.obsUnlatched(e, cpu, s, "preempt-cpu")
		}
		g.slots[cpu] = nil
		g.Preemptions++
		g.postThreadMsg(s, MsgThreadPreempted)
	}
	if s := g.inflight[cpu]; s != nil {
		if gt := gstate(s); gt != nil && gt.latched {
			gt.latched = false
			g.obsUnlatched(e, cpu, s, "preempt-cpu")
			g.Preemptions++
			g.postThreadMsg(s, MsgThreadPreempted)
		}
		g.inflight[cpu] = nil
	}
	curr := e.k.CPU(cpu).Curr()
	if curr != nil && curr.Class() == kernel.Class(g) {
		e.k.ForceOffCPU(curr)
	}
}

// validate checks a transaction without side effects. The second return
// is the ESTALE cause ("aseq" or "tseq") for tracing, empty otherwise.
func (e *Enclave) validate(a *Agent, txn *Txn) (TxnStatus, string) {
	if in := e.k.Faults(); in != nil && in.OnTxnValidate(e.k.Now(), e.id) {
		// Injected commit failure burst: the syscall reports EINVAL and
		// the policy's OnTxnFail path must re-enqueue the thread.
		return TxnInvalid, "fault"
	}
	g := e.g
	t := e.k.Thread(txn.TID)
	if t == nil {
		return TxnInvalid, ""
	}
	gt := gstate(t)
	if gt == nil || gt.enc != e {
		return TxnInvalid, ""
	}
	if !e.cpus.Has(txn.CPU) {
		return TxnCPUNotAvail, ""
	}
	if txn.AgentSeq != 0 && a != nil && a.aseq > txn.AgentSeq {
		return TxnESTALE, "aseq"
	}
	if txn.ThreadSeq != 0 && gt.tseq > txn.ThreadSeq {
		return TxnESTALE, "tseq"
	}
	if t.State() != kernel.StateRunnable || !gt.runnable || gt.latched {
		return TxnThreadNotRunnable, ""
	}
	if !t.Affinity().Has(txn.CPU) {
		return TxnAffinityViolation, ""
	}
	target := e.k.CPU(txn.CPU)
	local := a != nil && a.cpu == txn.CPU
	if !local {
		if curr := target.Curr(); curr != nil && curr.Class() != kernel.Class(g) {
			// Occupied by a higher class (CFS, agents, ...): the commit
			// would never take effect promptly; fail fast.
			return TxnCPUNotAvail, ""
		}
	}
	return TxnCommitted, ""
}

// commitOne validates one transaction and, if accepted, latches the
// thread and schedules the install on the target CPU.
func (e *Enclave) commitOne(a *Agent, txn *Txn, groupSize int) {
	if s, cause := e.validate(a, txn); s != TxnCommitted {
		txn.Status = s
		e.g.TxnsFailed++
		if tr := e.k.Tracer(); tr != nil {
			tr.TxnFailed(e.k.Now(), e.id, uint64(txn.TID), txn.CPU, s.String(), cause)
		}
		return
	}
	e.apply(a, txn, groupSize)
}

// installRec carries one committed transaction's install parameters from
// commit time to IPI arrival. Records are pooled on the Class and
// dispatched through its pre-bound installFn, so the remote-commit hot
// path schedules without allocating.
type installRec struct {
	e     *Enclave
	t     *kernel.Thread
	gt    *ghostThread
	cpu   hw.CPUID
	local bool
	a     *Agent
}

func (g *Class) getInstallRec() *installRec {
	if n := len(g.installPool); n > 0 {
		rec := g.installPool[n-1]
		g.installPool[n-1] = nil
		g.installPool = g.installPool[:n-1]
		return rec
	}
	return &installRec{}
}

// installFire adapts doInstall to the engine's pre-bound callback shape.
func (g *Class) installFire(a any) { g.doInstall(a.(*installRec)) }

// doInstall performs the target-CPU side of a committed transaction:
// clear the in-flight marker, re-check the thread is still installable,
// then latch it into the CPU slot and trigger a scheduling pass.
func (g *Class) doInstall(rec *installRec) {
	e, t, gt, a := rec.e, rec.t, rec.gt, rec.a
	cpu, local := rec.cpu, rec.local
	*rec = installRec{}
	g.installPool = append(g.installPool, rec)

	if g.inflight[cpu] == t {
		g.inflight[cpu] = nil
	}
	if DebugInstall != nil {
		DebugInstall(t, cpu, e.destroyed, gt.latched, int(t.State()))
	}
	if e.destroyed || !gt.latched || t.State() != kernel.StateRunnable {
		return
	}
	if curr := e.k.CPU(cpu).Curr(); curr != nil && curr.Class() != kernel.Class(g) &&
		!(local && a != nil && curr == a.thread) {
		// The CPU was taken by a higher class while the IPI was in
		// flight (a local commit's own agent is expected and about
		// to yield); drop the latch and hand the thread back to the
		// agent as a preemption rather than parking it forever.
		gt.latched = false
		g.obsUnlatched(e, cpu, t, "cpu-taken")
		g.Preemptions++
		g.postThreadMsg(t, MsgThreadPreempted)
		return
	}
	if old := g.slots[cpu]; old != nil && old != t && !g.Mut.DoubleLatch {
		// Displaced latch: hand the old thread back to the agent. (Under
		// the seeded DoubleLatch mutation the handback is skipped, so the
		// displaced thread is silently lost — the bug the status-word
		// oracle must catch.)
		ogt := gstate(old)
		ogt.latched = false
		g.obsUnlatched(e, cpu, old, "displaced")
		g.Enqueue(old, cpu, kernel.EnqPreempt)
	}
	g.slots[cpu] = t
	e.k.Resched(cpu)
}

// apply latches a validated transaction and schedules its install.
func (e *Enclave) apply(a *Agent, txn *Txn, groupSize int) {
	g := e.g
	t := e.k.Thread(txn.TID)
	gt := gstate(t)
	local := a != nil && a.cpu == txn.CPU
	txn.Status = TxnCommitted
	g.TxnsOK++
	gt.latched = true
	g.inflight[txn.CPU] = t
	g.obsLatched(e, txn.CPU, t)

	rec := g.getInstallRec()
	*rec = installRec{e: e, t: t, gt: gt, cpu: txn.CPU, local: local, a: a}
	tr := e.k.Tracer()
	if local {
		if tr != nil {
			// Local commit-to-run latency is the Table 3 local-schedule
			// path (validation + dispatch + context switch).
			tr.TxnCommitted(e.k.Now(), e.id, uint64(txn.TID), txn.CPU, groupSize,
				true, e.k.Cost().LocalSchedule)
		}
		g.doInstall(rec)
		return
	}
	cross := a != nil && e.k.Topology().Dist(a.cpu, txn.CPU) == hw.DistRemote
	delay := e.k.Cost().RemoteCommitTargetCost(groupSize, cross)
	if in := e.k.Faults(); in != nil {
		lost, extra := in.OnIPI(e.k.Now(), e.id)
		if lost {
			// A lost reschedule IPI is recovered when the next timer tick
			// on the target CPU notices the pending latch: model it as a
			// deferral by one full tick period.
			extra += e.k.Cost().TickPeriod
		}
		delay += extra
	}
	if tr != nil {
		// Remote commit-to-run latency: this transaction's share of the
		// agent-side group commit plus the IPI/target install cost.
		lat := e.k.Cost().RemoteCommitAgentCost(groupSize)/sim.Duration(groupSize) + delay
		tr.TxnCommitted(e.k.Now(), e.id, uint64(txn.TID), txn.CPU, groupSize, false, lat)
		tr.IPI(e.k.Now(), txn.CPU, delay, groupSize)
	}
	e.k.Scheduler().AfterCall(delay, g.installFn, rec)
}

// TxnsRecall revokes committed transactions whose target threads have
// not yet been switched in (TXNS_RECALL, Table 1). Recalled threads
// return to the runnable-waiting state; the count of recalls is
// returned. Transactions whose thread already started running are left
// alone.
func (e *Enclave) TxnsRecall(txns []*Txn) int {
	n := 0
	for _, txn := range txns {
		if txn.Status != TxnCommitted {
			continue
		}
		t := e.k.Thread(txn.TID)
		if t == nil {
			continue
		}
		gt := gstate(t)
		if gt == nil || gt.enc != e || !gt.latched {
			continue
		}
		gt.latched = false
		e.g.obsUnlatched(e, txn.CPU, t, "recall")
		if e.g.slots[txn.CPU] == t {
			e.g.slots[txn.CPU] = nil
		}
		if e.g.inflight[txn.CPU] == t {
			e.g.inflight[txn.CPU] = nil
		}
		txn.Status = TxnRecalled
		if tr := e.k.Tracer(); tr != nil {
			tr.TxnRecalled(e.k.Now(), e.id, uint64(txn.TID), txn.CPU)
		}
		n++
	}
	return n
}

// SetHint attaches an application-supplied scheduling hint to a thread
// (the "optional scheduling hints" channel of Fig 1). Hints are opaque
// to the kernel; policies read them with Hint.
func (e *Enclave) SetHint(t *kernel.Thread, hint any) {
	if gt := gstate(t); gt != nil && gt.enc == e {
		gt.hint = hint
	}
}

// Hint returns the thread's current scheduling hint, nil if none.
func (e *Enclave) Hint(t *kernel.Thread) any {
	if gt := gstate(t); gt != nil && gt.enc == e {
		return gt.hint
	}
	return nil
}

// Destroy tears the enclave down: agents are killed, all managed threads
// fall back to the default scheduler, and the CPUs are released (§3.4).
func (e *Enclave) Destroy() { e.DestroyWith(ErrDestroyed) }

// DestroyWith records why the enclave died. cause should wrap one of the
// typed sentinels (ErrWatchdog, ErrAgentCrash, ErrUpgradeTimeout,
// ErrDestroyed) so DestroyCause stays classifiable with errors.Is.
func (e *Enclave) DestroyWith(cause error) {
	if e.destroyed {
		return
	}
	e.destroyed = true
	e.destroyCause = cause
	// Copy rather than delete in place: a caller may hold Enclaves().
	e.g.live = slices.DeleteFunc(slices.Clone(e.g.live), func(le *Enclave) bool { return le == e })
	if tr := e.k.Tracer(); tr != nil {
		tr.EnclaveEvent(e.k.Now(), e.id, "destroy", cause.Error())
	}
	if e.watchdog != nil {
		e.watchdog.Stop()
		e.watchdog = nil
	}
	if e.upgradeDeadline != nil {
		e.upgradeDeadline.Cancel()
	}
	e.k.Tracef("enclave %d destroyed: %s", e.id, cause)
	if e.tickless {
		e.SetTickless(false)
	}
	// Capture the managed set before the fallback empties it, so
	// observers can audit that every thread left the ghOSt class.
	managed := e.Threads()
	// Clear latched slots.
	e.cpus.ForEach(func(c hw.CPUID) bool {
		if s := e.g.slots[c]; s != nil {
			if gt := gstate(s); gt != nil {
				gt.latched = false
				e.g.obsUnlatched(e, c, s, "destroy")
			}
			e.g.slots[c] = nil
		}
		e.g.inflight[c] = nil
		e.g.cpuOwner[c] = nil
		return true
	})
	// Kill agents in CPU order: each Kill schedules kernel work, so the
	// order shows in the event sequence.
	for cpu, a := range e.agents {
		if a == nil {
			continue
		}
		a.attached = false
		if a.thread != nil {
			e.k.Kill(a.thread)
		}
		e.agents[cpu] = nil
	}
	e.nagents = 0
	// Threads fall back to the default scheduler, still fully
	// functional (§3.4).
	for _, t := range managed {
		if t.State() != kernel.StateDead {
			e.k.SetClass(t, e.g.fallback)
		}
	}
	e.threads = nil
	e.g.obsDestroyed(e, cause, managed)
}

// EnableWatchdog starts the enclave watchdog (§3.4): if any runnable
// thread waits longer than timeout for a scheduling decision, the
// enclave is destroyed and its threads fall back to the default
// scheduler.
func (e *Enclave) EnableWatchdog(timeout sim.Duration) {
	if timeout <= 0 {
		panic("ghostcore: watchdog timeout must be positive")
	}
	e.WatchdogTimeout = timeout
	if tr := e.k.Tracer(); tr != nil {
		tr.EnclaveEvent(e.k.Now(), e.id, "watchdog-armed", timeout.String())
	}
	period := timeout / 4
	if period < sim.Millisecond {
		period = sim.Millisecond
	}
	e.watchdog = sim.NewTicker(e.k.Scheduler(), period, e.watchdogCheck)
	e.watchdog.Key = fmt.Sprintf("enclave.%d.watchdog", e.id)
}

// watchdogCheck is the periodic starvation scan behind EnableWatchdog.
func (e *Enclave) watchdogCheck(now sim.Time) {
	if e.destroyed {
		return
	}
	// TID order: the destroy reason names the first starved thread, and
	// that choice must be reproducible. DestroyWith empties e.threads, so
	// the walk returns right after it.
	for _, t := range e.threads {
		gt := gstate(t)
		if gt != nil && gt.runnable && !gt.latched && now-gt.runnableSince > e.WatchdogTimeout {
			if tr := e.k.Tracer(); tr != nil {
				tr.EnclaveEvent(now, e.id, "watchdog-fired", t.Name())
			}
			e.DestroyWith(fmt.Errorf("%w: %v runnable for %v", ErrWatchdog, t, now-gt.runnableSince))
			return
		}
	}
}
