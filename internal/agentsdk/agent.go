// Package agentsdk is the userspace half of ghOSt: the support library
// that agents are written against (the paper's "ghOSt Userspace Support
// Library"). It runs scheduling policies inside agent threads, pumps
// kernel messages to them, commits their decisions as transactions, and
// implements the centralized model's hot handoff and the per-CPU model's
// local commit loop.
package agentsdk

import (
	"errors"
	"fmt"
	"sort"

	"ghost/internal/faults"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/stats"
)

// Assignment is one scheduling decision of a centralized policy: run
// Thread on CPU.
type Assignment struct {
	Thread *kernel.Thread
	CPU    hw.CPUID
	// NoSeqCheck disables the Tseq staleness check for this transaction
	// (policies normally leave it false, matching §3.3).
	NoSeqCheck bool
	// Group, when non-zero, marks assignments that must commit
	// atomically with every other assignment sharing the same Group id
	// (the §4.5 synchronized per-core group commit).
	Group int
}

// GlobalPolicy is the interface of a centralized (single global agent)
// scheduling policy (§3.3, Fig 4).
type GlobalPolicy interface {
	// Attach is called once when the policy takes over an enclave; it
	// rebuilds any state from ctx.Enclave (used for in-place upgrades).
	Attach(ctx *Context)
	// OnMessage processes one kernel message.
	OnMessage(ctx *Context, m ghostcore.Message)
	// Schedule maps runnable threads to CPUs. Called after messages are
	// drained and whenever capacity changes.
	Schedule(ctx *Context) []Assignment
	// OnTxnFail is invoked for each assignment whose transaction did not
	// commit, so the policy can re-enqueue the thread.
	OnTxnFail(ctx *Context, a Assignment, status ghostcore.TxnStatus)
}

// PerCPUPolicy is the interface of a per-CPU scheduling policy (§3.2,
// Fig 3): each CPU's agent picks the next thread for its own CPU.
type PerCPUPolicy interface {
	// Attach is called once when the policy takes over the enclave.
	Attach(ctx *Context)
	// AssignCPU places a newly created thread on a CPU (its message
	// queue is associated with that CPU's agent).
	AssignCPU(ctx *Context, t *kernel.Thread) hw.CPUID
	// OnMessage processes one message routed to cpu's queue.
	OnMessage(ctx *Context, cpu hw.CPUID, m ghostcore.Message)
	// PickNext chooses the thread to run on cpu, nil to idle.
	PickNext(ctx *Context, cpu hw.CPUID) *kernel.Thread
	// OnTxnFail reports a failed local commit.
	OnTxnFail(ctx *Context, cpu hw.CPUID, t *kernel.Thread, status ghostcore.TxnStatus)
}

// Context gives policies access to enclave state and agent facilities.
type Context struct {
	set     *AgentSet
	Enclave *ghostcore.Enclave
	Kernel  *kernel.Kernel

	// idleScratch backs IdleCPUs between calls; policies call it every
	// scheduling step, so reusing it keeps the step alloc-free.
	idleScratch []hw.CPUID
}

// Now returns the current simulated time.
func (c *Context) Now() sim.Time { return c.Kernel.Now() }

// Topology returns the machine topology.
func (c *Context) Topology() *hw.Topology { return c.Kernel.Topology() }

// IsIdle reports whether cpu is idle (no thread at all).
func (c *Context) IsIdle(cpu hw.CPUID) bool { return c.Kernel.CPU(cpu).Idle() }

// IdleCPUs returns the enclave's idle CPUs (GetIdleCPUs() in Fig 4).
// CPUs with a committed-but-not-yet-installed transaction are excluded:
// re-assigning them would displace the in-flight commit.
//
// The returned slice is a scratch buffer valid until the next IdleCPUs
// call on this Context; callers may filter it in place but must not
// retain it across scheduling steps.
func (c *Context) IdleCPUs() []hw.CPUID {
	out := c.idleScratch[:0]
	c.Enclave.CPUs().ForEach(func(id hw.CPUID) bool {
		if c.Kernel.CPU(id).Idle() && c.Enclave.LatchedFor(id) == nil {
			out = append(out, id)
		}
		return true
	})
	c.idleScratch = out
	return out
}

// GlobalCPU returns the CPU the active global agent runs on, hw.NoCPU in
// per-CPU mode.
func (c *Context) GlobalCPU() hw.CPUID { return c.set.globalCPU }

// RepollAfter schedules the agent to run again after d even without new
// messages; preemptive policies (e.g. Shinjuku's 30 µs timeslice) use
// this as their virtual timer. The poke callback is bound once per agent
// set so each repoll schedules allocation-free.
func (c *Context) RepollAfter(d sim.Duration) {
	c.Kernel.Scheduler().AfterCall(d, pokeActiveFn, c.set)
}

// pokeActiveFn dispatches a repoll timer to its agent set.
func pokeActiveFn(a any) { a.(*AgentSet).pokeActive() }

// Thread resolves a TID to the kernel thread, nil if gone.
func (c *Context) Thread(tid kernel.TID) *kernel.Thread { return c.Kernel.Thread(tid) }

// MoveThread re-routes a thread's messages to cpu's agent queue (per-CPU
// model work-stealing, §3.1). It retries the drain-and-reassociate
// protocol once and reports success.
func (c *Context) MoveThread(t *kernel.Thread, cpu hw.CPUID) bool {
	set := c.set
	r, ok := set.runners[cpu]
	if !ok {
		return false
	}
	if err := c.Enclave.AssociateQueue(t, r.queue); err != nil {
		return false
	}
	set.threadCPU[t.TID()] = cpu
	set.nudge(r)
	return true
}

// nudge wakes a blocked agent or pokes a running one.
func (set *AgentSet) nudge(r *runner) {
	if r.thread.State() == kernel.StateBlocked {
		set.k.Wake(r.thread)
	} else {
		set.k.Poke(r.thread)
	}
}

// AgentSet is one generation of agents attached to an enclave: one agent
// thread per enclave CPU, of which (in centralized mode) one is the
// active global agent and the rest are inactive handoff targets.
type AgentSet struct {
	k   *kernel.Kernel
	enc *ghostcore.Enclave
	ac  *kernel.AgentClass
	ctx *Context

	global  GlobalPolicy
	percpu  PerCPUPolicy
	runners map[hw.CPUID]*runner

	globalCPU   hw.CPUID // active global agent home, NoCPU in per-CPU mode
	globalQueue *ghostcore.Queue
	threadCPU   map[kernel.TID]hw.CPUID // per-CPU mode thread placement

	// startOpts replays this generation's Start options onto the
	// successor when a forced-upgrade fault fires.
	startOpts    []Option
	repollTicker *sim.Ticker

	stopped bool

	// Stats.
	MsgDelivery   stats.Histogram // enqueue-to-drain latency
	Handoffs      uint64
	StepsExecuted uint64
	TxnsCommitted uint64
	TxnsFailed    uint64
}

// runner is one agent thread; run is its body.
type runner struct {
	set    *AgentSet
	cpu    hw.CPUID
	thread *kernel.Thread
	agent  *ghostcore.Agent
	queue  *ghostcore.Queue // per-CPU queue (per-CPU mode only)

	// Injected-fault state: until stallUntil the agent burns CPU making
	// no decisions; until slowUntil its step costs multiply by
	// slowFactor.
	stallUntil sim.Time
	slowUntil  sim.Time
	slowFactor float64
}

// Option configures Start.
type Option func(*startConfig)

type startConfig struct {
	mode    int // 0 = infer from policy type, 1 = global, 2 = per-CPU
	repoll  sim.Duration
	upgrade func() any
}

// Global forces the centralized (single global agent) model; normally
// inferred from the policy implementing GlobalPolicy.
func Global() Option { return func(c *startConfig) { c.mode = 1 } }

// PerCPU forces the per-CPU model; normally inferred from the policy
// implementing PerCPUPolicy.
func PerCPU() Option { return func(c *startConfig) { c.mode = 2 } }

// WithRepoll makes the agents re-run their scheduling loop every d even
// without new messages (a periodic virtual timer, like Shinjuku's
// timeslice poll).
func WithRepoll(d sim.Duration) Option { return func(c *startConfig) { c.repoll = d } }

// WithUpgradePolicy supplies the successor-policy factory used when a
// forced-upgrade fault fires: the running generation stops and a new one
// starts in place with factory's policy. Without it, upgrade faults are
// skipped (traced as "upgrade-skipped").
func WithUpgradePolicy(factory func() any) Option {
	return func(c *startConfig) { c.upgrade = factory }
}

// Start launches an agent set for enc running policy, inferring the
// scheduling model from the policy's type: a GlobalPolicy gets the
// centralized model (§3.3) and a PerCPUPolicy the per-CPU model (§3.2).
// Policies implementing both must pass Global() or PerCPU().
func Start(k *kernel.Kernel, enc *ghostcore.Enclave, ac *kernel.AgentClass, policy any, opts ...Option) *AgentSet {
	var cfg startConfig
	for _, o := range opts {
		o(&cfg)
	}
	gp, isGlobal := policy.(GlobalPolicy)
	pp, isPerCPU := policy.(PerCPUPolicy)
	switch {
	case cfg.mode == 1 && !isGlobal:
		panic(fmt.Sprintf("agentsdk: Global() requires a GlobalPolicy, got %T", policy))
	case cfg.mode == 2 && !isPerCPU:
		panic(fmt.Sprintf("agentsdk: PerCPU() requires a PerCPUPolicy, got %T", policy))
	case cfg.mode == 0 && isGlobal && isPerCPU:
		panic(fmt.Sprintf("agentsdk: %T implements both models; pass Global() or PerCPU()", policy))
	case cfg.mode == 0 && !isGlobal && !isPerCPU:
		panic(fmt.Sprintf("agentsdk: %T implements neither GlobalPolicy nor PerCPUPolicy", policy))
	}
	var set *AgentSet
	if cfg.mode == 1 || (cfg.mode == 0 && isGlobal) {
		set = startCentralized(k, enc, ac, gp)
	} else {
		set = startPerCPU(k, enc, ac, pp)
	}
	set.startOpts = opts
	if cfg.repoll > 0 {
		set.repollTicker = sim.NewTicker(k.Scheduler(), cfg.repoll, set.repollFire)
		set.repollTicker.Key = fmt.Sprintf("agentset.%d.repoll", enc.ID())
	}
	if in := k.Faults(); in != nil {
		set.registerFaultHooks(in, cfg.upgrade)
	}
	return set
}

// repollFire is the periodic virtual-timer tick behind WithRepoll.
func (set *AgentSet) repollFire(sim.Time) {
	if set.stopped || set.enc.Destroyed() {
		return
	}
	if set.globalCPU != hw.NoCPU {
		set.pokeActive()
		return
	}
	for _, r := range set.sortedRunners() {
		set.nudge(r)
	}
}

// registerFaultHooks wires this generation to the fault injector. The
// registration replaces the previous generation's, so fault delivery
// follows upgrade handoffs.
func (set *AgentSet) registerFaultHooks(in *faults.Injector, upgrade func() any) {
	encID := set.enc.ID()
	in.RegisterAgentHooks(encID, &faults.AgentHooks{
		Crash: func(now sim.Time) {
			if !set.stopped {
				set.Crash()
			}
		},
		Upgrade: func(now sim.Time) {
			if set.stopped || set.enc.Destroyed() {
				return
			}
			if upgrade == nil {
				if tr := set.k.Tracer(); tr != nil {
					tr.EnclaveEvent(now, encID, "upgrade-skipped", "no upgrade policy")
				}
				return
			}
			set.Stop()
			Start(set.k, set.enc, set.ac, upgrade(), set.startOpts...)
		},
		Stall: func(now sim.Time, cpu hw.CPUID, d sim.Duration) {
			set.eachTargetRunner(cpu, func(r *runner) {
				if now+d > r.stallUntil {
					r.stallUntil = now + d
				}
				// Nudge so a blocked agent wakes into the stall: a hung
				// agent occupies its CPU instead of sleeping politely.
				set.nudge(r)
			})
		},
		Slow: func(now sim.Time, cpu hw.CPUID, until sim.Time, factor float64) {
			set.eachTargetRunner(cpu, func(r *runner) {
				r.slowUntil = until
				r.slowFactor = factor
			})
		},
	})
}

// sortedRunners returns the runners in CPU order (the runners map must
// never be iterated directly: map order would leak nondeterminism into
// the event schedule).
func (set *AgentSet) sortedRunners() []*runner {
	cpus := make([]int, 0, len(set.runners))
	for cpu := range set.runners {
		cpus = append(cpus, int(cpu))
	}
	sort.Ints(cpus)
	out := make([]*runner, len(cpus))
	for i, cpu := range cpus {
		out[i] = set.runners[hw.CPUID(cpu)]
	}
	return out
}

// eachTargetRunner applies fn to the runner(s) a stall/slow fault
// targets: a specific CPU's agent, the active global agent (AnyCPU,
// centralized), or every agent (AnyCPU, per-CPU).
func (set *AgentSet) eachTargetRunner(cpu hw.CPUID, fn func(*runner)) {
	if cpu != faults.AnyCPU {
		if r, ok := set.runners[cpu]; ok {
			fn(r)
		}
		return
	}
	if set.globalCPU != hw.NoCPU {
		fn(set.runners[set.globalCPU])
		return
	}
	for _, r := range set.sortedRunners() {
		fn(r)
	}
}

// startCentralized launches the centralized model: a global agent on
// the first enclave CPU polling a single global queue, plus inactive
// agents on every other CPU for hot handoff (§3.3).
func startCentralized(k *kernel.Kernel, enc *ghostcore.Enclave, ac *kernel.AgentClass, policy GlobalPolicy) *AgentSet {
	set := newSet(k, enc, ac)
	set.global = policy
	// The default queue is the single global queue (Fig 2 right): every
	// managed thread posts there and the spinning global agent drains it.
	set.globalQueue = enc.DefaultQueue()
	first := enc.CPUs().CPUs()[0]
	set.globalCPU = first
	enc.ConfigQueueWakeup(set.globalQueue, set.runners[first].agent, true)
	policy.Attach(set.ctx)
	// Wake the global agent to start spinning.
	k.Wake(set.runners[first].thread)
	// Poke the agent whenever enclave CPUs go idle or feel CFS pressure.
	k.AddIdleHook(func(c *kernel.CPU) {
		if !set.stopped && enc.CPUs().Has(c.ID) && !enc.Destroyed() {
			set.pokeActive()
		}
	})
	k.AddPressureHook(func(c *kernel.CPU, incoming *kernel.Thread) {
		// Only non-ghOSt work (CFS, MicroQuanta daemons, ...) justifies
		// vacating the agent's CPU; ghOSt threads run wherever the
		// policy puts them.
		if incoming.Class().Priority() > kernel.PrioGhost {
			set.onPressure(c)
		}
	})
	return set
}

// startPerCPU launches the per-CPU model: one agent and one message
// queue per enclave CPU (§3.2, Fig 2 left).
func startPerCPU(k *kernel.Kernel, enc *ghostcore.Enclave, ac *kernel.AgentClass, policy PerCPUPolicy) *AgentSet {
	set := newSet(k, enc, ac)
	set.percpu = policy
	set.globalCPU = hw.NoCPU
	for _, r := range set.sortedRunners() {
		r.queue = enc.CreateQueue("cpu-queue")
		enc.ConfigQueueWakeup(r.queue, r.agent, true)
	}
	// New-thread routing: the default queue wakes the first CPU's agent,
	// which assigns threads to CPUs.
	first := enc.CPUs().CPUs()[0]
	enc.ConfigQueueWakeup(enc.DefaultQueue(), set.runners[first].agent, true)
	policy.Attach(set.ctx)
	return set
}

func newSet(k *kernel.Kernel, enc *ghostcore.Enclave, ac *kernel.AgentClass) *AgentSet {
	set := &AgentSet{
		k: k, enc: enc, ac: ac,
		runners:   make(map[hw.CPUID]*runner),
		threadCPU: make(map[kernel.TID]hw.CPUID),
	}
	set.ctx = &Context{set: set, Enclave: enc, Kernel: k}
	enc.CPUs().ForEach(func(cpu hw.CPUID) bool {
		r := &runner{set: set, cpu: cpu}
		r.thread = k.Spawn(kernel.SpawnOpts{
			Name:     "ghost-agent",
			Class:    ac,
			Affinity: kernel.MaskOf(cpu),
		}, r.run)
		r.agent = enc.AttachAgent(cpu, r.thread)
		set.runners[cpu] = r
		return true
	})
	return set
}

// Stop detaches and kills this agent generation, announcing an upgrade so
// the enclave survives (§3.4). A successor can then StartCentralized /
// StartPerCPU on the same enclave.
func (set *AgentSet) Stop() {
	set.stopped = true
	if set.repollTicker != nil {
		set.repollTicker.Stop()
	}
	set.enc.BeginUpgrade()
	for _, r := range set.sortedRunners() {
		set.enc.DetachAgent(r.agent)
		set.k.Kill(r.thread)
	}
}

// Crash kills the agents without announcing an upgrade: the enclave falls
// back to the default scheduler, as for a real agent crash (§3.4).
func (set *AgentSet) Crash() {
	set.stopped = true
	if set.repollTicker != nil {
		set.repollTicker.Stop()
	}
	for _, r := range set.sortedRunners() {
		set.k.Kill(r.thread)
		set.enc.DetachAgent(r.agent)
	}
}

// Kick nudges the agents to re-run their scheduling loop promptly even
// when no kernel messages are flowing. External controllers that queue
// decisions for the policy to execute (rather than reacting inside
// OnMessage/Schedule) must Kick after queueing: a quiescent system — all
// managed threads waiting for dispatch, no wakeups in flight — delivers
// no messages, so a spin-idling agent would otherwise never look at the
// queued decisions. In per-CPU mode every runner is nudged.
func (set *AgentSet) Kick() {
	if set.stopped {
		return
	}
	if set.globalCPU != hw.NoCPU {
		set.pokeActive()
		return
	}
	for _, r := range set.sortedRunners() {
		set.k.Poke(r.thread)
	}
}

// pokeActive nudges the active global agent.
func (set *AgentSet) pokeActive() {
	if set.stopped || set.globalCPU == hw.NoCPU {
		return
	}
	if r, ok := set.runners[set.globalCPU]; ok {
		set.k.Poke(r.thread)
	}
}

// onPressure implements the hot handoff (§3.3): when a CFS thread needs
// the global agent's CPU, move the global role to an inactive agent on an
// idle CPU and release this one.
func (set *AgentSet) onPressure(c *kernel.CPU) {
	if set.stopped || set.globalCPU == hw.NoCPU || c.ID != set.globalCPU {
		return
	}
	var target hw.CPUID = hw.NoCPU
	set.enc.CPUs().ForEach(func(id hw.CPUID) bool {
		if id != set.globalCPU && set.k.CPU(id).Idle() {
			target = id
			return false
		}
		return true
	})
	if target == hw.NoCPU {
		return // nowhere to go; CFS must wait (machine saturated)
	}
	old := set.runners[set.globalCPU]
	set.globalCPU = target
	set.Handoffs++
	next := set.runners[target]
	set.enc.ConfigQueueWakeup(set.globalQueue, next.agent, true)
	set.k.Wake(next.thread)
	// The old agent notices it is inactive at its next step and blocks;
	// poke it so that happens now.
	set.k.Poke(old.thread)
}

// run is the agent thread's body. Agents start parked, and Start wakes
// the one that begins spinning. Every later call is one scheduling step,
// made on the agent's CPU: dispatch to the mode-specific loop, applying
// any injected stall/slow fault first.
func (r *runner) run(tc *kernel.TaskContext) kernel.Op {
	if tc.Thread().State() == kernel.StateNew {
		return kernel.Park()
	}
	set := r.set
	now := tc.Now()
	if set.stopped || set.enc.Destroyed() {
		return tc.Exit()
	}
	if now < r.stallUntil {
		// Injected stall (§3.4 robustness: a GC-paused or buggy agent):
		// burn the CPU making no decisions until the stall ends.
		return tc.Run(r.stallUntil - now).Then(kernel.Spin())
	}
	set.StepsExecuted++
	if set.globalCPU != hw.NoCPU {
		if r.cpu != set.globalCPU {
			// Inactive agent: vacate the CPU immediately (§3.3).
			return kernel.Park()
		}
		return r.globalStep(tc, now)
	}
	return r.localStep(tc, now)
}

// slowed stretches a step's cost by an injected slow fault.
func (r *runner) slowed(now sim.Time, cost sim.Duration) sim.Duration {
	if now < r.slowUntil && r.slowFactor > 1 && cost > 0 {
		return sim.Duration(float64(cost) * r.slowFactor)
	}
	return cost
}

// errZeroCostRetry guards retry: at zero cost the agent would step again
// at the same instant forever.
var errZeroCostRetry = errors.New("agentsdk: zero-cost retry would livelock")

// retry charges a step's cost and then steps again: a Run with no
// follow-up.
func retry(tc *kernel.TaskContext, cost sim.Duration) kernel.Op {
	if cost == 0 {
		panic(errZeroCostRetry)
	}
	return tc.Run(cost)
}

// drain consumes a queue, charging per-message cost and recording
// delivery latency.
func (r *runner) drain(q *ghostcore.Queue, now sim.Time) ([]ghostcore.Message, sim.Duration) {
	cm := r.set.k.Cost()
	tr := r.set.k.Tracer()
	msgs := q.Drain()
	cost := sim.Duration(len(msgs)) * cm.MsgDequeue
	for _, m := range msgs {
		// Delivery latency in the Table 3 sense: producing the message,
		// any wakeup/propagation delay, and consuming it.
		lat := now - m.Posted + cm.MsgEnqueue + cm.MsgDequeue
		r.set.MsgDelivery.Record(lat)
		if tr != nil {
			tr.MsgDelivered(now, r.set.enc.ID(), r.cpu, m.Type.String(), uint64(m.TID), lat)
		}
	}
	return msgs, cost
}

// globalStep is the centralized scheduling loop (Fig 4).
func (r *runner) globalStep(tc *kernel.TaskContext, now sim.Time) kernel.Op {
	set := r.set
	cm := set.k.Cost()
	cost := cm.AgentLoopOverhead
	committed := 0

	msgs, c1 := r.drain(set.globalQueue, now)
	cost += c1
	for _, m := range msgs {
		set.global.OnMessage(set.ctx, m)
	}

	asgs := set.global.Schedule(set.ctx)
	if len(asgs) > 0 {
		var plain []*ghostcore.Txn
		var plainAsg []Assignment
		groups := make(map[int][]*ghostcore.Txn)
		groupAsg := make(map[int][]Assignment)
		n := 0
		for _, a := range asgs {
			if a.Thread == nil || a.CPU == set.globalCPU {
				continue
			}
			txn := set.enc.TxnCreate(a.Thread.TID(), a.CPU)
			if !a.NoSeqCheck {
				txn.ThreadSeq = set.enc.ThreadSeq(a.Thread)
			}
			n++
			if a.Group != 0 {
				groups[a.Group] = append(groups[a.Group], txn)
				groupAsg[a.Group] = append(groupAsg[a.Group], a)
			} else {
				plain = append(plain, txn)
				plainAsg = append(plainAsg, a)
			}
		}
		if n > 0 {
			committed = n
			cost += cm.Syscall + cm.RemoteCommitAgentCost(n)
			if len(plain) > 0 {
				set.enc.TxnsCommit(r.agent, plain)
				set.reportTxns(plain, plainAsg)
			}
			gids := make([]int, 0, len(groups))
			for gid := range groups {
				gids = append(gids, gid)
			}
			sort.Ints(gids) // deterministic commit order
			for _, gid := range gids {
				set.enc.TxnsCommitAtomic(r.agent, groups[gid])
				set.reportTxns(groups[gid], groupAsg[gid])
			}
		}
	}
	if tr := set.k.Tracer(); tr != nil {
		tr.AgentStep(now, set.enc.ID(), r.cpu, cost, len(msgs), committed, "global")
	}
	return tc.Run(r.slowed(now, cost)).Then(kernel.Spin())
}

// reportTxns tallies commit outcomes and routes failures to the policy.
func (set *AgentSet) reportTxns(txns []*ghostcore.Txn, asgs []Assignment) {
	for i, txn := range txns {
		if txn.Status == ghostcore.TxnCommitted {
			set.TxnsCommitted++
		} else {
			set.TxnsFailed++
			set.global.OnTxnFail(set.ctx, asgs[i], txn.Status)
		}
	}
}

// PreemptCPU exposes the enclave preemption op to policies.
func (c *Context) PreemptCPU(cpu hw.CPUID) { c.Enclave.PreemptCPU(cpu) }

// localStep is the per-CPU scheduling loop (Fig 3).
func (r *runner) localStep(tc *kernel.TaskContext, now sim.Time) kernel.Op {
	set := r.set
	cm := set.k.Cost()
	cost := cm.AgentLoopOverhead
	aseq := r.agent.Seq()
	drained := 0
	// span emits the wake→decision→commit span for this step on the
	// agent's trace track.
	span := func(txns int) {
		if tr := set.k.Tracer(); tr != nil {
			tr.AgentStep(now, set.enc.ID(), r.cpu, cost, drained, txns, "local")
		}
	}

	// The first CPU's agent also drains the default queue, assigning
	// new threads to CPUs.
	if r.cpu == set.enc.CPUs().CPUs()[0] {
		dmsgs, dc := r.drain(set.enc.DefaultQueue(), now)
		cost += dc
		drained += len(dmsgs)
		for _, m := range dmsgs {
			if m.Type == ghostcore.MsgThreadCreated {
				if t := set.k.Thread(m.TID); t != nil {
					cpu := set.percpu.AssignCPU(set.ctx, t)
					if tr, ok := set.runners[cpu]; ok {
						_ = set.enc.AssociateQueue(t, tr.queue)
						set.threadCPU[m.TID] = cpu
						set.percpu.OnMessage(set.ctx, cpu, m)
						if cpu != r.cpu {
							set.nudge(tr)
						}
						continue
					}
				}
			}
			// Route trailing messages (e.g. the wakeup that accompanied
			// creation) to the thread's assigned CPU.
			cpu := r.cpu
			if c, ok := set.threadCPU[m.TID]; ok {
				cpu = c
			}
			set.percpu.OnMessage(set.ctx, cpu, m)
			if cpu != r.cpu {
				set.nudge(set.runners[cpu])
			}
		}
	}

	msgs, mc := r.drain(r.queue, now)
	cost += mc
	drained += len(msgs)
	for _, m := range msgs {
		set.percpu.OnMessage(set.ctx, r.cpu, m)
	}

	if set.enc.LatchedFor(r.cpu) != nil {
		// A previous commit has not switched in yet (the agent was
		// re-woken before yielding); let it take effect.
		span(0)
		return tc.Run(r.slowed(now, cost)).Then(kernel.Park())
	}

	next := set.percpu.PickNext(set.ctx, r.cpu)
	if next == nil {
		span(0)
		return tc.Run(r.slowed(now, cost)).Then(kernel.Park())
	}
	txn := set.enc.TxnCreate(next.TID(), r.cpu)
	txn.AgentSeq = aseq
	// Local commit: validation plus the local dispatch path; together
	// with the context switch this reproduces Table 3 line 3 (888 ns).
	cost += cm.LocalSchedule - cm.ContextSwitchMinimal
	set.enc.TxnsCommit(r.agent, []*ghostcore.Txn{txn})
	span(1)
	switch txn.Status {
	case ghostcore.TxnCommitted:
		set.TxnsCommitted++
		// Yield the CPU to the committed thread.
		return tc.Run(r.slowed(now, cost)).Then(kernel.Park())
	case ghostcore.TxnESTALE:
		set.TxnsFailed++
		// Newer messages arrived: drain and retry (§3.2).
		return retry(tc, r.slowed(now, cost))
	default:
		set.TxnsFailed++
		set.percpu.OnTxnFail(set.ctx, r.cpu, next, txn.Status)
		return retry(tc, r.slowed(now, cost))
	}
}

// GlobalAgentThread returns the active global agent's kernel thread (for
// tests and experiments).
func (set *AgentSet) GlobalAgentThread() *kernel.Thread {
	if set.globalCPU == hw.NoCPU {
		return nil
	}
	return set.runners[set.globalCPU].thread
}

// Runner returns the agent thread pinned to cpu.
func (set *AgentSet) Runner(cpu hw.CPUID) *kernel.Thread {
	if r, ok := set.runners[cpu]; ok {
		return r.thread
	}
	return nil
}

// Ctx exposes the policy context (for tests).
func (set *AgentSet) Ctx() *Context { return set.ctx }
