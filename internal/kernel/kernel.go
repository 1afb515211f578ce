// Package kernel implements a simulated operating-system kernel: threads,
// CPUs, a Linux-style scheduling-class hierarchy, timer ticks, wakeups,
// affinity, and nice values. It is the substrate on which the ghOSt
// scheduling class (internal/ghostcore) and the baseline schedulers run.
//
// Thread bodies are resumable functions (ThreadFunc) that the kernel
// calls on the engine goroutine at each of the thread's resume points;
// every call returns the thread's next Run, Block, Yield or Exit, or,
// for agents and dataplane pollers, Spin or Park. The whole simulation
// therefore runs on one goroutine, deterministically on virtual time.
package kernel

import (
	"fmt"
	"sort"

	"ghost/internal/faults"
	"ghost/internal/hw"
	"ghost/internal/sim"
	"ghost/internal/trace"
)

// Kernel is a simulated kernel instance for one machine.
type Kernel struct {
	eng  *sim.Engine
	topo *hw.Topology
	cost hw.CostModel
	rand *sim.Rand

	cpus     []*CPU
	ccxMasks []Mask // CPUs of each CCX (L3 domain), by CCX index
	threads  map[TID]*Thread
	live     []*Thread
	nextTID  TID
	tickers  []*sim.Ticker // per-CPU timer-tick tickers (keyed for snapshots)

	classes []Class // sorted by descending priority

	idleHooks     []func(*CPU)
	tickHooks     []func(*CPU)
	pressureHooks []func(*CPU, *Thread)
	switchHooks   []func(*CPU, *Thread)
	tickless      []bool // per-CPU: skip timer ticks (§5 tickless mode)

	// TraceFn, when set, receives a line per scheduling event.
	TraceFn func(string)

	// tr is the structured tracer; nil disables all instrumentation.
	tr *trace.Tracer

	// faults is the fault-injection plan replayer; nil when no plan is
	// installed.
	faults *faults.Injector

	// Callbacks bound once in New so the hottest schedule sites
	// (reschedule passes, run completions, switch dead time, pokes,
	// sleeps) go through the engine's allocation-free AfterCall path.
	reschedFn    func(any)
	workDoneFn   func(any)
	switchDoneFn func(any)
	pokeFn       func(any)
	wakeFn       func(any)

	shutdown bool
}

// New creates a kernel for the given topology and cost model, attached to
// the engine. Timer ticks are started for every CPU, staggered across the
// tick period.
func New(eng *sim.Engine, topo *hw.Topology, cost hw.CostModel) *Kernel {
	k := &Kernel{
		eng:     eng,
		topo:    topo,
		cost:    cost,
		rand:    sim.NewRand(0xC0FFEE),
		threads: make(map[TID]*Thread),
		nextTID: 1,
	}
	k.reschedFn = k.reschedFire
	k.workDoneFn = k.workDoneFire
	k.switchDoneFn = k.switchDoneFire
	k.pokeFn = k.pokeFire
	k.wakeFn = k.wakeFire
	n := topo.NumCPUs()
	k.cpus = make([]*CPU, n)
	k.tickless = make([]bool, n)
	k.ccxMasks = make([]Mask, topo.NumCCXs())
	for i := 0; i < n; i++ {
		k.cpus[i] = &CPU{ID: hw.CPUID(i), Info: topo.CPU(hw.CPUID(i)), k: k}
		k.ccxMasks[k.cpus[i].Info.CCX].Set(hw.CPUID(i))
	}
	// Staggered per-CPU timer ticks. The ticker objects are built eagerly
	// (so snapshots have a stable, keyed object to link pending firings
	// to) and armed by a keyed start event, preserving the exact event
	// count and order of the start stagger.
	k.tickers = make([]*sim.Ticker, n)
	for i := 0; i < n; i++ {
		c := k.cpus[i]
		tk := sim.NewStoppedTicker(eng, cost.TickPeriod, func(sim.Time) { k.tick(c) })
		tk.Key = fmt.Sprintf("kernel.tick.%d", i)
		k.tickers[i] = tk
		offset := cost.TickPeriod * sim.Duration(i) / sim.Duration(n)
		eng.AtCall(eng.Now()+offset, startTickFn, tk)
	}
	return k
}

// startTickFn arms a per-CPU tick ticker at its staggered start offset;
// package-level so the start event is serializable (snapshot kind
// "kernel.starttick", keyed by the ticker).
func startTickFn(a any) { a.(*sim.Ticker).Start() }

// Scheduler returns the machine's event engine.
func (k *Kernel) Scheduler() *sim.Engine { return k.eng }

// SetTracer attaches a structured tracer (nil detaches). The ghOSt core
// and agent SDK read it back with Tracer, so one tracer observes the
// whole stack.
func (k *Kernel) SetTracer(tr *trace.Tracer) {
	k.tr = tr
	// The engine meters its own dispatch counts (Engine.Executed,
	// Engine.MaxQueue); the per-dispatch callback is only worth its cost
	// when a full event timeline is being recorded.
	if tr.Enabled() {
		k.eng.OnDispatch = tr.EngineDispatch
	} else {
		k.eng.OnDispatch = nil
	}
}

// Tracer returns the attached tracer; nil when tracing is off. All
// trace.Tracer emit methods are nil-safe.
func (k *Kernel) Tracer() *trace.Tracer { return k.tr }

// SetFaults installs a fault-injection plan replayer (nil removes it).
// The ghOSt core and agent SDK read it back with Faults, mirroring the
// tracer, so one injector perturbs the whole stack.
func (k *Kernel) SetFaults(in *faults.Injector) {
	k.faults = in
	if in != nil {
		in.BindTracer(k.Tracer)
	}
}

// Faults returns the installed fault injector; nil when fault injection
// is off. All faults.Injector interception methods are nil-safe.
func (k *Kernel) Faults() *faults.Injector { return k.faults }

// traceCPU records c's current-thread transition with the tracer: a new
// run slice when a thread is installed, a slice close when it idles.
func (k *Kernel) traceCPU(c *CPU) {
	if k.tr == nil {
		return
	}
	if t := c.curr; t != nil {
		k.tr.CPURun(k.eng.Now(), c.ID, uint64(t.tid), t.name, t.class.Name())
	} else {
		k.tr.CPUIdle(k.eng.Now(), c.ID)
	}
}

// Topology returns the machine topology.
func (k *Kernel) Topology() *hw.Topology { return k.topo }

// Cost returns the cost model.
func (k *Kernel) Cost() *hw.CostModel { return &k.cost }

// Now returns the current simulated time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// CPU returns the CPU object for id.
func (k *Kernel) CPU(id hw.CPUID) *CPU { return k.cpus[id] }

// NumCPUs returns the number of CPUs.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// RegisterClass adds a scheduling class. Classes must be registered
// before threads are spawned into them.
func (k *Kernel) RegisterClass(c Class) {
	k.classes = append(k.classes, c)
	sort.SliceStable(k.classes, func(i, j int) bool {
		return k.classes[i].Priority() > k.classes[j].Priority()
	})
}

// Class returns the registered class with the given name, or nil.
func (k *Kernel) Class(name string) Class {
	for _, c := range k.classes {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// AddIdleHook registers fn to run whenever a CPU becomes idle. Used by
// the ghOSt BPF-style fastpath and by spinning scheduler threads that
// want an immediate poke on capacity changes.
func (k *Kernel) AddIdleHook(fn func(*CPU)) { k.idleHooks = append(k.idleHooks, fn) }

// AddTickHook registers fn to run on every per-CPU timer tick (after the
// class tick). The ghOSt class uses this to emit TIMER_TICK messages.
func (k *Kernel) AddTickHook(fn func(*CPU)) { k.tickHooks = append(k.tickHooks, fn) }

// AddPressureHook registers fn to run when a lower-priority thread is
// queued on a CPU held by a higher-priority one (e.g. a CFS thread
// waiting behind a spinning global agent). The ghOSt agent SDK uses this
// to trigger the global agent's "hot handoff" (§3.3).
// AddSwitchHook registers fn to run after every context switch, once the
// incoming thread is installed as the CPU's current. Invariant checkers
// use it to audit cross-thread state at switch granularity.
func (k *Kernel) AddSwitchHook(fn func(*CPU, *Thread)) {
	k.switchHooks = append(k.switchHooks, fn)
}

func (k *Kernel) AddPressureHook(fn func(*CPU, *Thread)) {
	k.pressureHooks = append(k.pressureHooks, fn)
}

// Tracef emits a trace line when tracing is enabled. Hot call sites test
// TraceFn first so that their arguments are not boxed.
func (k *Kernel) Tracef(format string, args ...any) {
	if k.TraceFn != nil {
		k.TraceFn(fmt.Sprintf("[%v] ", k.eng.Now()) + fmt.Sprintf(format, args...))
	}
}

// SpawnOpts configures thread creation.
type SpawnOpts struct {
	Name     string
	Class    Class
	Affinity Mask // zero value means "all CPUs"
	Nice     int
	Tag      any
}

// Spawn creates a thread running body and hands it to its scheduling
// class. The body is called once right away, at spawn time, for its
// first Op; the thread starts executing (in simulated terms) as soon as
// its class schedules it. A first Op of Block or Park creates it blocked.
func (k *Kernel) Spawn(opts SpawnOpts, body ThreadFunc) *Thread {
	if opts.Class == nil {
		panic("kernel: Spawn without class")
	}
	if opts.Affinity.Empty() {
		opts.Affinity = MaskAll(k.topo.NumCPUs())
	}
	t := &Thread{
		tid:      k.nextTID,
		name:     opts.Name,
		k:        k,
		state:    StateNew,
		class:    opts.Class,
		nice:     opts.Nice,
		affinity: opts.Affinity,
		lastCPU:  hw.NoCPU,
		Tag:      opts.Tag,
	}
	k.nextTID++
	k.threads[t.tid] = t
	k.live = append(k.live, t)
	t.fn = body
	t.tc.t = t
	t.class.ThreadAttached(t)
	k.Tracef("spawn %v class=%s", t, t.class.Name())
	k.applyAction(t, t.nextAction())
	return t
}

// Thread returns the thread with the given id, or nil.
func (k *Kernel) Thread(tid TID) *Thread { return k.threads[tid] }

// Threads returns all live (non-dead) threads.
func (k *Kernel) Threads() []*Thread {
	out := make([]*Thread, 0, len(k.live))
	for _, t := range k.live {
		if t.state != StateDead {
			out = append(out, t)
		}
	}
	return out
}

// wakeFire adapts Wake to the engine's pre-bound callback shape; it backs
// sleep timers.
func (k *Kernel) wakeFire(a any) { k.Wake(a.(*Thread)) }

// Wake transitions a blocked thread to runnable, selecting a CPU via its
// class and possibly preempting. Waking a thread that is not blocked
// records a pending wake consumed by its next Block or Park.
func (k *Kernel) Wake(t *Thread) {
	switch t.state {
	case StateDead:
		return
	case StateBlocked:
		k.makeRunnable(t, EnqWake)
		if t.curKind != actPark {
			// Complete the pending Block and fetch what's next; a parked
			// body resumes only once the thread is on a CPU.
			k.fetchNext(t)
		}
	default:
		t.wakePending = true
	}
}

// makeRunnable enqueues t with its class and triggers preemption checks.
func (k *Kernel) makeRunnable(t *Thread, r EnqueueReason) {
	t.state = StateRunnable
	t.runnableAt = k.eng.Now()
	t.wakeTime = t.runnableAt
	var cpu hw.CPUID
	if r == EnqWake || r == EnqClassChange {
		cpu = t.class.SelectCPU(t)
		if !t.affinity.Has(cpu) {
			panic(fmt.Sprintf("kernel: %s.SelectCPU returned %d outside affinity %v",
				t.class.Name(), cpu, t.affinity))
		}
	} else {
		cpu = t.lastCPU
	}
	t.targetCPU = cpu
	if r == EnqWake && k.tr != nil {
		k.tr.Wakeup(k.eng.Now(), cpu, uint64(t.tid), t.name)
	}
	t.class.Enqueue(t, cpu, r)
	k.maybePreempt(k.cpus[cpu], t)
}

// maybePreempt triggers a reschedule of c if the newly enqueued thread t
// should take the CPU.
func (k *Kernel) maybePreempt(c *CPU, t *Thread) {
	curr := c.curr
	switch {
	case curr == nil:
		k.Resched(c.ID)
	case t.class.Priority() > curr.class.Priority():
		k.Resched(c.ID)
	case t.class == curr.class && t.class.WantsPreempt(c, curr, t):
		k.Resched(c.ID)
	case t.class.Priority() < curr.class.Priority():
		for _, h := range k.pressureHooks {
			h(c, t)
		}
	}
}

// Resched requests a scheduling pass on CPU id. Multiple requests at the
// same instant coalesce.
func (k *Kernel) Resched(id hw.CPUID) {
	c := k.cpus[id]
	if c.reschedPending {
		return
	}
	c.reschedPending = true
	k.eng.AfterCall(0, k.reschedFn, c)
}

// reschedFire runs the deferred scheduling pass queued by Resched.
func (k *Kernel) reschedFire(a any) {
	c := a.(*CPU)
	c.reschedPending = false
	k.doSchedule(c)
}

// doSchedule is the core scheduling pass for one CPU.
func (k *Kernel) doSchedule(c *CPU) {
	if k.shutdown {
		return
	}
	if c.switching {
		c.needResched = true
		return
	}
	prev := c.curr
	if prev != nil && !prev.affinity.Has(c.ID) {
		// Affinity changed under a running thread: evict and replace it
		// through normal wake placement.
		c.stopSegment()
		prev.cpu = nil
		prev.lastCPU = c.ID
		c.curr = nil
		k.makeRunnable(prev, EnqWake)
		prev = nil
	}
	if prev != nil && !prev.class.Eligible(c, prev) {
		// The running thread lost its right to the CPU (e.g. it was
		// throttled); demote it before electing a successor.
		c.stopSegment()
		k.offCPU(c, prev, EnqPreempt)
		prev = nil
	}
	// Find the highest-priority class with a claim on this CPU.
	var winner Class
	winnerIdx := -1
	for i, cl := range k.classes {
		if (prev != nil && prev.class == cl) || cl.Queued(c) {
			winner, winnerIdx = cl, i
			break
		}
	}
	if winner == nil {
		k.cpuIdle(c)
		return
	}
	var prevSame *Thread
	if prev != nil {
		if prev.class == winner {
			prevSame = prev
		} else {
			// Cross-class preemption: demote prev to its runqueue.
			c.stopSegment()
			k.offCPU(c, prev, EnqPreempt)
		}
	}
	next := winner.PickNext(c, prevSame)
	if next == nil {
		if prevSame != nil {
			return // prev keeps running
		}
		// Winner declined (e.g. ghOSt with no committed txn); try
		// lower classes.
		for _, lower := range k.classes[winnerIdx+1:] {
			if lower.Queued(c) {
				if next = lower.PickNext(c, nil); next != nil {
					break
				}
			}
		}
		if next == nil {
			k.cpuIdle(c)
			return
		}
	}
	if next == prevSame {
		return // keep running; burn untouched
	}
	if prevSame != nil {
		// Same-class switch: PickNext already requeued prevSame; just
		// detach it from the CPU.
		c.stopSegment()
		prevSame.cpu = nil
		prevSame.lastCPU = c.ID
		if prevSame.state == StateRunning {
			prevSame.state = StateRunnable
			prevSame.runnableAt = k.eng.Now()
		}
		c.curr = nil
	}
	k.switchTo(c, next)
}

// offCPU removes a running thread from its CPU and requeues it runnable.
func (k *Kernel) offCPU(c *CPU, t *Thread, r EnqueueReason) {
	t.cpu = nil
	t.lastCPU = c.ID
	c.curr = nil
	t.state = StateRunnable
	t.runnableAt = k.eng.Now()
	t.targetCPU = c.ID
	t.class.Enqueue(t, c.ID, r)
}

// cpuIdle finalizes a scheduling pass that found no work: accounts the
// idle transition and fires idle hooks (which may immediately commit new
// work onto the CPU).
func (k *Kernel) cpuIdle(c *CPU) {
	if c.curr != nil {
		return
	}
	c.accountIdle()
	k.traceCPU(c)
	if k.TraceFn != nil {
		k.Tracef("cpu%d idle", c.ID)
	}
	for _, h := range k.idleHooks {
		h(c)
		if c.curr != nil || c.switching {
			return
		}
	}
}

// switchTo installs next on c, charging context-switch dead time and a
// cache-warmth migration penalty.
func (k *Kernel) switchTo(c *CPU, next *Thread) {
	now := k.eng.Now()
	if next.state != StateRunnable {
		panic(fmt.Sprintf("kernel: switching to %v in state %v", next, next.state))
	}
	if !next.affinity.Has(c.ID) {
		panic(fmt.Sprintf("kernel: %v scheduled on cpu%d outside affinity", next, c.ID))
	}
	next.state = StateRunning
	next.cpu = c
	next.schedDelay += now - next.runnableAt
	next.switchCount++
	c.switches++
	c.curr = next
	c.accountBusy()
	k.traceCPU(c)
	for _, fn := range k.switchHooks {
		fn(c, next)
	}
	// Cache-warmth penalty: one-time extra work after a migration.
	if next.lastCPU != hw.NoCPU && next.pendingWork > 0 {
		next.pendingWork += k.cost.MigrationPenalty(k.topo.Dist(next.lastCPU, c.ID))
	}
	cost := next.class.SwitchInCost()
	if k.TraceFn != nil {
		k.Tracef("cpu%d switch -> %v (cost %v)", c.ID, next, cost)
	}
	if cost <= 0 {
		k.resumeOnCPU(c)
		return
	}
	c.switching = true
	c.eventAfterSwitch(cost)
}

func (c *CPU) eventAfterSwitch(cost sim.Duration) {
	c.k.eng.AfterCall(cost, c.k.switchDoneFn, c)
}

// switchDoneFire ends context-switch dead time on a CPU.
func (k *Kernel) switchDoneFire(a any) {
	c := a.(*CPU)
	c.switching = false
	resched := c.needResched
	c.needResched = false
	k.resumeOnCPU(c)
	if resched {
		k.Resched(c.ID)
	}
}

// resumeOnCPU starts executing the current thread after a switch.
func (k *Kernel) resumeOnCPU(c *CPU) {
	t := c.curr
	if t == nil {
		return
	}
	if t.pendingWork > 0 {
		c.startSegment()
		return
	}
	switch t.curKind {
	case actRun:
		// Work already exhausted (completed exactly at preemption).
		k.finishRun(t)
	case actPark:
		k.resume(t)
	case actSpin:
		c.startSegment() // occupies CPU without a completion event
		if t.poked {
			k.resume(t)
		}
	default:
		c.startSegment()
	}
}

// finishRun completes an actRun whose work is exhausted: either apply
// its follow-up or fetch the thread's next action.
func (k *Kernel) finishRun(t *Thread) {
	if then := t.then; then != actNone {
		t.then = actNone
		k.applyAction(t, Op{kind: then})
		return
	}
	k.fetchNext(t)
}

// workDoneFire adapts workDone to the engine's pre-bound callback shape.
func (k *Kernel) workDoneFire(a any) { k.workDone(a.(*CPU)) }

// workDone fires when the current thread's run segment completes.
func (k *Kernel) workDone(c *CPU) {
	t := c.curr
	if t == nil {
		return
	}
	c.stopSegment()
	if t.pendingWork > 0 {
		// Rounding left residual work; keep burning.
		c.startSegment()
		return
	}
	k.finishRun(t)
}

// resume calls the body of a thread that is on its CPU with no work
// left: a parked thread back on a CPU, or a spinning one that was poked.
func (k *Kernel) resume(t *Thread) {
	if t.state != StateRunning || t.cpu == nil {
		return
	}
	t.cpu.stopSegment()
	k.fetchNext(t)
}

// Poke nudges a spinning or parked thread: if it is spinning on a CPU its
// body is resumed promptly; otherwise the poke is remembered until the
// body's next call, and a Park or Spin applied on the CPU before that
// resumes the body at once.
func (k *Kernel) Poke(t *Thread) {
	if t == nil || t.state == StateDead {
		return
	}
	t.poked = true
	if t.state == StateRunning && t.curKind == actSpin && t.cpu != nil {
		// Defer to an event so pokes inside other handlers coalesce.
		k.eng.AfterCall(0, k.pokeFn, t)
	}
}

// pokeFire delivers a deferred Poke to a spinning thread.
func (k *Kernel) pokeFire(a any) {
	t := a.(*Thread)
	if t.poked && t.state == StateRunning && t.curKind == actSpin {
		k.resume(t)
	}
}

// fetchNext resumes a thread whose action has completed and applies the
// next one.
func (k *Kernel) fetchNext(t *Thread) {
	k.applyAction(t, t.nextAction())
}

// applyAction implements the thread-action state machine.
func (k *Kernel) applyAction(t *Thread, a Op) {
	t.curKind = a.kind
	switch a.kind {
	case actRun, actSpin:
		// A Spin is a Run without work: it occupies the CPU with no
		// completion event.
		t.pendingWork = a.dur
		t.then = a.then
		switch t.state {
		case StateNew:
			k.makeRunnable(t, EnqWake)
		case StateRunning:
			t.cpu.startSegment()
			if a.kind == actSpin && t.poked {
				// A poke landed while the step's cost was charging;
				// resume now rather than spinning past the event.
				k.resume(t)
			}
		case StateRunnable:
			// Queued; burns (or spins) when scheduled.
		default:
			panic(fmt.Sprintf("kernel: Run from %v in state %v", t, t.state))
		}
	case actBlock, actPark:
		if a.kind == actPark && t.poked && t.state == StateRunning {
			// A poke (e.g. a new ghOSt message) landed while the step's
			// cost was being charged; resume instead of parking so the
			// event is not stranded until the next wakeup.
			k.resume(t)
			return
		}
		if t.wakePending {
			t.wakePending = false
			if a.kind == actPark {
				k.resume(t) // only once on a CPU
			} else {
				k.fetchNext(t)
			}
			return
		}
		switch t.state {
		case StateNew:
			t.state = StateBlocked
		case StateRunning:
			c := t.cpu
			c.stopSegment()
			t.state = StateBlocked
			t.cpu = nil
			t.lastCPU = c.ID
			c.curr = nil
			t.class.Dequeue(t, DeqBlock)
			k.Resched(c.ID)
		case StateRunnable:
			t.state = StateBlocked
			t.class.Dequeue(t, DeqBlock)
		default:
			panic(fmt.Sprintf("kernel: Block from %v in state %v", t, t.state))
		}
	case actYield:
		if t.state == StateRunning {
			c := t.cpu
			c.stopSegment()
			k.offCPU(c, t, EnqYield)
			k.Resched(c.ID)
		}
		k.fetchNext(t)
	case actExit:
		k.reap(t)
	}
}

// ForceOffCPU preempts a running thread off its CPU immediately,
// requeueing it in its class. Used by ghOSt's per-core scheduling to
// force a sibling idle.
func (k *Kernel) ForceOffCPU(t *Thread) {
	if t.state != StateRunning || t.cpu == nil {
		return
	}
	c := t.cpu
	c.stopSegment()
	k.offCPU(c, t, EnqPreempt)
	k.Resched(c.ID)
}

// Kill forcibly terminates a thread (used for agent crashes and enclave
// destruction). Safe on any state; idempotent.
func (k *Kernel) Kill(t *Thread) {
	if t.state == StateDead {
		return
	}
	if t.state == StateBlocked {
		t.class.Dequeue(t, DeqDead)
	}
	k.reap(t)
}

// reap finalizes a dead thread.
func (k *Kernel) reap(t *Thread) {
	prevState := t.state
	t.state = StateDead
	if prevState == StateRunning && t.cpu != nil {
		c := t.cpu
		c.stopSegment()
		t.cpu = nil
		t.lastCPU = c.ID
		c.curr = nil
		k.Resched(c.ID)
	} else if prevState == StateRunnable {
		t.class.Dequeue(t, DeqDead)
	}
	t.class.ThreadDetached(t, DeqDead)
	t.runAtExit()
	k.Tracef("exit %v", t)
}

// runAtExit runs the body's AtExit hook, at most once.
func (t *Thread) runAtExit() {
	if fn := t.atExit; fn != nil {
		t.atExit = nil
		fn()
	}
}

// SetAffinity updates a thread's CPU mask and notifies its class.
func (k *Kernel) SetAffinity(t *Thread, m Mask) {
	if m.Empty() {
		panic("kernel: empty affinity mask")
	}
	t.affinity = m
	t.class.AffinityChanged(t)
	if t.state == StateRunning && !m.Has(t.cpu.ID) {
		k.Resched(t.cpu.ID)
	}
}

// SetNice updates a thread's nice value.
func (k *Kernel) SetNice(t *Thread, n int) {
	if n < -20 {
		n = -20
	}
	if n > 19 {
		n = 19
	}
	t.nice = n
}

// SetClass migrates a thread to a different scheduling class. Running or
// runnable threads are requeued in the new class.
func (k *Kernel) SetClass(t *Thread, nc Class) {
	if t.class == nc || t.state == StateDead {
		return
	}
	oldState := t.state
	if oldState == StateRunning {
		c := t.cpu
		c.stopSegment()
		t.cpu = nil
		t.lastCPU = c.ID
		c.curr = nil
		t.state = StateRunnable
		k.Resched(c.ID)
	} else if oldState == StateRunnable {
		t.class.Dequeue(t, DeqClassChange)
	}
	t.class.ThreadDetached(t, DeqClassChange)
	t.class = nc
	nc.ThreadAttached(t)
	if t.state == StateRunnable {
		k.makeRunnable(t, EnqClassChange)
	}
}

// SetTickless enables or disables timer ticks on a CPU. With ticks off
// the CPU pays no per-tick overhead and its class receives no Tick
// callbacks — safe for ghOSt CPUs driven by a spinning global agent,
// which is exactly the §5 tickless-scheduling optimization.
func (k *Kernel) SetTickless(id hw.CPUID, on bool) { k.tickless[id] = on }

// Tickless reports whether ticks are disabled on a CPU.
func (k *Kernel) Tickless(id hw.CPUID) bool { return k.tickless[id] }

// tick delivers the periodic timer tick on c.
func (k *Kernel) tick(c *CPU) {
	if k.shutdown || k.tickless[c.ID] {
		return
	}
	if c.curr != nil && !c.switching {
		if ov := k.cost.TickOverhead; ov > 0 && c.curr.pendingWork > 0 {
			// The tick interrupts the running thread (a VM-exit for
			// guest vCPUs): inject its cost as extra work.
			c.stopSegment()
			c.curr.pendingWork += ov
			c.startSegment()
		}
		c.curr.class.Tick(c, c.curr)
	}
	for _, h := range k.tickHooks {
		h(c)
	}
}

// Shutdown marks every thread dead and runs the AtExit hooks of those
// still alive, so bodies holding outside resources release them. The
// kernel is unusable afterwards.
func (k *Kernel) Shutdown() {
	k.shutdown = true
	for _, t := range k.live {
		if t.state != StateDead {
			t.state = StateDead
			t.runAtExit()
		}
	}
}

// IdleCPUs returns the ids of all currently idle CPUs.
func (k *Kernel) IdleCPUs() []hw.CPUID {
	var out []hw.CPUID
	for _, c := range k.cpus {
		if c.Idle() {
			out = append(out, c.ID)
		}
	}
	return out
}
