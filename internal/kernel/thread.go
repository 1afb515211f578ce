package kernel

import (
	"fmt"

	"ghost/internal/hw"
	"ghost/internal/sim"
)

// TID identifies a kernel thread.
type TID int

// State is a thread's run state.
type State int

// Thread run states.
const (
	StateNew State = iota
	StateRunnable
	StateRunning
	StateBlocked
	StateDead
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// ThreadFunc is a resumable simulated thread body. The kernel calls it
// on the engine goroutine at each of the thread's resume points: at
// Spawn, when a Run or Yield it returned has completed, and when a Wake
// ends a Block it returned. Each call does the body's instantaneous work
// (Go code takes no simulated time) and returns the thread's next Op. A
// body keeps its own resume state; tc is the same on every call.
type ThreadFunc func(tc *TaskContext) Op

// Op is a thread body's next request to the kernel, returned from its
// ThreadFunc and built by the TaskContext. The zero Op exits the thread,
// like Exit.
type Op struct {
	kind actionKind
	dur  sim.Duration
}

// Stepper is the callback-driven execution alternative used for scheduler
// agents and dataplane pollers: when the thread is on CPU with no pending
// work, the kernel invokes Step, which performs instantaneous actions,
// returns the CPU time those actions cost, and a disposition for what the
// thread does once that cost has been charged.
type Stepper interface {
	Step(now sim.Time) (cost sim.Duration, disp Disposition)
}

// Disposition tells the kernel what a Stepper thread does after its step
// cost has been charged.
type Disposition int

const (
	// DispSpin keeps the thread on CPU, busy-polling; Step is invoked
	// again when the thread is poked.
	DispSpin Disposition = iota
	// DispBlock blocks the thread until Wake.
	DispBlock
	// DispYield puts the thread at the back of its class's queue.
	DispYield
	// DispAgain re-invokes Step as soon as the cost has elapsed.
	DispAgain
	// DispExit terminates the thread.
	DispExit
)

// action is a request from a thread's execution to the kernel.
type actionKind int

const (
	actNone actionKind = iota
	actRun
	actBlock
	actYield
	actExit
	actSpinIdle    // stepper: stay on CPU, wait for a poke
	actStepPending // stepper: Step must run next time the thread is on CPU
)

type action struct {
	kind actionKind
	dur  sim.Duration
	// then, when set, is invoked in place of fetching the next action
	// once the run completes. Used by stepper dispositions.
	then func()
}

// Thread is a simulated kernel thread.
type Thread struct {
	tid   TID
	name  string
	k     *Kernel
	state State

	class    Class
	nice     int
	affinity Mask

	cpu       *CPU     // CPU currently running on (nil unless Running)
	targetCPU hw.CPUID // placement chosen at wake; queue key for per-CPU classes
	lastCPU   hw.CPUID // where the thread last ran, NoCPU if never

	// Execution machinery: exactly one of body/stepper is set. tc is the
	// body's context, one per thread for its whole life.
	fn      ThreadFunc
	tc      TaskContext
	atExit  func()
	stepper Stepper

	curKind     actionKind
	pendingWork sim.Duration // remaining CPU work of the current action
	onWorkDone  func()

	// afterAction and afterFn are nextAction's reusable continuation: a
	// thread has at most one pending post-run action, so one closure per
	// thread (allocated lazily on first use) replaces one per run
	// segment — the top allocation site in CPU-bound sweeps.
	afterAction action
	afterFn     func()

	wakePending bool // Wake arrived while not blocked
	poked       bool // poke arrived for a stepper thread

	// Accounting.
	cpuTime     sim.Duration // total on-CPU wall time
	wakeTime    sim.Time     // when the thread last became runnable
	runnableAt  sim.Time
	schedDelay  sim.Duration // cumulative wake-to-run latency
	switchCount uint64

	// Per-class state.
	cfs cfsThread
	mq  mqThread

	// Ghost is opaque per-thread state owned by the ghOSt scheduling
	// class (internal/ghostcore). The kernel never inspects it.
	Ghost any

	// Tag is opaque workload-owned state (e.g. which VM a vCPU belongs
	// to); the kernel never inspects it.
	Tag any

	// body, when set, describes this thread's ThreadFunc as a registered,
	// resumable body (internal/snap): a kind in the body registry plus the
	// arguments and private random stream needed to rebuild it. Threads
	// without a body descriptor (ad-hoc closures) cannot be snapshotted.
	body *BodyDesc
}

// BodyDesc describes a registered, resumable thread body for
// snapshot/restore. Kind names a factory in the snapshot body registry;
// Args are the body's construction parameters; Rand, when non-nil, is the
// body's private random stream (its state rides in the snapshot so the
// resumed body continues the same sequence of draws).
type BodyDesc struct {
	Kind string
	// Key names the owning snapshot component (e.g. the worker pool a
	// pool-worker body belongs to); empty for standalone bodies.
	Key  string
	Args []int64
	Rand *sim.Rand
}

// SetBodyDesc attaches a resumable-body descriptor to the thread; spawn
// sites whose bodies are registered in the snapshot body registry call
// this right after Spawn.
func (t *Thread) SetBodyDesc(d *BodyDesc) { t.body = d }

// BodyDesc returns the thread's resumable-body descriptor, nil if none.
func (t *Thread) BodyDesc() *BodyDesc { return t.body }

// ensureAfterFn returns the thread's reusable post-run continuation,
// creating it on first use. Restore-only: the hot path (nextAction)
// creates the identical closure inline so the literal stays out of any
// function reachable from the 0-alloc wake path.
func (t *Thread) ensureAfterFn() func() {
	if t.afterFn == nil {
		t.afterFn = func() { t.k.applyAction(t, t.afterAction) }
	}
	return t.afterFn
}

// TID returns the thread id.
func (t *Thread) TID() TID { return t.tid }

// Name returns the thread's human-readable name.
func (t *Thread) Name() string { return t.name }

// State returns the thread's current run state.
func (t *Thread) State() State { return t.state }

// Nice returns the thread's nice value (CFS weighting, -20..19).
func (t *Thread) Nice() int { return t.nice }

// Affinity returns the thread's CPU affinity mask.
func (t *Thread) Affinity() Mask { return t.affinity }

// LastCPU returns where the thread last ran, hw.NoCPU if never scheduled.
func (t *Thread) LastCPU() hw.CPUID { return t.lastCPU }

// OnCPU returns the CPU the thread is running on, or hw.NoCPU.
func (t *Thread) OnCPU() hw.CPUID {
	if t.cpu == nil {
		return hw.NoCPU
	}
	return t.cpu.ID
}

// Class returns the thread's scheduling class.
func (t *Thread) Class() Class { return t.class }

// CPUTime returns total simulated wall time spent on CPU, accounted at
// run-segment boundaries.
func (t *Thread) CPUTime() sim.Duration { return t.cpuTime }

// RuntimeNow returns CPUTime including the currently executing segment.
func (t *Thread) RuntimeNow() sim.Duration {
	rt := t.cpuTime
	if t.state == StateRunning && t.cpu != nil && !t.cpu.switching {
		rt += t.k.eng.Now() - t.cpu.segStart
	}
	return rt
}

// SchedDelay returns the cumulative runnable-to-running latency.
func (t *Thread) SchedDelay() sim.Duration { return t.schedDelay }

// Switches returns the number of times the thread was switched in.
func (t *Thread) Switches() uint64 { return t.switchCount }

// WakeTime returns when the thread last became runnable.
func (t *Thread) WakeTime() sim.Time { return t.wakeTime }

func (t *Thread) String() string {
	return fmt.Sprintf("T%d(%s,%s)", t.tid, t.name, t.state)
}

// nextAction fetches the thread's next action: for body threads it
// resumes the body (a Run(0) is no action, so the body resumes again at
// once); for stepper threads it invokes Step and translates the
// disposition. Engine-goroutine only.
func (t *Thread) nextAction() action {
	if t.stepper == nil {
		for {
			op := t.fn(&t.tc)
			switch {
			case op.kind == actNone:
				return action{kind: actExit}
			case op.kind != actRun || op.dur != 0:
				return action{kind: op.kind, dur: op.dur}
			}
		}
	}
	t.poked = false
	cost, disp := t.stepper.Step(t.k.eng.Now())
	if cost < 0 {
		panic("kernel: stepper returned negative cost")
	}
	var after action
	switch disp {
	case DispSpin:
		after = action{kind: actSpinIdle}
	case DispBlock:
		after = action{kind: actBlock}
	case DispYield:
		after = action{kind: actYield}
	case DispAgain:
		if cost == 0 {
			panic("kernel: DispAgain with zero cost would livelock")
		}
		return action{kind: actRun, dur: cost}
	case DispExit:
		after = action{kind: actExit}
	default:
		panic("kernel: unknown disposition")
	}
	if cost == 0 {
		return after
	}
	if t.afterFn == nil {
		t.afterFn = func() { t.k.applyAction(t, t.afterAction) }
	}
	t.afterAction = after
	return action{kind: actRun, dur: cost, then: t.afterFn}
}

// TaskContext is a thread body's handle on the kernel. The kernel hands
// the same TaskContext to every call of the thread's ThreadFunc; its
// methods must only be used from inside those calls.
type TaskContext struct {
	t *Thread
}

// Thread returns the underlying thread.
func (tc *TaskContext) Thread() *Thread { return tc.t }

// Now returns the current simulated time.
func (tc *TaskContext) Now() sim.Time { return tc.t.k.eng.Now() }

// Run consumes d nanoseconds of CPU time; the body resumes once the work
// has been executed. With preemptions or SMT contention the elapsed
// simulated time can be much larger than d. Run(0) is no action: the
// body resumes immediately.
func (tc *TaskContext) Run(d sim.Duration) Op {
	if d < 0 {
		panic("kernel: Run with negative duration")
	}
	return Op{kind: actRun, dur: d}
}

// Block suspends the thread until another thread or event calls Wake on
// it. If a Wake arrived since the last Block, the body resumes at once.
func (tc *TaskContext) Block() Op { return Op{kind: actBlock} }

// Sleep blocks the thread for d nanoseconds of simulated time: the wake
// is scheduled now, when the body returns the Op.
func (tc *TaskContext) Sleep(d sim.Duration) Op {
	t := tc.t
	t.k.SchedulerFor(t.lastCPU).AfterCall(d, t.k.wakeFn, t)
	return Op{kind: actBlock}
}

// Yield relinquishes the CPU, moving the thread to the back of its
// class's runqueue; the body resumes when the thread runs again.
func (tc *TaskContext) Yield() Op { return Op{kind: actYield} }

// Exit terminates the thread.
func (tc *TaskContext) Exit() Op { return Op{kind: actExit} }

// AtExit registers fn to run once when the thread dies by Exit, Kill or
// Kernel.Shutdown, replacing any earlier fn: bodies holding resources
// outside the simulation (a goroutine) release them there.
func (tc *TaskContext) AtExit(fn func()) { tc.t.atExit = fn }

// SetAffinity restricts the thread to the given CPUs. Takes effect on the
// next scheduling decision; notifies the scheduling class (for ghOSt this
// produces a THREAD_AFFINITY message).
func (tc *TaskContext) SetAffinity(m Mask) {
	tc.t.k.SetAffinity(tc.t, m)
}

// SetNice adjusts the thread's nice value.
func (tc *TaskContext) SetNice(n int) {
	tc.t.k.SetNice(tc.t, n)
}

// TID returns the thread's id.
func (tc *TaskContext) TID() TID { return tc.t.tid }

// Kernel returns the owning kernel, for workload code that needs to wake
// other threads or inspect time.
func (tc *TaskContext) Kernel() *Kernel { return tc.t.k }
