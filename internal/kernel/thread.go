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
// Spawn, when a Run or Yield it returned has completed, when a Wake
// ends a Block it returned, and, for a Park or Spin, once the thread is
// back on its CPU. Each call does the body's instantaneous work (Go
// code takes no simulated time) and returns the thread's next Op. A
// body keeps its own resume state; tc is the same on every call.
type ThreadFunc func(tc *TaskContext) Op

// Op is a thread body's next request to the kernel, returned from its
// ThreadFunc and built by the TaskContext, Spin or Park. The zero Op
// exits the thread, like Exit.
type Op struct {
	kind actionKind
	dur  sim.Duration
	// then is a Run's follow-up (see Then), applied without calling the
	// body once the run's work is done.
	then actionKind
}

// actionKind is what an Op asks of the kernel. The values are stored in
// snapshots (ThreadRec.CurKind) and must not be renumbered.
type actionKind int

const (
	actNone actionKind = iota
	actRun
	actBlock
	actYield
	actExit
	actSpin
	actPark
)

// Spin keeps the thread on its CPU, busy-polling, with no completion
// event; Kernel.Poke resumes the body. ghOSt agents and dataplane
// pollers spin; the facade does not offer Spin, because a plain task has
// no one to poke it.
func Spin() Op { return Op{kind: actSpin} }

// Park leaves the CPU like Block, but a Wake only makes the thread
// runnable: the body resumes once the thread is back on a CPU. A Poke,
// or a Wake, that arrived since the last body call resumes it at once.
// An agent body whose first Op is Park starts blocked, waiting for the
// Wake that activates it. Like Spin, Park is not on the facade.
func Park() Op { return Op{kind: actPark} }

// Then returns the Run o followed by next: when o's work is done the
// kernel applies next without calling the body, so a step's cost can be
// charged before the thread spins, parks or exits. next must not be a
// Run; a Run(0) followed by next is next itself.
func (o Op) Then(next Op) Op {
	if o.dur == 0 {
		return next
	}
	o.then = next.kind
	return o
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

	// Execution machinery. tc is the body's context, one per thread for
	// its whole life.
	fn     ThreadFunc
	tc     TaskContext
	atExit func()

	curKind     actionKind
	pendingWork sim.Duration // remaining CPU work of the current action
	then        actionKind   // the current Run's follow-up, actNone if none

	wakePending bool // Wake arrived while not blocked
	poked       bool // Poke arrived since the last body call

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

// nextAction resumes the body for the thread's next Op. A Run(0) is no
// action, so the body resumes again at once; every call clears poked.
// Engine-goroutine only.
func (t *Thread) nextAction() Op {
	for {
		t.poked = false
		op := t.fn(&t.tc)
		switch {
		case op.kind == actNone:
			return Op{kind: actExit}
		case op.kind != actRun || op.dur != 0:
			return op
		}
	}
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
	t.k.eng.AfterCall(d, t.k.wakeFn, t)
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
