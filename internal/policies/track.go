// Package policies implements the scheduling policies evaluated in the
// ghOSt paper as userspace agents on top of internal/agentsdk:
//
//   - CentralFIFO: the centralized FIFO/round-robin policy of Fig 5 and
//     the Snap policy of §4.3 (priority bands).
//   - Shinjuku / ShinjukuShenango: the preemptive µs-scale policies of
//     §4.2.
//   - Search: the NUMA/CCX-aware least-runtime policy of §4.4.
//   - CoreSched: the secure VM core-scheduling policy of §4.5.
//   - PerCPUFIFO: the per-CPU model of Fig 3.
package policies

import (
	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// TState tracks what a policy believes about one managed thread. Policies
// own a Tracker and update it from kernel messages; it is the userspace
// mirror of thread state that the paper's agents maintain.
type TState struct {
	Thread *kernel.Thread
	// Runnable: the thread awaits a scheduling decision.
	Runnable bool
	// Running: the policy committed it to a CPU and has not seen it
	// leave.
	Running bool
	// CPU is where the policy last placed it.
	CPU int
	// LastStart is when the policy last scheduled it (for timeslices).
	LastStart sim.Time
	// Runtime is the policy-visible accumulated runtime.
	Runtime sim.Duration
	// Enqueued marks presence in the policy's own runqueue, preventing
	// double-queueing on duplicate wake messages.
	Enqueued bool
}

// Tracker converts the message stream into per-thread state and hands
// lifecycle events to the policy via callbacks.
type Tracker struct {
	Threads map[kernel.TID]*TState

	// OnRunnable is invoked when a thread needs (re)scheduling: wakeup,
	// preemption, yield, or creation-in-runnable-state. preempted is
	// true for THREAD_PREEMPTED.
	OnRunnable func(ts *TState, m ghostcore.Message)
	// OnRemoved is invoked when a thread blocks or dies.
	OnRemoved func(ts *TState, m ghostcore.Message)
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{Threads: make(map[kernel.TID]*TState)}
}

// Rebuild seeds the tracker from an enclave's current threads (used on
// agent upgrade, §3.4).
func (tr *Tracker) Rebuild(ctx *agentsdk.Context) {
	for _, t := range ctx.Enclave.ThreadsView() {
		ts := tr.get(t)
		if sw := ctx.Enclave.StatusWord(t); sw != nil && sw.Runnable {
			ts.Runnable = true
			if tr.OnRunnable != nil {
				tr.OnRunnable(ts, ghostcore.Message{Type: ghostcore.MsgThreadWakeup, TID: t.TID()})
			}
		}
	}
}

func (tr *Tracker) get(t *kernel.Thread) *TState {
	ts, ok := tr.Threads[t.TID()]
	if !ok {
		ts = &TState{Thread: t, CPU: -1}
		tr.Threads[t.TID()] = ts
	}
	return ts
}

// Get returns the state for tid, nil if unknown.
func (tr *Tracker) Get(tid kernel.TID) *TState { return tr.Threads[tid] }

// HandleMessage folds one kernel message into the tracker.
func (tr *Tracker) HandleMessage(ctx *agentsdk.Context, m ghostcore.Message) {
	if m.Type == ghostcore.MsgTimerTick {
		return
	}
	t := ctx.Thread(m.TID)
	switch m.Type {
	case ghostcore.MsgThreadCreated:
		if t == nil {
			return
		}
		ts := tr.get(t)
		if m.Runnable && !ts.Runnable {
			ts.Runnable = true
			if tr.OnRunnable != nil {
				tr.OnRunnable(ts, m)
			}
		}
	case ghostcore.MsgThreadWakeup:
		if t == nil {
			return
		}
		ts := tr.get(t)
		ts.Running = false
		if !ts.Runnable {
			ts.Runnable = true
			if tr.OnRunnable != nil {
				tr.OnRunnable(ts, m)
			}
		}
	case ghostcore.MsgThreadPreempted, ghostcore.MsgThreadYield:
		if t == nil {
			return
		}
		ts := tr.get(t)
		if ts.Running {
			ts.Runtime += ctx.Now() - ts.LastStart
		}
		ts.Running = false
		ts.Runnable = true
		if tr.OnRunnable != nil {
			tr.OnRunnable(ts, m)
		}
	case ghostcore.MsgThreadBlocked:
		ts := tr.Threads[m.TID]
		if ts == nil {
			return
		}
		if ts.Running {
			ts.Runtime += ctx.Now() - ts.LastStart
		}
		ts.Running = false
		ts.Runnable = false
		if tr.OnRemoved != nil {
			tr.OnRemoved(ts, m)
		}
	case ghostcore.MsgThreadDead:
		ts := tr.Threads[m.TID]
		if ts == nil {
			return
		}
		ts.Running = false
		ts.Runnable = false
		if tr.OnRemoved != nil {
			tr.OnRemoved(ts, m)
		}
		delete(tr.Threads, m.TID)
	case ghostcore.MsgThreadAffinity:
		// Mask is read directly from the thread when scheduling.
	}
}

// placements records which tracked thread a policy put on each CPU. It
// is indexed by CPU, so a walk visits CPUs in order with no map
// iteration and no sort; a nil entry means no placement.
type placements []*TState

// at returns the placement on cpu, nil if none.
func (pl placements) at(cpu hw.CPUID) *TState {
	if cpu < 0 || int(cpu) >= len(pl) {
		return nil
	}
	return pl[cpu]
}

// set places ts on cpu (nil clears it), growing the index as needed.
func (pl *placements) set(cpu hw.CPUID, ts *TState) {
	for int(cpu) >= len(*pl) {
		*pl = append(*pl, nil)
	}
	(*pl)[cpu] = ts
}

// MarkScheduled records a commit the policy just made.
func (tr *Tracker) MarkScheduled(ts *TState, cpu int, now sim.Time) {
	ts.Runnable = false
	ts.Enqueued = false
	ts.Running = true
	ts.CPU = cpu
	ts.LastStart = now
}

// MarkFailed reverts MarkScheduled after a failed transaction.
func (tr *Tracker) MarkFailed(ts *TState) {
	ts.Running = false
	ts.Runnable = true
	ts.CPU = -1
}
