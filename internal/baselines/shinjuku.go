// Package baselines implements the systems the paper compares ghOSt
// against: the Shinjuku dedicated data plane (§4.2) and in-kernel secure
// core scheduling (§4.5). (CFS and MicroQuanta live in internal/kernel.)
package baselines

import (
	"errors"
	"fmt"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

// ShinjukuDataplane models the original Shinjuku system (NSDI '19, §4.2
// of the ghOSt paper): a spinning dispatcher on a dedicated physical
// core plus spinning worker threads pinned to hyperthreads. Workers
// process requests in Slice-bounded chunks; preempted requests return to
// the back of the dispatcher's FIFO. The spinning threads permanently
// occupy their CPUs (Fig 6c: a co-located batch app gets no cycles),
// modelled by running them in the machine's top-priority dedicated
// class.
type ShinjukuDataplane struct {
	k   *kernel.Kernel
	rec *workload.LatencyRecorder

	// Slice is the preemption timeslice (30 µs in the paper).
	Slice sim.Duration
	// PreemptCost is the per-preemption overhead (Shinjuku's
	// virtualization-assisted posted interrupt plus requeue, ~1-2 µs).
	PreemptCost sim.Duration
	// DispatchCost is charged per request handoff from the FIFO.
	DispatchCost sim.Duration

	fifo       []*workload.Request
	workers    []*spinWorker
	dispatcher *kernel.Thread
}

// spinWorker is one dedicated spinning worker.
type spinWorker struct {
	dp     *ShinjukuDataplane
	cpu    hw.CPUID
	thread *kernel.Thread
	cur    *workload.Request
	// idle is true only while the worker is genuinely spin-waiting on
	// the FIFO (not mid-chunk); Submit uses it to pick a poke target.
	idle bool
}

// NewShinjukuDataplane builds the data plane: the dispatcher on
// dispatcherCPU and one spinning worker per workerCPUs entry, all in
// dedicated (top-priority) class dc.
func NewShinjukuDataplane(k *kernel.Kernel, dc *kernel.AgentClass,
	dispatcherCPU hw.CPUID, workerCPUs []hw.CPUID, rec *workload.LatencyRecorder) *ShinjukuDataplane {
	dp := &ShinjukuDataplane{
		k: k, rec: rec,
		Slice:        30 * sim.Microsecond,
		PreemptCost:  1500,
		DispatchCost: 300,
	}
	// Dispatcher: pure spinner occupying its core (its work is folded
	// into DispatchCost on the worker side). Like the workers it starts
	// parked and spins from its first run on its CPU.
	dp.dispatcher = k.Spawn(kernel.SpawnOpts{
		Name: "shinjuku-dispatcher", Class: dc, Affinity: kernel.MaskOf(dispatcherCPU),
	}, func(tc *kernel.TaskContext) kernel.Op {
		if tc.Thread().State() == kernel.StateNew {
			return kernel.Park()
		}
		return kernel.Spin()
	})
	k.Wake(dp.dispatcher)
	for _, cpu := range workerCPUs {
		w := &spinWorker{dp: dp, cpu: cpu}
		w.thread = k.Spawn(kernel.SpawnOpts{
			Name: fmt.Sprintf("shinjuku-worker-%d", cpu), Class: dc, Affinity: kernel.MaskOf(cpu),
		}, w.Step)
		dp.workers = append(dp.workers, w)
		k.Wake(w.thread)
	}
	return dp
}

// Submit enqueues a request (the load generator sink).
func (dp *ShinjukuDataplane) Submit(r *workload.Request) {
	dp.fifo = append(dp.fifo, r)
	dp.kickIdle(nil)
}

// kickIdle pokes one spinning worker that has no current request.
func (dp *ShinjukuDataplane) kickIdle(except *spinWorker) {
	if len(dp.fifo) == 0 {
		return
	}
	for _, w := range dp.workers {
		if w != except && w.idle {
			dp.k.Poke(w.thread)
			return
		}
	}
}

// Step is a worker's thread body. It starts parked; every later call is
// one step on the worker's CPU: run the current request for up to a
// slice, preempting long requests back to the FIFO.
func (w *spinWorker) Step(tc *kernel.TaskContext) kernel.Op {
	if tc.Thread().State() == kernel.StateNew {
		return kernel.Park()
	}
	dp := w.dp
	w.idle = false
	if w.cur == nil {
		if len(dp.fifo) == 0 {
			w.idle = true
			return kernel.Spin() // spin-wait on the request queue
		}
		w.cur = dp.fifo[0]
		dp.fifo = dp.fifo[1:]
		dp.kickIdle(w) // more queued work: wake another idle worker
		return again(tc, dp.DispatchCost)
	}
	r := w.cur
	chunk := r.Remaining
	if chunk > dp.Slice {
		chunk = dp.Slice
	}
	r.Remaining -= chunk
	if r.Remaining > 0 {
		// Preemption: requeue at the back of the FIFO (§4.2).
		w.cur = nil
		dp.fifo = append(dp.fifo, r)
		return again(tc, chunk+dp.PreemptCost)
	}
	w.cur = nil
	done := r
	// Completion is recorded when the chunk's cost has elapsed; capture
	// via a timestamped event.
	dp.k.Scheduler().After(chunk, func() {
		dp.rec.Record(done, dp.k.Now())
		if done.Done != nil {
			done.Done(done, dp.k.Now())
		}
	})
	return again(tc, chunk)
}

// errZeroCostStep guards again: at zero cost a worker would step again at
// the same instant forever.
var errZeroCostStep = errors.New("baselines: zero-cost worker step would livelock")

// again charges cost and then steps again: a Run with no follow-up.
func again(tc *kernel.TaskContext, cost sim.Duration) kernel.Op {
	if cost == 0 {
		panic(errZeroCostStep)
	}
	return tc.Run(cost)
}

// QueueLen returns the FIFO depth (for tests).
func (dp *ShinjukuDataplane) QueueLen() int { return len(dp.fifo) }
