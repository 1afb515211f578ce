package policies

import (
	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/tunable"
)

// Shinjuku implements the §4.2 preemptive centralized policy: runnable
// worker threads wait in a FIFO; each gets at most Slice of CPU before a
// transactional preemption puts it at the back. This reproduces the
// Shinjuku system's preemptive request scheduling for dispersive
// workloads, in policy code rather than a dedicated data plane.
//
// With Batch set, it becomes the Shinjuku+Shenango policy: threads
// classified as batch soak up idle CPUs but are displaced the moment
// latency-critical work appears — the paper's 17-line extension.
type Shinjuku struct {
	// Slice is the preemption timeslice (30 µs in the paper).
	Slice sim.Duration
	// Batch classifies low-priority batch threads (nil: none); external
	// code supplies it via ghost.NewShinjukuShenangoPolicy, whose
	// facade-typed ghost.ThreadSelector adapts directly onto it.
	Batch func(t *kernel.Thread) bool
	// MaxCommits bounds the assignments one Schedule round may emit
	// (the dispatcher's commit batch size); 0 is unbounded. Work left
	// over stays queued for the next agent step.
	MaxCommits int

	tr      *Tracker
	fifo    []*TState // latency-critical runnable FIFO
	batchq  []*TState
	running placements // latency threads the policy placed
	batchOn placements // batch threads the policy placed
	tun     *tunable.Set

	// ctx is retained from Attach for snapshot TID resolution.
	ctx *agentsdk.Context
}

// NewShinjuku builds the policy with the paper's 30 µs timeslice.
func NewShinjuku() *Shinjuku {
	return &Shinjuku{Slice: 30 * sim.Microsecond}
}

// NewShinjukuShenango builds the combined policy (§4.2 "Multiple
// Workloads"): batch threads are recognised by the isBatch classifier.
func NewShinjukuShenango(isBatch func(t *kernel.Thread) bool) *Shinjuku {
	p := NewShinjuku()
	p.Batch = isBatch
	return p
}

func (p *Shinjuku) isBatch(t *kernel.Thread) bool {
	return p.Batch != nil && p.Batch(t)
}

// Attach implements agentsdk.GlobalPolicy.
func (p *Shinjuku) Attach(ctx *agentsdk.Context) {
	p.ctx = ctx
	p.running, p.batchOn = nil, nil
	p.tr = NewTracker()
	p.tr.OnRunnable = func(ts *TState, m ghostcore.Message) {
		p.clearPlacement(ts)
		p.enqueue(ts)
	}
	p.tr.OnRemoved = func(ts *TState, m ghostcore.Message) {
		p.clearPlacement(ts)
		p.dequeue(ts)
	}
	p.tr.Rebuild(ctx)
}

func (p *Shinjuku) clearPlacement(ts *TState) {
	if ts.CPU < 0 {
		return
	}
	cpu := hw.CPUID(ts.CPU)
	if p.running.at(cpu) == ts {
		p.running.set(cpu, nil)
	}
	if p.batchOn.at(cpu) == ts {
		p.batchOn.set(cpu, nil)
	}
	ts.CPU = -1
}

func (p *Shinjuku) enqueue(ts *TState) {
	if ts.Enqueued {
		return
	}
	ts.Enqueued = true
	if p.isBatch(ts.Thread) {
		p.batchq = append(p.batchq, ts)
	} else {
		p.fifo = append(p.fifo, ts)
	}
}

func (p *Shinjuku) dequeue(ts *TState) {
	if !ts.Enqueued {
		return
	}
	ts.Enqueued = false
	q := &p.fifo
	if p.isBatch(ts.Thread) {
		q = &p.batchq
	}
	for i, e := range *q {
		if e == ts {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}

// OnMessage implements agentsdk.GlobalPolicy.
func (p *Shinjuku) OnMessage(ctx *agentsdk.Context, m ghostcore.Message) {
	p.tr.HandleMessage(ctx, m)
}

func (p *Shinjuku) pop(q *[]*TState, cpu hw.CPUID) *TState {
	for i, ts := range *q {
		if ts.Thread.State() == kernel.StateRunnable && ts.Thread.Affinity().Has(cpu) {
			*q = append((*q)[:i], (*q)[i+1:]...)
			ts.Enqueued = false
			return ts
		}
	}
	return nil
}

// Schedule implements agentsdk.GlobalPolicy: fill idle CPUs from the
// FIFO, displace batch work for latency work, enforce the timeslice with
// transactional preemptions, then hand leftovers to batch threads.
func (p *Shinjuku) Schedule(ctx *agentsdk.Context) []agentsdk.Assignment {
	now := ctx.Now()
	var out []agentsdk.Assignment
	// full reports the commit batch exhausted (MaxCommits); leftover
	// runnable work stays queued for the next step.
	full := func() bool { return p.MaxCommits > 0 && len(out) >= p.MaxCommits }
	place := func(ts *TState, cpu hw.CPUID, batch bool) {
		p.tr.MarkScheduled(ts, int(cpu), now)
		if batch {
			p.batchOn.set(cpu, ts)
		} else {
			p.running.set(cpu, ts)
		}
		out = append(out, agentsdk.Assignment{Thread: ts.Thread, CPU: cpu})
	}

	idle := ctx.IdleCPUs()
	// 1. Idle CPUs serve the latency FIFO first.
	rest := idle[:0]
	for _, cpu := range idle {
		if !full() {
			if ts := p.pop(&p.fifo, cpu); ts != nil {
				place(ts, cpu, false)
				continue
			}
		}
		rest = append(rest, cpu)
	}
	idle = rest

	// 2. Latency work still waiting displaces batch threads.
	for len(p.fifo) > 0 && !full() {
		victim, ok := p.anyBatchCPU()
		if !ok {
			break
		}
		ts := p.pop(&p.fifo, victim)
		if ts == nil {
			break
		}
		p.batchOn.set(victim, nil)
		place(ts, victim, false)
	}

	// 3. Timeslice expiry: round-robin preemption of long requests, in
	// CPU order. A preemption replaces only the entry being visited, so
	// the walk never sees the thread it just placed.
	if len(p.fifo) > 0 {
		for _, cur := range p.running {
			if len(p.fifo) == 0 || full() {
				break
			}
			if cur == nil || now-cur.LastStart < p.Slice {
				continue
			}
			tgt := hw.CPUID(cur.CPU)
			ts := p.pop(&p.fifo, tgt)
			if ts == nil {
				continue
			}
			// The commit preempts cur; its THREAD_PREEMPTED message
			// re-enqueues it at the back of the FIFO.
			place(ts, tgt, false)
		}
	}

	// 4. Spare capacity goes to batch threads (Shenango extension).
	for _, cpu := range idle {
		if full() {
			break
		}
		if ts := p.pop(&p.batchq, cpu); ts != nil {
			place(ts, cpu, true)
		}
	}

	// Re-poll in time for the next slice expiry.
	if next := p.nextExpiry(now); next > 0 {
		ctx.RepollAfter(next)
	}
	return out
}

// anyBatchCPU returns the lowest CPU running a placed batch thread.
func (p *Shinjuku) anyBatchCPU() (hw.CPUID, bool) {
	for cpu, ts := range p.batchOn {
		if ts != nil && ts.Thread.State() == kernel.StateRunning {
			return hw.CPUID(cpu), true
		}
	}
	return hw.NoCPU, false
}

// nextExpiry returns the time until the earliest running thread exceeds
// its slice, 0 if nothing is running.
func (p *Shinjuku) nextExpiry(now sim.Time) sim.Duration {
	var min sim.Duration
	for _, ts := range p.running {
		if ts == nil {
			continue
		}
		d := ts.LastStart + p.Slice - now
		if d < sim.Microsecond {
			d = sim.Microsecond
		}
		if min == 0 || d < min {
			min = d
		}
	}
	return min
}

// OnTxnFail implements agentsdk.GlobalPolicy.
func (p *Shinjuku) OnTxnFail(ctx *agentsdk.Context, a agentsdk.Assignment, s ghostcore.TxnStatus) {
	ts := p.tr.Get(a.Thread.TID())
	if ts == nil {
		return
	}
	p.clearPlacement(ts)
	p.tr.MarkFailed(ts)
	if ts.Thread.State() == kernel.StateRunnable {
		p.enqueue(ts)
	} else {
		ts.Runnable = false
	}
}

// Tunables implements tunable.Policy: the knobs the auto-tuner may
// search (cmd/ghost-tune).
func (p *Shinjuku) Tunables() *tunable.Set {
	if p.tun == nil {
		p.tun = tunable.NewSet().
			Add(tunable.Tunable{
				Name: "slice_us", Doc: "preemption timeslice in µs (paper: 30)",
				Min: 5, Max: 1000, Default: 30, Log: true,
				Apply: func(v float64) { p.Slice = sim.Duration(v * float64(sim.Microsecond)) },
			}).
			Add(tunable.Tunable{
				Name: "max_commits", Doc: "commit batch size per scheduling round (unbounded at 0; searched 1–64)",
				Min: 1, Max: 64, Default: 0, Integer: true,
				Apply: func(v float64) { p.MaxCommits = int(v) },
			})
	}
	return p.tun
}

// QueueLens reports FIFO and batch queue lengths (for tests).
func (p *Shinjuku) QueueLens() (latency, batch int) {
	return len(p.fifo), len(p.batchq)
}
