package policies

import (
	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/tunable"
)

// CentralFIFO is the centralized FIFO policy: a single global agent
// keeps all runnable threads in FIFO order (optionally split into
// priority bands) and schedules them onto idle CPUs as capacity appears.
// It is the round-robin policy of Fig 5 and, with two bands and
// PreemptLower, the Snap policy of §4.3 (Snap workers get strict
// priority over antagonist threads, which only consume spare cycles).
type CentralFIFO struct {
	// Band classifies threads into priority bands (0 = highest). Nil
	// puts every thread in band 0. This is the internal hook; external
	// code configures it via ghost.NewBandedFIFOPolicy / ghost.SnapPolicy,
	// whose facade-typed ghost.BandFunc adapts directly onto it.
	Band func(t *kernel.Thread) int
	// NumBands is the number of bands (default 1).
	NumBands int
	// PreemptLower lets a queued thread preempt a running thread of a
	// strictly lower band via a transactional preemption.
	PreemptLower bool
	// Quantum, when positive, turns the FIFO into the round-robin of
	// Fig 5: a running thread that has held its CPU for Quantum is
	// transactionally preempted as soon as same-or-higher-band work is
	// queued for that CPU. Zero (the default) runs threads to
	// block/completion.
	Quantum sim.Duration

	tr     *Tracker
	queues [][]*TState
	// running mirrors which tracked thread the policy put on each CPU.
	running placements
	tun     *tunable.Set
	// ctx is retained from Attach for snapshot TID resolution.
	ctx *agentsdk.Context
}

// NewCentralFIFO builds the policy.
func NewCentralFIFO() *CentralFIFO { return &CentralFIFO{} }

func (p *CentralFIFO) bandOf(t *kernel.Thread) int {
	if p.Band == nil {
		return 0
	}
	b := p.Band(t)
	if b < 0 {
		b = 0
	}
	if b >= len(p.queues) {
		b = len(p.queues) - 1
	}
	return b
}

// Attach implements agentsdk.GlobalPolicy.
func (p *CentralFIFO) Attach(ctx *agentsdk.Context) {
	p.ctx = ctx
	if p.NumBands <= 0 {
		p.NumBands = 1
	}
	p.queues = make([][]*TState, p.NumBands)
	p.running = nil
	// unplace forgets ts's last CPU and clears that CPU's placement only
	// while it still holds ts: a quantum or band preemption places the
	// successor before the preempted thread's message arrives.
	unplace := func(ts *TState) {
		if ts.CPU < 0 {
			return
		}
		if cpu := hw.CPUID(ts.CPU); p.running.at(cpu) == ts {
			p.running.set(cpu, nil)
		}
		ts.CPU = -1
	}
	p.tr = NewTracker()
	p.tr.OnRunnable = func(ts *TState, m ghostcore.Message) {
		unplace(ts)
		p.enqueue(ts)
	}
	p.tr.OnRemoved = func(ts *TState, m ghostcore.Message) {
		unplace(ts)
		p.dequeue(ts)
	}
	p.tr.Rebuild(ctx)
}

func (p *CentralFIFO) enqueue(ts *TState) {
	if ts.Enqueued {
		return
	}
	ts.Enqueued = true
	b := p.bandOf(ts.Thread)
	p.queues[b] = append(p.queues[b], ts)
}

func (p *CentralFIFO) dequeue(ts *TState) {
	if !ts.Enqueued {
		return
	}
	ts.Enqueued = false
	b := p.bandOf(ts.Thread)
	q := p.queues[b]
	for i, e := range q {
		if e == ts {
			p.queues[b] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// OnMessage implements agentsdk.GlobalPolicy.
func (p *CentralFIFO) OnMessage(ctx *agentsdk.Context, m ghostcore.Message) {
	p.tr.HandleMessage(ctx, m)
}

// popFor removes and returns the first queued thread in band b that may
// run on cpu.
func (p *CentralFIFO) popFor(b int, cpu hw.CPUID) *TState {
	q := p.queues[b]
	for i, ts := range q {
		if ts.Thread.State() == kernel.StateRunnable && ts.Thread.Affinity().Has(cpu) {
			p.queues[b] = append(q[:i], q[i+1:]...)
			ts.Enqueued = false
			return ts
		}
	}
	return nil
}

// Schedule implements agentsdk.GlobalPolicy (the Fig 4 loop).
func (p *CentralFIFO) Schedule(ctx *agentsdk.Context) []agentsdk.Assignment {
	var out []agentsdk.Assignment
	now := ctx.Now()
	for _, cpu := range ctx.IdleCPUs() {
		assigned := false
		for b := 0; b < len(p.queues) && !assigned; b++ {
			if ts := p.popFor(b, cpu); ts != nil {
				p.tr.MarkScheduled(ts, int(cpu), now)
				p.running.set(cpu, ts)
				out = append(out, agentsdk.Assignment{Thread: ts.Thread, CPU: cpu})
				assigned = true
			}
		}
	}
	if p.PreemptLower {
		// Remaining high-band work may displace running lower-band
		// threads (Snap workers over antagonists, §4.3).
		for b := 0; b < len(p.queues)-1; b++ {
			for len(p.queues[b]) > 0 {
				victimCPU, ok := p.findLowerBandVictim(b)
				if !ok {
					break
				}
				ts := p.popFor(b, victimCPU)
				if ts == nil {
					break
				}
				p.tr.MarkScheduled(ts, int(victimCPU), now)
				p.running.set(victimCPU, ts)
				out = append(out, agentsdk.Assignment{Thread: ts.Thread, CPU: victimCPU})
			}
		}
	}
	if p.Quantum > 0 {
		// Round-robin (Fig 5): a thread past its quantum yields to queued
		// work of the same or a higher band; the preempted thread's
		// THREAD_PREEMPTED message re-enqueues it at the back. The walk
		// is in CPU order and a preemption replaces only the visited entry.
		for _, cur := range p.running {
			if cur == nil || now-cur.LastStart < p.Quantum {
				continue
			}
			cpu := hw.CPUID(cur.CPU)
			band := p.bandOf(cur.Thread)
			var ts *TState
			for b := 0; b <= band && ts == nil; b++ {
				ts = p.popFor(b, cpu)
			}
			if ts == nil {
				continue
			}
			p.tr.MarkScheduled(ts, int(cpu), now)
			p.running.set(cpu, ts)
			out = append(out, agentsdk.Assignment{Thread: ts.Thread, CPU: cpu})
		}
		if next := p.nextExpiry(now); next > 0 {
			ctx.RepollAfter(next)
		}
	}
	return out
}

// nextExpiry returns the delay until the earliest running thread exceeds
// the quantum, 0 when nothing is running.
func (p *CentralFIFO) nextExpiry(now sim.Time) sim.Duration {
	var min sim.Duration
	for _, ts := range p.running {
		if ts == nil {
			continue
		}
		d := ts.LastStart + p.Quantum - now
		if d < sim.Microsecond {
			d = sim.Microsecond
		}
		if min == 0 || d < min {
			min = d
		}
	}
	return min
}

// findLowerBandVictim returns the lowest CPU running a placed thread of
// a band below band.
func (p *CentralFIFO) findLowerBandVictim(band int) (hw.CPUID, bool) {
	for cpu, ts := range p.running {
		if ts != nil && p.bandOf(ts.Thread) > band && ts.Thread.State() == kernel.StateRunning {
			return hw.CPUID(cpu), true
		}
	}
	return hw.NoCPU, false
}

// OnTxnFail implements agentsdk.GlobalPolicy: failed commits re-enter the
// queue at the back (Fig 3/4 semantics).
func (p *CentralFIFO) OnTxnFail(ctx *agentsdk.Context, a agentsdk.Assignment, s ghostcore.TxnStatus) {
	ts := p.tr.Get(a.Thread.TID())
	if ts == nil {
		return
	}
	p.running.set(a.CPU, nil)
	p.tr.MarkFailed(ts)
	if ts.Thread.State() == kernel.StateRunnable {
		p.enqueue(ts)
	} else {
		ts.Runnable = false
	}
}

// Tunables implements tunable.Policy: the knobs the auto-tuner may
// search (cmd/ghost-tune). Defaults mirror the zero-value policy.
func (p *CentralFIFO) Tunables() *tunable.Set {
	if p.tun == nil {
		p.tun = tunable.NewSet().
			Add(tunable.Tunable{
				Name: "quantum_us", Doc: "round-robin quantum in µs (run-to-block at 0; searched 5–500)",
				Min: 5, Max: 500, Default: 0, Log: true,
				Apply: func(v float64) { p.Quantum = sim.Duration(v * float64(sim.Microsecond)) },
			}).
			Add(tunable.Tunable{
				Name: "preempt_lower", Doc: "queued high-band work preempts running lower bands (0/1)",
				Min: 0, Max: 1, Default: 0, Integer: true,
				Apply: func(v float64) { p.PreemptLower = v >= 0.5 },
			})
	}
	return p.tun
}

// QueueLen reports the number of queued (waiting) threads, for tests.
func (p *CentralFIFO) QueueLen() int {
	n := 0
	for _, q := range p.queues {
		n += len(q)
	}
	return n
}
