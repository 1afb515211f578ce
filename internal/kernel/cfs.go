package kernel

import (
	"container/heap"

	"ghost/internal/hw"
	"ghost/internal/sim"
)

// niceWeights is the Linux sched_prio_to_weight table: the CFS weight for
// nice values -20..19. NICE_0 (index 20) is 1024.
var niceWeights = [40]int{
	88761, 71755, 56483, 46273, 36291,
	29154, 23254, 18705, 14949, 11916,
	9548, 7620, 6100, 4904, 3906,
	3121, 2501, 1991, 1586, 1277,
	1024, 820, 655, 526, 423,
	335, 272, 215, 172, 137,
	110, 87, 70, 56, 45,
	36, 29, 23, 18, 15,
}

const nice0Weight = 1024

func weightOf(nice int) int {
	if nice < -20 {
		nice = -20
	}
	if nice > 19 {
		nice = 19
	}
	return niceWeights[nice+20]
}

// cfsThread is the per-thread CFS state embedded in Thread.
type cfsThread struct {
	vruntime float64 // weighted virtual runtime, ns at nice-0 speed
	acctMark sim.Duration
	sliceRan sim.Duration // runtime since last switch-in, for slice expiry
	onRq     bool
	rqCPU    hw.CPUID
	seq      uint64
	idx      int
}

// cfsRq is one CPU's CFS runqueue: a min-heap on vruntime.
type cfsRq struct {
	threads []*Thread
	minVrun float64
}

func (q *cfsRq) Len() int { return len(q.threads) }
func (q *cfsRq) Less(i, j int) bool {
	a, b := &q.threads[i].cfs, &q.threads[j].cfs
	if a.vruntime != b.vruntime {
		return a.vruntime < b.vruntime
	}
	return a.seq < b.seq
}
func (q *cfsRq) Swap(i, j int) {
	q.threads[i], q.threads[j] = q.threads[j], q.threads[i]
	q.threads[i].cfs.idx = i
	q.threads[j].cfs.idx = j
}
func (q *cfsRq) Push(x any) {
	t := x.(*Thread)
	t.cfs.idx = len(q.threads)
	q.threads = append(q.threads, t)
}
func (q *cfsRq) Pop() any {
	n := len(q.threads)
	t := q.threads[n-1]
	q.threads[n-1] = nil
	t.cfs.idx = -1
	q.threads = q.threads[:n-1]
	return t
}

// CFS is a Completely Fair Scheduler: per-CPU vruntime-ordered runqueues
// with nice weighting, wakeup placement by cache distance, wake
// preemption, idle stealing, and periodic load balancing. It reproduces
// the behavioural properties of kernel/sched/fair.c that the paper's
// evaluation depends on: millisecond-scale rebalancing (§4.4) and
// fair sharing by nice value (§4.2).
type CFS struct {
	k   *Kernel
	rqs []*cfsRq
	seq uint64

	// New-idle balance gating, faithful to Linux: a CPU whose recent
	// idle periods are shorter than MigrationCost skips idle stealing
	// (it expects local work soon), leaving imbalances to the periodic
	// load balancer — the millisecond-scale rebalancing §4.4 contrasts
	// with ghOSt's µs-scale reaction.
	idleStart []sim.Time
	avgIdle   []sim.Duration

	// Tunables, defaulted to Linux's.
	TargetLatency  sim.Duration // sched_latency_ns
	MinGranularity sim.Duration // sched_min_granularity_ns
	WakeupGran     sim.Duration // sched_wakeup_granularity_ns
	BalancePeriod  sim.Duration
	MigrationCost  sim.Duration // sched_migration_cost_ns (newidle gate)

	balance *sim.Ticker // periodic load balancer (keyed for snapshots)
}

// NewCFS creates the CFS class and its periodic load balancer, and
// registers it with the kernel.
func NewCFS(k *Kernel) *CFS {
	c := &CFS{
		k:              k,
		rqs:            make([]*cfsRq, k.NumCPUs()),
		TargetLatency:  6 * sim.Millisecond,
		MinGranularity: 750 * sim.Microsecond,
		WakeupGran:     sim.Millisecond,
		BalancePeriod:  4 * sim.Millisecond,
		MigrationCost:  500 * sim.Microsecond,
		idleStart:      make([]sim.Time, k.NumCPUs()),
		avgIdle:        make([]sim.Duration, k.NumCPUs()),
	}
	for i := range c.rqs {
		c.rqs[i] = &cfsRq{}
	}
	k.AddIdleHook(func(cpu *CPU) { c.idleStart[cpu.ID] = k.Now() })
	c.balance = sim.NewTicker(k.Scheduler(), c.BalancePeriod, func(sim.Time) { c.loadBalance() })
	c.balance.Key = "cfs.balance"
	k.RegisterClass(c)
	return c
}

// BalanceTicker returns the periodic load-balance ticker (snapshot
// plumbing).
func (c *CFS) BalanceTicker() *sim.Ticker { return c.balance }

// Name implements Class.
func (c *CFS) Name() string { return "cfs" }

// Priority implements Class.
func (c *CFS) Priority() int { return PrioCFS }

// SwitchInCost implements Class.
func (c *CFS) SwitchInCost() sim.Duration { return c.k.cost.ContextSwitchCFS }

// ThreadAttached implements Class.
func (c *CFS) ThreadAttached(t *Thread) {
	t.cfs = cfsThread{idx: -1, rqCPU: hw.NoCPU, acctMark: t.cpuTime}
}

// ThreadDetached implements Class.
func (c *CFS) ThreadDetached(t *Thread, r DequeueReason) {}

// account charges t's runtime since the last accounting mark to its
// vruntime.
func (c *CFS) account(t *Thread) {
	rt := t.RuntimeNow()
	delta := rt - t.cfs.acctMark
	if delta > 0 {
		t.cfs.vruntime += float64(delta) * float64(nice0Weight) / float64(weightOf(t.nice))
		t.cfs.sliceRan += delta
	}
	t.cfs.acctMark = rt
}

// Enqueue implements Class.
func (c *CFS) Enqueue(t *Thread, cpu hw.CPUID, r EnqueueReason) {
	if t.cfs.onRq {
		return
	}
	c.account(t)
	rq := c.rqs[cpu]
	if r == EnqWake || r == EnqClassChange {
		// Sleeper placement: don't let long sleepers hoard credit, and
		// don't punish them either.
		min := rq.minVrun
		credit := min - float64(c.TargetLatency/2)
		if t.cfs.vruntime < credit {
			t.cfs.vruntime = credit
		}
	}
	t.cfs.onRq = true
	t.cfs.rqCPU = cpu
	t.cfs.seq = c.seq
	c.seq++
	heap.Push(rq, t)
}

// Dequeue implements Class.
func (c *CFS) Dequeue(t *Thread, r DequeueReason) {
	c.account(t)
	if t.cfs.onRq && t.cfs.idx >= 0 {
		heap.Remove(c.rqs[t.cfs.rqCPU], t.cfs.idx)
	}
	t.cfs.onRq = false
	t.cfs.rqCPU = hw.NoCPU
}

// Queued implements Class.
func (c *CFS) Queued(cpu *CPU) bool {
	if c.rqs[cpu.ID].Len() > 0 {
		return true
	}
	// Idle stealing: an idle CPU claims queued work from elsewhere.
	if cpu.Idle() {
		return c.findSteal(cpu) != nil
	}
	return false
}

// findSteal locates a stealable thread for idle CPU c: a queued thread on
// the busiest runqueue whose affinity admits c. Gated like Linux's
// newidle_balance: CPUs whose average idle period is below
// MigrationCost don't steal.
func (c *CFS) findSteal(cpu *CPU) *Thread {
	avg := c.avgIdle[cpu.ID]
	// Graded gate, like newidle_balance walking the domain hierarchy:
	// very short idles skip balancing entirely; moderate idles only
	// steal within the socket; long idles steal machine-wide.
	if avg != 0 && avg < c.MigrationCost/5 {
		return nil
	}
	sameSocketOnly := avg != 0 && avg < c.MigrationCost
	mySocket := c.k.topo.CPU(cpu.ID).Socket
	var best *Thread
	bestLen := 0
	for i, rq := range c.rqs {
		if hw.CPUID(i) == cpu.ID || rq.Len() == 0 {
			continue
		}
		if sameSocketOnly && c.k.topo.CPU(hw.CPUID(i)).Socket != mySocket {
			continue
		}
		if rq.Len() > bestLen {
			for _, t := range rq.threads {
				if t.affinity.Has(cpu.ID) {
					best = t
					bestLen = rq.Len()
					break
				}
			}
		}
	}
	return best
}

// Eligible implements Class: CFS threads keep their CPU until preempted.
func (c *CFS) Eligible(cpu *CPU, running *Thread) bool { return true }

// PickNext implements Class.
func (c *CFS) PickNext(cpu *CPU, prev *Thread) *Thread {
	rq := c.rqs[cpu.ID]
	if rq.Len() == 0 {
		if prev != nil {
			return prev
		}
		if st := c.findSteal(cpu); st != nil {
			heap.Remove(c.rqs[st.cfs.rqCPU], st.cfs.idx)
			st.cfs.onRq = false
			st.cfs.rqCPU = hw.NoCPU
			c.k.Tracef("cfs: cpu%d steals %v", cpu.ID, st)
			return st
		}
		return nil
	}
	cand := rq.threads[0]
	if prev != nil {
		c.account(prev)
		// Keep prev unless the candidate has meaningfully lower
		// vruntime (wakeup granularity hysteresis).
		if prev.cfs.vruntime <= cand.cfs.vruntime+float64(c.WakeupGran) {
			return prev
		}
		heap.Pop(rq)
		cand.cfs.onRq = false
		cand.cfs.rqCPU = hw.NoCPU
		prev.cfs.sliceRan = 0
		c.Enqueue(prev, cpu.ID, EnqPreempt)
		c.updateMin(rq)
		cand.cfs.sliceRan = 0
		return cand
	}
	heap.Pop(rq)
	cand.cfs.onRq = false
	cand.cfs.rqCPU = hw.NoCPU
	cand.cfs.sliceRan = 0
	cand.cfs.acctMark = cand.cpuTime
	c.updateMin(rq)
	c.noteLeaveIdle(cpu)
	return cand
}

// noteLeaveIdle folds the just-ended idle period into the CPU's
// exponentially weighted average idle time.
func (c *CFS) noteLeaveIdle(cpu *CPU) {
	start := c.idleStart[cpu.ID]
	if start == 0 {
		return
	}
	c.idleStart[cpu.ID] = 0
	dur := c.k.Now() - start
	if c.avgIdle[cpu.ID] == 0 {
		c.avgIdle[cpu.ID] = dur
	} else {
		c.avgIdle[cpu.ID] = (3*c.avgIdle[cpu.ID] + dur) / 4
	}
}

func (c *CFS) updateMin(rq *cfsRq) {
	if rq.Len() > 0 {
		if v := rq.threads[0].cfs.vruntime; v > rq.minVrun {
			rq.minVrun = v
		}
	}
}

// SelectCPU implements Class. Faithful to select_idle_sibling: a waking
// thread only searches its last CPU's LLC domain (CCX) for an idle CPU;
// cross-LLC moves happen via idle stealing and the periodic load
// balancer, at their own cadence — the CFS behaviour whose tail-latency
// cost §4.4 measures. Brand-new threads (no last CPU) are spread
// machine-wide, like fork balancing.
func (c *CFS) SelectCPU(t *Thread) hw.CPUID {
	k := c.k
	last := t.lastCPU
	if last != hw.NoCPU && t.affinity.Has(last) && k.cpus[last].FreeForPlacement() {
		return last
	}
	scan := func(domain Mask) (idle, least hw.CPUID) {
		idle, least = hw.NoCPU, hw.NoCPU
		bestDist := hw.DistRemote + 1
		leastLoad := 1 << 30
		domain.ForEach(func(id hw.CPUID) bool {
			cp := k.cpus[id]
			if cp.FreeForPlacement() {
				d := hw.DistCCX
				if last != hw.NoCPU {
					d = k.topo.Dist(last, id)
				}
				if d < bestDist {
					bestDist = d
					idle = id
				}
			}
			load := c.rqs[id].Len()
			if cp.curr != nil && cp.curr.class == c {
				load++
			}
			if load < leastLoad {
				leastLoad = load
				least = id
			}
			return true
		})
		return idle, least
	}
	domain := t.affinity
	if last != hw.NoCPU {
		if d := t.affinity.And(k.ccxMasks[k.cpus[last].Info.CCX]); !d.Empty() {
			domain = d
		}
	}
	idle, least := scan(domain)
	if idle != hw.NoCPU {
		return idle
	}
	if least != hw.NoCPU {
		return least
	}
	// Affinity excludes the LLC domain entirely: fall back to the mask.
	idle, least = scan(t.affinity)
	if idle != hw.NoCPU {
		return idle
	}
	if least != hw.NoCPU {
		return least
	}
	return t.affinity.CPUs()[0]
}

// WantsPreempt implements Class: wake preemption when the incoming thread
// is owed meaningfully more CPU than the running one.
func (c *CFS) WantsPreempt(cpu *CPU, curr, incoming *Thread) bool {
	c.account(curr)
	return curr.cfs.vruntime > incoming.cfs.vruntime+float64(c.WakeupGran)
}

// Tick implements Class: slice-expiry preemption.
func (c *CFS) Tick(cpu *CPU, t *Thread) {
	c.account(t)
	rq := c.rqs[cpu.ID]
	if rq.Len() == 0 {
		return
	}
	nr := rq.Len() + 1
	slice := c.TargetLatency / sim.Duration(nr)
	if slice < c.MinGranularity {
		slice = c.MinGranularity
	}
	if t.cfs.sliceRan >= slice {
		c.k.Resched(cpu.ID)
	}
}

// AffinityChanged implements Class: requeue if the thread's current queue
// is no longer allowed.
func (c *CFS) AffinityChanged(t *Thread) {
	if t.cfs.onRq && !t.affinity.Has(t.cfs.rqCPU) {
		c.Dequeue(t, DeqClassChange)
		t.cfs.onRq = false
		cpu := c.SelectCPU(t)
		c.Enqueue(t, cpu, EnqWake)
		c.k.Resched(cpu)
	}
}

// loadBalance evens queue lengths across the machine every
// BalancePeriod: repeated migrations from the busiest runqueue to the
// least-loaded CPU admitted by each candidate's affinity, including idle
// pulls of single stranded threads. This is CFS's millisecond-scale
// rebalancing cadence.
func (c *CFS) loadBalance() {
	moves := c.k.NumCPUs()/8 + 1
	for m := 0; m < moves; m++ {
		if !c.balanceOnce() {
			return
		}
	}
}

// balanceOnce performs at most one migration; reports whether it did.
func (c *CFS) balanceOnce() bool {
	load := func(id hw.CPUID) int {
		n := c.rqs[id].Len()
		cp := c.k.cpus[id]
		if cp.curr != nil && cp.curr.class == c {
			n++
		}
		return n
	}
	var src hw.CPUID = hw.NoCPU
	bestLen := 0
	for i, rq := range c.rqs {
		if rq.Len() > bestLen {
			bestLen = rq.Len()
			src = hw.CPUID(i)
		}
	}
	if src == hw.NoCPU {
		return false
	}
	srcLoad := load(src)
	for _, t := range c.rqs[src].threads {
		var tgt hw.CPUID = hw.NoCPU
		tgtLoad := 1 << 30
		t.affinity.ForEach(func(id hw.CPUID) bool {
			if id == src {
				return true
			}
			if l := load(id); l < tgtLoad {
				tgtLoad = l
				tgt = id
			}
			return tgtLoad > 0
		})
		if tgt == hw.NoCPU {
			continue
		}
		// Migrate on a 2+ imbalance, or pull onto a fully idle CPU.
		if srcLoad-tgtLoad >= 2 || (tgtLoad == 0 && c.k.cpus[tgt].Idle()) {
			heap.Remove(c.rqs[src], t.cfs.idx)
			t.cfs.onRq = false
			t.cfs.seq = c.seq
			c.seq++
			c.Enqueue(t, tgt, EnqPreempt)
			c.k.Tracef("cfs: balance %v cpu%d -> cpu%d", t, src, tgt)
			c.k.Resched(tgt)
			return true
		}
	}
	return false
}

// NrQueued returns the number of queued CFS threads on cpu (excluding a
// running one), for tests and policies.
func (c *CFS) NrQueued(cpu hw.CPUID) int { return c.rqs[cpu].Len() }
