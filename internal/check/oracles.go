package check

import (
	"errors"
	"sort"

	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// seqOracle checks per-thread Tseq and per-agent Aseq monotonicity: each
// event advances the sequence by exactly one (§3.1 staleness detection
// depends on this).
type seqOracle struct {
	Base
	tseq map[*kernel.Thread]uint64
	aseq map[*ghostcore.Agent]uint64
}

func newSeqOracle() *seqOracle {
	return &seqOracle{
		tseq: make(map[*kernel.Thread]uint64),
		aseq: make(map[*ghostcore.Agent]uint64),
	}
}

func (o *seqOracle) Name() string { return "seq-monotonic" }

func (o *seqOracle) Tseq(c *Checker, e *ghostcore.Enclave, t *kernel.Thread, old, new uint64, mt ghostcore.MsgType) {
	if new != old+1 {
		c.Reportf(o, "enc%d thread %d tseq did not advance on %v: %d -> %d",
			e.ID(), t.TID(), mt, old, new)
	}
	if last, ok := o.tseq[t]; ok && old != last {
		c.Reportf(o, "enc%d thread %d tseq regressed or skipped: last seen %d, event from %d",
			e.ID(), t.TID(), last, old)
	}
	o.tseq[t] = new
}

func (o *seqOracle) Aseq(c *Checker, e *ghostcore.Enclave, a *ghostcore.Agent, old, new uint64) {
	if new != old+1 {
		c.Reportf(o, "enc%d agent cpu%d aseq did not advance: %d -> %d",
			e.ID(), a.CPU(), old, new)
	}
	if last, ok := o.aseq[a]; ok && old != last {
		c.Reportf(o, "enc%d agent cpu%d aseq regressed or skipped: last seen %d, event from %d",
			e.ID(), a.CPU(), last, old)
	}
	o.aseq[a] = new
}

// statusWordOracle checks status-word/state-machine consistency: a
// status word claiming OnCpu implies the thread is Running on exactly
// one CPU, and a latch-slot install never silently overwrites another
// thread's latch (the displaced thread must be handed back first).
type statusWordOracle struct {
	Base
	latched map[*kernel.Thread]hw.CPUID
	// claimed[cpu] == gen marks cpu as claimed OnCpu in the current
	// enclave scan; gen advances per scan, so the scratch is never
	// cleared and the scan allocates nothing.
	claimed []uint64
	gen     uint64
}

func newStatusWordOracle() *statusWordOracle {
	return &statusWordOracle{latched: make(map[*kernel.Thread]hw.CPUID)}
}

func (o *statusWordOracle) Name() string { return "status-word" }

func (o *statusWordOracle) SwitchIn(c *Checker, cpu *kernel.CPU, t *kernel.Thread) {
	// Scan every live enclave's status words: OnCpu threads must be
	// Running, and no CPU may carry two OnCpu claims. The switch hook
	// runs between events, so the snapshot is consistent. The scan runs
	// on every context switch, so it allocates only to report.
	if o.claimed == nil {
		o.claimed = make([]uint64, c.k.NumCPUs())
	}
	for _, e := range c.Ghost().Enclaves() {
		o.gen++
		dup := false
		for _, th := range e.ThreadsView() {
			sw := e.StatusWord(th)
			if sw == nil || !sw.OnCPU {
				continue
			}
			if th.State() != kernel.StateRunning {
				c.Reportf(o, "enc%d thread %d status word claims OnCpu (cpu%d) but state is %v",
					e.ID(), th.TID(), sw.CPU, th.State())
			}
			if i := int(sw.CPU); i < 0 || i >= len(o.claimed) || o.claimed[i] == o.gen {
				dup = true // a second claim, or one out of range: the exact pass judges
			} else {
				o.claimed[i] = o.gen
			}
		}
		if dup {
			o.reportDuplicates(c, e)
		}
	}
}

// reportDuplicates reports every CPU of e that more than one status word
// claims OnCpu, in CPU order, each with its claimants in TID order.
func (o *statusWordOracle) reportDuplicates(c *Checker, e *ghostcore.Enclave) {
	byCPU := make(map[hw.CPUID][]kernel.TID)
	for _, th := range e.ThreadsView() {
		if sw := e.StatusWord(th); sw != nil && sw.OnCPU {
			byCPU[sw.CPU] = append(byCPU[sw.CPU], th.TID())
		}
	}
	cpus := make([]int, 0, len(byCPU))
	for swCPU := range byCPU {
		cpus = append(cpus, int(swCPU))
	}
	sort.Ints(cpus)
	for _, swCPU := range cpus {
		if tids := byCPU[hw.CPUID(swCPU)]; len(tids) > 1 {
			c.Reportf(o, "enc%d: %d threads claim OnCpu for cpu%d: %v",
				e.ID(), len(tids), swCPU, tids)
		}
	}
}

func (o *statusWordOracle) Latched(c *Checker, e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread) {
	if prev, ok := o.latched[t]; ok && prev != cpu {
		c.Reportf(o, "enc%d thread %d latched on cpu%d while still latched on cpu%d",
			e.ID(), t.TID(), cpu, prev)
	}
	o.latched[t] = cpu
}

func (o *statusWordOracle) Unlatched(c *Checker, e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread, why string) {
	delete(o.latched, t)
}

func (o *statusWordOracle) Installed(c *Checker, e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread) {
	// A switch-in consumed cpu's latch slot; no other thread may still
	// believe it is latched there — that would mean a commit overwrote
	// the slot without handing the displaced thread back (double latch).
	var stuck []kernel.TID
	for th, lcpu := range o.latched {
		if lcpu == cpu && th != t {
			stuck = append(stuck, th.TID())
		}
	}
	if len(stuck) > 0 {
		sort.Slice(stuck, func(i, j int) bool { return stuck[i] < stuck[j] })
		c.Reportf(o, "enc%d: cpu%d installed thread %d while threads %v are still latched there (double latch)",
			e.ID(), cpu, t.TID(), stuck)
	}
}

// atomicityOracle checks group-commit atomicity (§4.5): an atomic
// transaction group either commits every member or none.
type atomicityOracle struct{ Base }

func newAtomicityOracle() *atomicityOracle { return &atomicityOracle{} }

func (o *atomicityOracle) Name() string { return "txn-atomicity" }

func (o *atomicityOracle) TxnGroup(c *Checker, e *ghostcore.Enclave, txns []*ghostcore.Txn, atomic bool) {
	if !atomic || len(txns) == 0 {
		// Non-atomic groups only promise per-member statuses; check that
		// no member was left pending.
		for _, txn := range txns {
			if txn.Status == ghostcore.TxnPending {
				c.Reportf(o, "enc%d: TXNS_COMMIT left txn (tid %d cpu%d) pending",
					e.ID(), txn.TID, txn.CPU)
			}
		}
		return
	}
	committed := 0
	for _, txn := range txns {
		if txn.Status == ghostcore.TxnCommitted {
			committed++
		}
	}
	if committed != 0 && committed != len(txns) {
		c.Reportf(o, "enc%d: atomic group of %d committed only %d members",
			e.ID(), len(txns), committed)
	}
}

// msgKey identifies one conservation ledger line.
type msgKey struct {
	enc int
	tid kernel.TID
	mt  ghostcore.MsgType
}

// msgCount is the ledger for one (enclave, thread, type) line.
type msgCount struct {
	intents   int // kernel decided to post
	delivered int // landed in a queue (incl. dup copies)
	dups      int // fault-duplicated extra copies
	dropped   int // swallowed by a fault window
	discarded int // posted to a dead queue
	pending   int // fault-delayed, not yet delivered
	drained   int // consumed by an agent
}

// conservationOracle checks message-queue conservation: every message
// the kernel intends to post is delivered exactly once, or accountably
// dropped/discarded/delayed by a fault — never lost and never duplicated
// outside a fault window.
type conservationOracle struct {
	Base
	counts  map[msgKey]*msgCount
	excused map[int]bool // enclaves destroyed mid-run: teardown discards freely
}

func newConservationOracle() *conservationOracle {
	return &conservationOracle{
		counts:  make(map[msgKey]*msgCount),
		excused: make(map[int]bool),
	}
}

func (o *conservationOracle) Name() string { return "msg-conservation" }

func (o *conservationOracle) line(e *ghostcore.Enclave, tid kernel.TID, mt ghostcore.MsgType) *msgCount {
	k := msgKey{enc: e.ID(), tid: tid, mt: mt}
	mc := o.counts[k]
	if mc == nil {
		mc = &msgCount{}
		o.counts[k] = mc
	}
	return mc
}

func (o *conservationOracle) MsgIntent(c *Checker, e *ghostcore.Enclave, tid kernel.TID, mt ghostcore.MsgType) {
	if mt == ghostcore.MsgTimerTick || tid == 0 {
		return
	}
	o.line(e, tid, mt).intents++
}

func (o *conservationOracle) MsgDelivered(c *Checker, e *ghostcore.Enclave, m ghostcore.Message, dup, delayed bool) {
	if m.Type == ghostcore.MsgTimerTick || m.TID == 0 {
		return
	}
	mc := o.line(e, m.TID, m.Type)
	mc.delivered++
	if dup {
		mc.dups++
	}
	if delayed {
		mc.pending--
	}
	if mc.delivered-mc.dups > mc.intents {
		c.Reportf(o, "enc%d thread %d %v delivered %d times for %d intents (duplication outside a fault window)",
			e.ID(), m.TID, m.Type, mc.delivered-mc.dups, mc.intents)
	}
}

func (o *conservationOracle) MsgFaultDropped(c *Checker, e *ghostcore.Enclave, m ghostcore.Message) {
	if m.Type == ghostcore.MsgTimerTick || m.TID == 0 {
		return
	}
	o.line(e, m.TID, m.Type).dropped++
}

func (o *conservationOracle) MsgDelayed(c *Checker, e *ghostcore.Enclave, m ghostcore.Message) {
	if m.Type == ghostcore.MsgTimerTick || m.TID == 0 {
		return
	}
	o.line(e, m.TID, m.Type).pending++
}

func (o *conservationOracle) MsgDiscarded(c *Checker, e *ghostcore.Enclave, m ghostcore.Message) {
	if m.Type == ghostcore.MsgTimerTick || m.TID == 0 {
		return
	}
	o.line(e, m.TID, m.Type).discarded++
}

func (o *conservationOracle) MsgDrained(c *Checker, e *ghostcore.Enclave, m ghostcore.Message) {
	if m.Type == ghostcore.MsgTimerTick || m.TID == 0 {
		return
	}
	mc := o.line(e, m.TID, m.Type)
	mc.drained++
	if mc.drained > mc.delivered {
		c.Reportf(o, "enc%d thread %d %v drained %d times but only %d delivered",
			e.ID(), m.TID, m.Type, mc.drained, mc.delivered)
	}
}

func (o *conservationOracle) Destroyed(c *Checker, e *ghostcore.Enclave, cause error, threads []*kernel.Thread) {
	o.excused[e.ID()] = true
}

func (o *conservationOracle) Finish(c *Checker, now sim.Time) {
	keys := make([]msgKey, 0, len(o.counts))
	for k := range o.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.enc != b.enc {
			return a.enc < b.enc
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		return a.mt < b.mt
	})
	for _, k := range keys {
		if o.excused[k.enc] {
			continue
		}
		mc := o.counts[k]
		if mc.intents+mc.dups != mc.delivered+mc.dropped+mc.discarded+mc.pending {
			c.Reportf(o, "enc%d thread %d %v not conserved: %d posted (+%d dup) vs %d delivered, %d dropped, %d discarded, %d in flight",
				k.enc, k.tid, k.mt, mc.intents, mc.dups,
				mc.delivered, mc.dropped, mc.discarded, mc.pending)
		}
	}
}

// lostThreadOracle checks no-lost-thread liveness: for every transition
// to runnable the kernel posts a message, so a thread that has been
// runnable-waiting past the threshold must have its runnability known
// SOMEWHERE — an undrained runnable message in a queue, a drain by the
// agent since it became runnable, or a latch (a committed install on the
// way). A policy that was informed and still starves a thread is a QoS
// problem the watchdog owns (§3.4), not a protocol violation; a thread
// nobody knows about is lost.
type lostThreadOracle struct {
	Base
	excusedTID map[kernel.TID]bool     // messages fault-dropped: agent is blind
	informed   map[kernel.TID]sim.Time // last drain of a runnable-indicating message
	queued     map[kernel.TID]int      // undrained runnable-indicating messages
}

func newLostThreadOracle() *lostThreadOracle {
	return &lostThreadOracle{
		excusedTID: make(map[kernel.TID]bool),
		informed:   make(map[kernel.TID]sim.Time),
		queued:     make(map[kernel.TID]int),
	}
}

func (o *lostThreadOracle) Name() string { return "no-lost-thread" }

func (o *lostThreadOracle) MsgFaultDropped(c *Checker, e *ghostcore.Enclave, m ghostcore.Message) {
	if m.TID != 0 {
		// A legitimately dropped message means only the watchdog can
		// recover this thread; don't second-guess the fault window.
		o.excusedTID[m.TID] = true
	}
}

func (o *lostThreadOracle) MsgDelivered(c *Checker, e *ghostcore.Enclave, m ghostcore.Message, dup, delayed bool) {
	if m.TID == 0 || !m.Runnable || delayed {
		// Delayed messages were already counted at MsgDelayed.
		return
	}
	o.queued[m.TID]++
}

func (o *lostThreadOracle) MsgDelayed(c *Checker, e *ghostcore.Enclave, m ghostcore.Message) {
	if m.TID == 0 || !m.Runnable {
		return
	}
	o.queued[m.TID]++
}

func (o *lostThreadOracle) MsgDrained(c *Checker, e *ghostcore.Enclave, m ghostcore.Message) {
	if m.TID == 0 || !m.Runnable {
		return
	}
	o.informed[m.TID] = c.k.Now()
	if o.queued[m.TID] > 0 {
		o.queued[m.TID]--
	}
}

func (o *lostThreadOracle) Finish(c *Checker, now sim.Time) {
	threshold := c.LostThreshold
	for _, e := range c.Ghost().Enclaves() {
		if e.AgentsAttached() == 0 {
			// No agent generation attached (mid-upgrade at horizon end):
			// the upgrade timeout, not this oracle, bounds that state.
			continue
		}
		for _, t := range e.ThreadsView() {
			runnable, latched := e.DebugThreadState(t)
			if !runnable || latched {
				// A latched thread has a committed install in flight.
				continue
			}
			tid := t.TID()
			if o.excusedTID[tid] || o.queued[tid] > 0 {
				continue
			}
			since := e.DebugRunnableSince(t)
			if ts, ok := o.informed[tid]; ok && ts >= since {
				// The agent drained a runnable message after the thread
				// last became runnable: it knows, and scheduling order is
				// its prerogative.
				continue
			}
			if wait := now - since; wait > sim.Time(threshold) {
				c.Reportf(o, "enc%d thread %d lost: runnable for %v with no queued or drained wakeup (threshold %v)",
					e.ID(), tid, sim.Duration(wait), threshold)
			}
		}
	}
}

// fallbackOracle checks CFS-fallback liveness after enclave destruction
// (§3.4): destruction must carry a typed cause, and every thread the
// enclave managed must leave the ghOSt class (back to CFS) or be dead.
type fallbackOracle struct {
	Base
	records []fallbackRecord
}

type fallbackRecord struct {
	enc     int
	threads []*kernel.Thread
}

func newFallbackOracle() *fallbackOracle { return &fallbackOracle{} }

func (o *fallbackOracle) Name() string { return "cfs-fallback" }

func (o *fallbackOracle) Destroyed(c *Checker, e *ghostcore.Enclave, cause error, threads []*kernel.Thread) {
	if cause == nil {
		c.Reportf(o, "enc%d destroyed with nil cause", e.ID())
	} else if !errors.Is(cause, ghostcore.ErrWatchdog) &&
		!errors.Is(cause, ghostcore.ErrAgentCrash) &&
		!errors.Is(cause, ghostcore.ErrUpgradeTimeout) &&
		!errors.Is(cause, ghostcore.ErrDestroyed) {
		c.Reportf(o, "enc%d destroyed with untyped cause %q", e.ID(), cause)
	}
	o.checkFallback(c, e.ID(), threads)
	o.records = append(o.records, fallbackRecord{enc: e.ID(), threads: threads})
}

func (o *fallbackOracle) checkFallback(c *Checker, enc int, threads []*kernel.Thread) {
	ghostClass := kernel.Class(c.Ghost())
	for _, t := range threads {
		if t.State() == kernel.StateDead {
			continue
		}
		if t.Class() == ghostClass {
			c.Reportf(o, "enc%d thread %d stranded in the ghost class after destroy", enc, t.TID())
		}
	}
}

func (o *fallbackOracle) Finish(c *Checker, now sim.Time) {
	// Re-verify at horizon end: fallen-back threads must not have drifted
	// back under a destroyed enclave's class.
	for _, r := range o.records {
		o.checkFallback(c, r.enc, r.threads)
	}
}
