// Package trace is the observability layer of the simulator: a
// zero-overhead-when-disabled event tracer plus an always-cheap metrics
// aggregator, wired through the simulation engine (event dispatch), the
// kernel (context switches, wakeups, IPIs), the ghOSt core (message
// enqueue/delivery, transaction lifecycle, enclave watchdog/fallback)
// and the agent SDK (wake→decision→commit spans).
//
// The timeline is emitted as Chrome trace_event JSON (the format read by
// Perfetto and chrome://tracing): one track per CPU, one per agent, one
// per enclave. Because the simulator is deterministic, two runs with the
// same seed produce byte-identical trace files.
//
// Every emit method is safe on a nil *Tracer and compiles to a single
// nil check in that case, so instrumented code paths pay nothing when
// tracing is off. A metrics-only tracer (NewMetricsOnly) skips the
// timeline but still aggregates counters and latency histograms.
package trace

import (
	"ghost/internal/hw"
	"ghost/internal/sim"
)

// Track process ids of the Chrome trace. Each pid renders as a process
// group in Perfetto; tids within it are the individual tracks.
const (
	pidCPUs     = 1 // one track per logical CPU
	pidAgents   = 2 // one track per agent (keyed by its home CPU)
	pidEnclaves = 3 // one track per enclave (messages, txn batches)
	pidFaults   = 4 // one track for the fault injector's schedule
)

// Tracer records scheduling events and aggregates metrics. Construct
// with New (full timeline) or NewMetricsOnly (counters/histograms only).
// All methods are nil-safe.
type Tracer struct {
	events bool
	evs    []event
	m      Metrics

	// open per-CPU slice state: thread id of the slice begun on each CPU
	// track, 0 when the track is idle. Indexed by CPU id, grown on demand.
	open    []uint64
	lastTs  sim.Time
	prevCPU []uint64 // last thread seen per CPU, for switch counting

	// encs caches Metrics.Enclaves by id (enclave ids are small and
	// dense), keeping the per-message/per-txn path off the map.
	encs []*EnclaveMetrics
}

// grow returns s extended so index i is addressable.
func grow(s []uint64, i int) []uint64 {
	for len(s) <= i {
		s = append(s, 0)
	}
	return s
}

// New returns a tracer that records the full event timeline plus metrics.
func New() *Tracer {
	t := NewMetricsOnly()
	t.events = true
	return t
}

// NewMetricsOnly returns a tracer that aggregates metrics but records no
// timeline events; WriteJSON on it produces only track metadata.
func NewMetricsOnly() *Tracer {
	return &Tracer{m: Metrics{Enclaves: make(map[int]*EnclaveMetrics)}}
}

// Enabled reports whether the tracer records timeline events.
func (t *Tracer) Enabled() bool { return t != nil && t.events }

// enc returns (allocating if needed) the metrics bucket for enclave id.
func (t *Tracer) enc(id int) *EnclaveMetrics {
	if id >= 0 && id < len(t.encs) && t.encs[id] != nil {
		return t.encs[id]
	}
	em := t.m.Enclaves[id]
	if em == nil {
		em = &EnclaveMetrics{ID: id}
		t.m.Enclaves[id] = em
	}
	if id >= 0 {
		for len(t.encs) <= id {
			t.encs = append(t.encs, nil)
		}
		t.encs[id] = em
	}
	return em
}

func (t *Tracer) push(e event) {
	if e.ts > t.lastTs {
		t.lastTs = e.ts
	}
	t.evs = append(t.evs, e)
}

// --- sim layer -------------------------------------------------------

// EngineDispatch observes one engine event dispatch (installed as the
// engine's OnDispatch hook). It only feeds metrics; per-event timeline
// records would dwarf the schedule itself.
func (t *Tracer) EngineDispatch(now sim.Time, queued int) {
	if t == nil {
		return
	}
	t.m.EngineEvents++
	if queued > t.m.EngineMaxQueue {
		t.m.EngineMaxQueue = queued
	}
}

// --- kernel layer ----------------------------------------------------

// CPURun notes that thread tid (name, under scheduling class) became
// current on cpu: the previous slice on that track closes and a new
// "ctxswitch" slice opens.
func (t *Tracer) CPURun(now sim.Time, cpu hw.CPUID, tid uint64, name, class string) {
	if t == nil {
		return
	}
	c := int(cpu)
	t.prevCPU = grow(t.prevCPU, c)
	if t.prevCPU[c] != tid {
		t.prevCPU[c] = tid
		t.m.CtxSwitches++
	}
	if !t.events {
		return
	}
	t.open = grow(t.open, c)
	if t.open[c] == tid {
		return // same thread re-confirmed; keep the open slice
	}
	if t.open[c] != 0 {
		t.push(event{ph: "E", pid: pidCPUs, tid: c, ts: now})
	}
	t.open[c] = tid
	t.push(event{ph: "B", pid: pidCPUs, tid: c, ts: now, name: name, cat: "ctxswitch",
		args: args{"tid": int64(tid), "class": class}})
}

// CPUIdle notes that cpu lost its current thread; the open slice closes.
func (t *Tracer) CPUIdle(now sim.Time, cpu hw.CPUID) {
	if t == nil {
		return
	}
	c := int(cpu)
	t.prevCPU = grow(t.prevCPU, c)
	t.prevCPU[c] = 0
	if !t.events {
		return
	}
	t.open = grow(t.open, c)
	if t.open[c] == 0 {
		return
	}
	t.open[c] = 0
	t.push(event{ph: "E", pid: pidCPUs, tid: c, ts: now})
}

// Wakeup records a thread wakeup placed on cpu.
func (t *Tracer) Wakeup(now sim.Time, cpu hw.CPUID, tid uint64, name string) {
	if t == nil {
		return
	}
	t.m.Wakeups++
	if !t.events {
		return
	}
	t.push(event{ph: "i", pid: pidCPUs, tid: int(cpu), ts: now, name: name, cat: "sched",
		scope: "t", args: args{"tid": int64(tid), "event": "wakeup"}})
}

// IPI records a rescheduling interrupt sent to cpu (a remote transaction
// install), with the modeled propagation delay.
func (t *Tracer) IPI(now sim.Time, cpu hw.CPUID, delay sim.Duration, group int) {
	if t == nil {
		return
	}
	t.m.IPIs++
	if !t.events {
		return
	}
	t.push(event{ph: "i", pid: pidCPUs, tid: int(cpu), ts: now, name: "IPI", cat: "ipi",
		scope: "t", args: args{"delay_ns": int64(delay), "group": int64(group)}})
}

// --- ghostcore layer -------------------------------------------------

// MsgPosted records a kernel→agent message enqueue with the queue depth
// after the post.
func (t *Tracer) MsgPosted(now sim.Time, enc int, queue, typ string, tid uint64, qlen int) {
	if t == nil {
		return
	}
	em := t.enc(enc)
	em.MsgsPosted++
	if qlen > em.QueueDepthMax {
		em.QueueDepthMax = qlen
	}
	if !t.events {
		return
	}
	t.push(event{ph: "i", pid: pidEnclaves, tid: enc, ts: now, name: typ, cat: "message",
		scope: "t", args: args{"tid": int64(tid), "queue": queue, "qlen": int64(qlen)}})
}

// MsgDelivered records a message being drained by the agent on cpu, lat
// after the Table 3 delivery clock started (produce + propagate +
// consume).
func (t *Tracer) MsgDelivered(now sim.Time, enc int, cpu hw.CPUID, typ string, tid uint64, lat sim.Duration) {
	if t == nil {
		return
	}
	em := t.enc(enc)
	em.MsgsDelivered++
	em.MsgDelivery.Record(lat)
	if !t.events {
		return
	}
	t.push(event{ph: "i", pid: pidAgents, tid: int(cpu), ts: now, name: typ, cat: "message",
		scope: "t", args: args{"tid": int64(tid), "lat_ns": int64(lat)}})
}

// TxnCommitted records an accepted scheduling transaction. lat is the
// modeled commit-to-run latency (Table 3: LocalSchedule for local
// commits, agent share + IPI/target cost for remote group commits).
func (t *Tracer) TxnCommitted(now sim.Time, enc int, tid uint64, cpu hw.CPUID, group int, local bool, lat sim.Duration) {
	if t == nil {
		return
	}
	em := t.enc(enc)
	em.TxnsCommitted++
	em.TxnCommit.Record(lat)
	if !t.events {
		return
	}
	mode := "remote"
	if local {
		mode = "local"
	}
	t.push(event{ph: "i", pid: pidCPUs, tid: int(cpu), ts: now, name: "txn-commit", cat: "txn",
		scope: "t", args: args{"tid": int64(tid), "group": int64(group), "mode": mode, "lat_ns": int64(lat)}})
}

// TxnFailed records a rejected transaction with its status and, for
// ESTALE, the stale sequence that caused it ("aseq" or "tseq").
func (t *Tracer) TxnFailed(now sim.Time, enc int, tid uint64, cpu hw.CPUID, status, cause string) {
	if t == nil {
		return
	}
	em := t.enc(enc)
	em.TxnsFailed++
	if status == "ESTALE" {
		em.TxnESTALE++
		switch cause {
		case "aseq":
			em.TxnESTALEAgent++
		case "tseq":
			em.TxnESTALEThread++
		}
	}
	if !t.events {
		return
	}
	a := args{"tid": int64(tid), "status": status}
	if cause != "" {
		a["cause"] = cause
	}
	t.push(event{ph: "i", pid: pidCPUs, tid: int(cpu), ts: now, name: "txn-fail", cat: "txn",
		scope: "t", args: a})
}

// TxnRecalled records a committed transaction revoked before install.
func (t *Tracer) TxnRecalled(now sim.Time, enc int, tid uint64, cpu hw.CPUID) {
	if t == nil {
		return
	}
	t.enc(enc).TxnsRecalled++
	if !t.events {
		return
	}
	t.push(event{ph: "i", pid: pidCPUs, tid: int(cpu), ts: now, name: "txn-recall", cat: "txn",
		scope: "t", args: args{"tid": int64(tid)}})
}

// GroupCommit records a multi-transaction commit batch (atomic marks the
// §4.5 all-or-nothing variant).
func (t *Tracer) GroupCommit(now sim.Time, enc, n int, atomic bool) {
	if t == nil {
		return
	}
	em := t.enc(enc)
	em.GroupCommits++
	em.GroupedTxns += uint64(n)
	if !t.events {
		return
	}
	name := "group-commit"
	if atomic {
		name = "atomic-commit"
	}
	t.push(event{ph: "i", pid: pidEnclaves, tid: enc, ts: now, name: name, cat: "txn",
		scope: "t", args: args{"txns": int64(n)}})
}

// BPFCommit records the idle-time BPF fastpath committing a thread.
func (t *Tracer) BPFCommit(now sim.Time, enc int, tid uint64, cpu hw.CPUID) {
	if t == nil {
		return
	}
	t.enc(enc).BPFCommits++
	if !t.events {
		return
	}
	t.push(event{ph: "i", pid: pidCPUs, tid: int(cpu), ts: now, name: "bpf-commit", cat: "txn",
		scope: "t", args: args{"tid": int64(tid)}})
}

// Preemption records a ghOSt thread being kicked off cpu back to the
// agent.
func (t *Tracer) Preemption(now sim.Time, enc int, tid uint64, cpu hw.CPUID) {
	if t == nil {
		return
	}
	t.enc(enc).Preemptions++
	if !t.events {
		return
	}
	t.push(event{ph: "i", pid: pidCPUs, tid: int(cpu), ts: now, name: "preempt", cat: "sched",
		scope: "t", args: args{"tid": int64(tid)}})
}

// EnclaveEvent records an enclave lifecycle transition (watchdog armed,
// watchdog fired, destroy with CFS fallback, agent generation change).
func (t *Tracer) EnclaveEvent(now sim.Time, enc int, name, detail string) {
	if t == nil {
		return
	}
	em := t.enc(enc)
	switch name {
	case "watchdog-fired":
		em.WatchdogFires++
	case "destroy":
		em.Destroyed = true
		em.DestroyedReason = detail
	}
	if !t.events {
		return
	}
	a := args{}
	if detail != "" {
		a["detail"] = detail
	}
	t.push(event{ph: "i", pid: pidEnclaves, tid: enc, ts: now, name: name, cat: "enclave",
		scope: "t", args: a})
}

// --- faults layer ----------------------------------------------------

// Fault records one fault-injection decision (a window opening, or one
// injected fault inside a window) keyed by its kind string. Recovery
// actions the fault provokes — watchdog fires, CFS fallback, upgrade
// handoffs — appear as EnclaveEvents on the affected enclave's track.
func (t *Tracer) Fault(now sim.Time, kind string, enc int, detail string) {
	if t == nil {
		return
	}
	if t.m.Faults == nil {
		t.m.Faults = make(map[string]uint64)
	}
	t.m.Faults[kind]++
	if !t.events {
		return
	}
	a := args{"enc": int64(enc)}
	if detail != "" {
		a["detail"] = detail
	}
	t.push(event{ph: "i", pid: pidFaults, tid: 1, ts: now, name: kind, cat: "fault",
		scope: "t", args: a})
}

// --- agentsdk layer --------------------------------------------------

// AgentStep records one wake→decision→commit span of the agent pinned to
// cpu: a complete slice of duration dur on the agent's track, annotated
// with how many messages it drained and transactions it committed.
func (t *Tracer) AgentStep(now sim.Time, enc int, cpu hw.CPUID, dur sim.Duration, msgs, txns int, mode string) {
	if t == nil {
		return
	}
	em := t.enc(enc)
	em.AgentSteps++
	em.AgentStep.Record(dur)
	if !t.events {
		return
	}
	t.push(event{ph: "X", pid: pidAgents, tid: int(cpu), ts: now, dur: dur, name: "schedule",
		cat: "agent", args: args{"msgs": int64(msgs), "txns": int64(txns), "mode": mode}})
}
