// Package trace is the timeline layer of the simulator: an event tracer
// wired through the kernel (context switches, wakeups, IPIs), the ghOSt
// core (message enqueue/delivery, transaction lifecycle, enclave
// watchdog/fallback), the fault injector and the agent SDK
// (wake→decision→commit spans). It also defines the Metrics report
// shape; the counters behind it live on the layers that own the counted
// events (see Metrics).
//
// The timeline is emitted as Chrome trace_event JSON (the format read by
// Perfetto and chrome://tracing): one track per CPU, one per agent, one
// per enclave. Because the simulator is deterministic, two runs with the
// same seed produce byte-identical trace files.
//
// Every emit method is safe on a nil *Tracer, and callers on hot paths
// check for nil first, so instrumented code pays one nil check when
// tracing is off. Emit methods are never inlined: the event records they
// build (argument maps, boxed values) stay in the tracer's own code
// instead of growing the hot callers.
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

// Tracer records the scheduling event timeline. All methods are
// nil-safe.
type Tracer struct {
	evs []event

	// open per-CPU slice state: thread id of the slice begun on each CPU
	// track, 0 when the track is idle. Indexed by CPU id, grown on demand.
	open   []uint64
	lastTs sim.Time
}

// grow returns s extended so index i is addressable.
func grow(s []uint64, i int) []uint64 {
	for len(s) <= i {
		s = append(s, 0)
	}
	return s
}

// New returns a tracer that records the full event timeline.
func New() *Tracer { return &Tracer{} }

func (t *Tracer) push(e event) {
	if e.ts > t.lastTs {
		t.lastTs = e.ts
	}
	t.evs = append(t.evs, e)
}

// --- kernel layer ----------------------------------------------------

// CPURun notes that thread tid (name, under scheduling class) became
// current on cpu: the previous slice on that track closes and a new
// "ctxswitch" slice opens.
//
//go:noinline
func (t *Tracer) CPURun(now sim.Time, cpu hw.CPUID, tid uint64, name, class string) {
	if t == nil {
		return
	}
	c := int(cpu)
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
//
//go:noinline
func (t *Tracer) CPUIdle(now sim.Time, cpu hw.CPUID) {
	if t == nil {
		return
	}
	c := int(cpu)
	t.open = grow(t.open, c)
	if t.open[c] == 0 {
		return
	}
	t.open[c] = 0
	t.push(event{ph: "E", pid: pidCPUs, tid: c, ts: now})
}

// Wakeup records a thread wakeup placed on cpu.
//
//go:noinline
func (t *Tracer) Wakeup(now sim.Time, cpu hw.CPUID, tid uint64, name string) {
	if t == nil {
		return
	}
	t.push(event{ph: "i", pid: pidCPUs, tid: int(cpu), ts: now, name: name, cat: "sched",
		scope: "t", args: args{"tid": int64(tid), "event": "wakeup"}})
}

// IPI records a rescheduling interrupt sent to cpu (a remote transaction
// install), with the modeled propagation delay.
//
//go:noinline
func (t *Tracer) IPI(now sim.Time, cpu hw.CPUID, delay sim.Duration, group int) {
	if t == nil {
		return
	}
	t.push(event{ph: "i", pid: pidCPUs, tid: int(cpu), ts: now, name: "IPI", cat: "ipi",
		scope: "t", args: args{"delay_ns": int64(delay), "group": int64(group)}})
}

// --- ghostcore layer -------------------------------------------------

// MsgPosted records a kernel→agent message enqueue with the queue depth
// after the post.
//
//go:noinline
func (t *Tracer) MsgPosted(now sim.Time, enc int, queue, typ string, tid uint64, qlen int) {
	if t == nil {
		return
	}
	t.push(event{ph: "i", pid: pidEnclaves, tid: enc, ts: now, name: typ, cat: "message",
		scope: "t", args: args{"tid": int64(tid), "queue": queue, "qlen": int64(qlen)}})
}

// MsgDelivered records a message being drained by the agent on cpu, lat
// after the Table 3 delivery clock started (produce + propagate +
// consume).
//
//go:noinline
func (t *Tracer) MsgDelivered(now sim.Time, enc int, cpu hw.CPUID, typ string, tid uint64, lat sim.Duration) {
	if t == nil {
		return
	}
	t.push(event{ph: "i", pid: pidAgents, tid: int(cpu), ts: now, name: typ, cat: "message",
		scope: "t", args: args{"tid": int64(tid), "lat_ns": int64(lat)}})
}

// TxnCommitted records an accepted scheduling transaction. lat is the
// modeled commit-to-run latency (Table 3: LocalSchedule for local
// commits, agent share + IPI/target cost for remote group commits).
//
//go:noinline
func (t *Tracer) TxnCommitted(now sim.Time, enc int, tid uint64, cpu hw.CPUID, group int, local bool, lat sim.Duration) {
	if t == nil {
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
//
//go:noinline
func (t *Tracer) TxnFailed(now sim.Time, enc int, tid uint64, cpu hw.CPUID, status, cause string) {
	if t == nil {
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
//
//go:noinline
func (t *Tracer) TxnRecalled(now sim.Time, enc int, tid uint64, cpu hw.CPUID) {
	if t == nil {
		return
	}
	t.push(event{ph: "i", pid: pidCPUs, tid: int(cpu), ts: now, name: "txn-recall", cat: "txn",
		scope: "t", args: args{"tid": int64(tid)}})
}

// GroupCommit records a multi-transaction commit batch (atomic marks the
// §4.5 all-or-nothing variant).
//
//go:noinline
func (t *Tracer) GroupCommit(now sim.Time, enc, n int, atomic bool) {
	if t == nil {
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
//
//go:noinline
func (t *Tracer) BPFCommit(now sim.Time, enc int, tid uint64, cpu hw.CPUID) {
	if t == nil {
		return
	}
	t.push(event{ph: "i", pid: pidCPUs, tid: int(cpu), ts: now, name: "bpf-commit", cat: "txn",
		scope: "t", args: args{"tid": int64(tid)}})
}

// Preemption records a ghOSt thread being kicked off cpu back to the
// agent.
//
//go:noinline
func (t *Tracer) Preemption(now sim.Time, enc int, tid uint64, cpu hw.CPUID) {
	if t == nil {
		return
	}
	t.push(event{ph: "i", pid: pidCPUs, tid: int(cpu), ts: now, name: "preempt", cat: "sched",
		scope: "t", args: args{"tid": int64(tid)}})
}

// EnclaveEvent records an enclave lifecycle transition (watchdog armed,
// watchdog fired, destroy with CFS fallback, agent generation change).
//
//go:noinline
func (t *Tracer) EnclaveEvent(now sim.Time, enc int, name, detail string) {
	if t == nil {
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
//
//go:noinline
func (t *Tracer) Fault(now sim.Time, kind string, enc int, detail string) {
	if t == nil {
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
//
//go:noinline
func (t *Tracer) AgentStep(now sim.Time, enc int, cpu hw.CPUID, dur sim.Duration, msgs, txns int, mode string) {
	if t == nil {
		return
	}
	t.push(event{ph: "X", pid: pidAgents, tid: int(cpu), ts: now, dur: dur, name: "schedule",
		cat: "agent", args: args{"msgs": int64(msgs), "txns": int64(txns), "mode": mode}})
}
