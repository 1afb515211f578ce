package ghostcore

import (
	"fmt"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Snapshot/restore support (DESIGN.md §3j). The ghOSt class serializes to
// a ClassRec. Restore is phased: RestoreEnclaveShells recreates the
// enclaves (with their original ids) before any thread or agent is
// re-spawned into them, and RestoreImage overlays every semantic field
// after the engine reset has erased construction side effects.

// HintRec is a serialized scheduling hint; only nil, int and string hints
// are serializable.
type HintRec struct {
	Kind string `json:"kind"` // "int" or "string"
	Int  int64  `json:"int,omitempty"`
	Str  string `json:"str,omitempty"`
}

// GhostThreadRec is the serialized ghOSt-side state of a managed thread.
type GhostThreadRec struct {
	TID           int        `json:"tid"`
	Queue         int        `json:"queue"` // index into the enclave's queues
	Tseq          uint64     `json:"tseq"`
	SW            StatusWord `json:"sw"`
	Runnable      bool       `json:"runnable,omitempty"`
	Latched       bool       `json:"latched,omitempty"`
	RunnableSince int64      `json:"runnableSince"`
	PendingMsgs   int        `json:"pendingMsgs,omitempty"`
	Hint          *HintRec   `json:"hint,omitempty"`
}

// AgentRec is the serialized kernel-side agent handle.
type AgentRec struct {
	CPU      int        `json:"cpu"`
	TID      int        `json:"tid"`
	Aseq     uint64     `json:"aseq"`
	SW       StatusWord `json:"sw"`
	Attached bool       `json:"attached"`
	Queue    int        `json:"queue"` // index into the enclave's queues, -1 none
}

// QueueRec is a serialized message queue: its pending messages in FIFO
// order plus its wakeup configuration (agents referenced by home CPU).
type QueueRec struct {
	Name    string    `json:"name"`
	WakeCPU int       `json:"wakeCPU"` // -1 none
	SeqCPU  int       `json:"seqCPU"`  // -1 none
	Msgs    []Message `json:"msgs,omitempty"`
}

// EnclaveRec is one serialized enclave.
type EnclaveRec struct {
	ID              int              `json:"id"`
	CPUs            []int            `json:"cpus"`
	Queues          []QueueRec       `json:"queues"`
	Threads         []GhostThreadRec `json:"threads"`
	Agents          []AgentRec       `json:"agents"`
	DeliverTicks    bool             `json:"deliverTicks,omitempty"`
	WatchdogTimeout int64            `json:"watchdogTimeout,omitempty"`
	UpgradeTimeout  int64            `json:"upgradeTimeout,omitempty"`
	Tickless        bool             `json:"tickless,omitempty"`
}

// ClassRec is the full serialized ghOSt class state.
type ClassRec struct {
	NextEncID int       `json:"nextEncID"`
	Slots     []int     `json:"slots"`    // per-CPU latched TID, 0 none
	Inflight  []int     `json:"inflight"` // per-CPU in-flight TID, 0 none
	Mut       Mutations `json:"mut"`

	MsgsPosted  uint64 `json:"msgsPosted"`
	TxnsOK      uint64 `json:"txnsOK"`
	TxnsFailed  uint64 `json:"txnsFailed"`
	BPFCommits  uint64 `json:"bpfCommits"`
	Preemptions uint64 `json:"preemptions"`

	Enclaves []EnclaveRec `json:"enclaves"`
}

// SaveImage serializes the ghOSt class. It fails with a descriptive error
// on state outside the v1 snapshot envelope: destroyed enclaves, attached
// BPF programs, in-flight agent upgrades, non-int/string hints.
func (g *Class) SaveImage() (*ClassRec, error) {
	rec := &ClassRec{
		NextEncID:   g.nextEncID,
		Mut:         g.Mut,
		MsgsPosted:  g.MsgsPosted,
		TxnsOK:      g.TxnsOK,
		TxnsFailed:  g.TxnsFailed,
		BPFCommits:  g.BPFCommits,
		Preemptions: g.Preemptions,
	}
	rec.Slots = make([]int, len(g.slots))
	rec.Inflight = make([]int, len(g.inflight))
	for i := range g.slots {
		if t := g.slots[i]; t != nil {
			rec.Slots[i] = int(t.TID())
		}
		if t := g.inflight[i]; t != nil {
			rec.Inflight[i] = int(t.TID())
		}
	}
	for _, e := range g.enclaves {
		if e.destroyed {
			return nil, fmt.Errorf("enclave %d has been destroyed (%v); destroyed enclaves are not snapshottable", e.id, e.destroyCause)
		}
		erec, err := e.saveRec()
		if err != nil {
			return nil, err
		}
		rec.Enclaves = append(rec.Enclaves, erec)
	}
	return rec, nil
}

// EachQueuedMessage calls fn for every undrained message sitting in the
// enclave's queues, in queue order. Observers attached after a snapshot
// restore use it to seed history-dependent state (message-conservation
// ledgers) with the in-flight messages they never saw delivered.
func (e *Enclave) EachQueuedMessage(fn func(Message)) {
	for _, q := range e.queues {
		n := q.Len()
		if n == 0 {
			continue
		}
		buf := make([]Message, n)
		q.copyPending(buf)
		for _, m := range buf {
			fn(m)
		}
	}
}

func (e *Enclave) saveRec() (EnclaveRec, error) {
	rec := EnclaveRec{
		ID:              e.id,
		DeliverTicks:    e.DeliverTicks,
		WatchdogTimeout: int64(e.WatchdogTimeout),
		UpgradeTimeout:  int64(e.UpgradeTimeout),
		Tickless:        e.tickless,
	}
	if e.bpf != nil {
		return rec, fmt.Errorf("enclave %d has a BPF program attached; BPF state is not snapshottable", e.id)
	}
	if e.upgradePending {
		return rec, fmt.Errorf("enclave %d has an agent upgrade in flight; upgrades are not snapshottable", e.id)
	}
	for _, id := range e.cpus.CPUs() {
		rec.CPUs = append(rec.CPUs, int(id))
	}
	qIndex := make(map[*Queue]int, len(e.queues))
	for i, q := range e.queues {
		qIndex[q] = i
		qr := QueueRec{Name: q.name, WakeCPU: -1, SeqCPU: -1}
		if q.wakeAgent != nil {
			qr.WakeCPU = int(q.wakeAgent.cpu)
		}
		if q.seqAgent != nil {
			qr.SeqCPU = int(q.seqAgent.cpu)
		}
		if n := q.Len(); n > 0 {
			qr.Msgs = make([]Message, n)
			q.copyPending(qr.Msgs)
		}
		rec.Queues = append(rec.Queues, qr)
	}
	for _, t := range e.threads {
		gt := gstate(t)
		if gt == nil {
			continue
		}
		tr := GhostThreadRec{
			TID:           int(t.TID()),
			Tseq:          gt.tseq,
			SW:            gt.sw,
			Runnable:      gt.runnable,
			Latched:       gt.latched,
			RunnableSince: int64(gt.runnableSince),
			PendingMsgs:   gt.pendingMsgs,
		}
		qi, ok := qIndex[gt.q]
		if !ok {
			return rec, fmt.Errorf("enclave %d: thread %v associated with an unknown queue", e.id, t)
		}
		tr.Queue = qi
		switch h := gt.hint.(type) {
		case nil:
		case int:
			tr.Hint = &HintRec{Kind: "int", Int: int64(h)}
		case string:
			tr.Hint = &HintRec{Kind: "string", Str: h}
		default:
			return rec, fmt.Errorf("enclave %d: thread %v has a non-int/string hint %T; not snapshottable", e.id, t, h)
		}
		rec.Threads = append(rec.Threads, tr)
	}
	for cpu, a := range e.agents {
		if a == nil {
			continue
		}
		ar := AgentRec{CPU: int(cpu), Aseq: a.aseq, SW: a.sw, Attached: a.attached, Queue: -1}
		if a.thread != nil {
			ar.TID = int(a.thread.TID())
		}
		if a.queue != nil {
			qi, ok := qIndex[a.queue]
			if !ok {
				return rec, fmt.Errorf("enclave %d: agent on cpu%d consumes an unknown queue", e.id, cpu)
			}
			ar.Queue = qi
		}
		rec.Agents = append(rec.Agents, ar)
	}
	return rec, nil
}

// SetNextEncID pins the id the next NewEnclave call will use, so restore
// reproduces enclave ids exactly. Never moves the counter backwards.
func (g *Class) SetNextEncID(id int) {
	if id < g.nextEncID {
		panic(fmt.Sprintf("ghostcore: SetNextEncID(%d) below current %d", id, g.nextEncID))
	}
	g.nextEncID = id
}

// RestoreEnclaveShells recreates the serialized enclaves (ids preserved)
// on a freshly built class, before threads or agents are re-spawned into
// them. Returns the shells in record order.
func (g *Class) RestoreEnclaveShells(rec *ClassRec) ([]*Enclave, error) {
	out := make([]*Enclave, 0, len(rec.Enclaves))
	for i := range rec.Enclaves {
		erec := &rec.Enclaves[i]
		g.SetNextEncID(erec.ID)
		var m kernel.Mask
		for _, id := range erec.CPUs {
			m.Set(hw.CPUID(id))
		}
		e := NewEnclave(g, m)
		e.DeliverTicks = erec.DeliverTicks
		e.UpgradeTimeout = sim.Duration(erec.UpgradeTimeout)
		if erec.WatchdogTimeout > 0 {
			e.EnableWatchdog(sim.Duration(erec.WatchdogTimeout))
		}
		out = append(out, e)
	}
	return out, nil
}

// RestoreImage overlays the serialized class state. Every enclave shell,
// agent and managed thread must already exist (RestoreEnclaveShells plus
// the re-spawn pass); the engine has been reset, so construction-time
// messages and sequence bumps are overwritten wholesale here.
func (g *Class) RestoreImage(rec *ClassRec) error {
	g.nextEncID = rec.NextEncID
	g.Mut = rec.Mut
	g.MsgsPosted = rec.MsgsPosted
	g.TxnsOK = rec.TxnsOK
	g.TxnsFailed = rec.TxnsFailed
	g.BPFCommits = rec.BPFCommits
	g.Preemptions = rec.Preemptions
	for i := range g.slots {
		g.slots[i] = nil
		g.inflight[i] = nil
	}
	for i, tid := range rec.Slots {
		if tid != 0 {
			g.slots[i] = g.k.Thread(kernel.TID(tid))
			if g.slots[i] == nil {
				return fmt.Errorf("ghost slot cpu%d: thread T%d missing", i, tid)
			}
		}
	}
	for i, tid := range rec.Inflight {
		if tid != 0 {
			g.inflight[i] = g.k.Thread(kernel.TID(tid))
			if g.inflight[i] == nil {
				return fmt.Errorf("ghost inflight cpu%d: thread T%d missing", i, tid)
			}
		}
	}
	for i := range rec.Enclaves {
		erec := &rec.Enclaves[i]
		e := g.enclaveByID(erec.ID)
		if e == nil {
			return fmt.Errorf("enclave %d missing at restore", erec.ID)
		}
		if err := e.restoreRec(erec); err != nil {
			return err
		}
	}
	return nil
}

func (e *Enclave) restoreRec(rec *EnclaveRec) error {
	if len(e.queues) != len(rec.Queues) {
		return fmt.Errorf("enclave %d: %d queues after re-spawn, snapshot has %d", e.id, len(e.queues), len(rec.Queues))
	}
	e.tickless = rec.Tickless
	for i, qr := range rec.Queues {
		q := e.queues[i]
		if q.name != qr.Name {
			return fmt.Errorf("enclave %d: queue %d is %q after re-spawn, snapshot has %q", e.id, i, q.name, qr.Name)
		}
		q.buf = nil
		q.head, q.tail = 0, 0
		for _, m := range qr.Msgs {
			q.enqueue(m)
		}
		q.wakeAgent = e.agentOn(hw.CPUID(qr.WakeCPU))
		q.seqAgent = e.agentOn(hw.CPUID(qr.SeqCPU))
		if (qr.WakeCPU >= 0 && q.wakeAgent == nil) || (qr.SeqCPU >= 0 && q.seqAgent == nil) {
			return fmt.Errorf("enclave %d: queue %q references a missing agent", e.id, q.name)
		}
	}
	for _, ar := range rec.Agents {
		a := e.agentOn(hw.CPUID(ar.CPU))
		if a == nil {
			return fmt.Errorf("enclave %d: agent on cpu%d missing after re-spawn", e.id, ar.CPU)
		}
		a.aseq = ar.Aseq
		a.sw = ar.SW
		a.attached = ar.Attached
		a.queue = nil
		if ar.Queue >= 0 {
			a.queue = e.queues[ar.Queue]
		}
	}
	for _, tr := range rec.Threads {
		i, ok := e.threadIndex(kernel.TID(tr.TID))
		if !ok {
			return fmt.Errorf("enclave %d: managed thread T%d missing after re-spawn", e.id, tr.TID)
		}
		gt := gstate(e.threads[i])
		if gt == nil {
			return fmt.Errorf("enclave %d: thread T%d lost its ghOSt state", e.id, tr.TID)
		}
		gt.q = e.queues[tr.Queue]
		gt.tseq = tr.Tseq
		gt.sw = tr.SW
		gt.runnable = tr.Runnable
		gt.latched = tr.Latched
		gt.runnableSince = sim.Time(tr.RunnableSince)
		gt.pendingMsgs = tr.PendingMsgs
		gt.hint = nil
		if tr.Hint != nil {
			switch tr.Hint.Kind {
			case "int":
				gt.hint = int(tr.Hint.Int)
			case "string":
				gt.hint = tr.Hint.Str
			default:
				return fmt.Errorf("enclave %d: unknown hint kind %q", e.id, tr.Hint.Kind)
			}
		}
	}
	if len(e.threads) != len(rec.Threads) {
		return fmt.Errorf("enclave %d: %d managed threads after re-spawn, snapshot has %d", e.id, len(e.threads), len(rec.Threads))
	}
	return nil
}

// EachTicker visits the class's keyed tickers (enclave watchdogs), for
// the snapshot ticker registry.
func (g *Class) EachTicker(f func(*sim.Ticker)) {
	for _, e := range g.enclaves {
		if !e.destroyed && e.watchdog != nil {
			f(e.watchdog)
		}
	}
}

// ClassifyEvent recognizes ghOSt-owned pre-bound event callbacks: the
// transaction install IPI. args is [encID, tid, cpu, local, agentCPU].
func (g *Class) ClassifyEvent(afn func(any), arg any) (kind string, args []int64, ok bool) {
	rec, isRec := arg.(*installRec)
	if !isRec || !sim.SameFn(afn, g.installFn) {
		return "", nil, false
	}
	local := int64(0)
	if rec.local {
		local = 1
	}
	agentCPU := int64(-1)
	if rec.a != nil {
		agentCPU = int64(rec.a.cpu)
	}
	return "ghost.install", []int64{int64(rec.e.id), int64(rec.t.TID()), int64(rec.cpu), local, agentCPU}, true
}

// EventForKind rebuilds a serialized ghOSt-owned event callback.
func (g *Class) EventForKind(kind string, args []int64) (afn func(any), arg any, ok bool) {
	if kind != "ghost.install" || len(args) != 5 {
		return nil, nil, false
	}
	e := g.enclaveByID(int(args[0]))
	if e == nil {
		return nil, nil, false
	}
	t := g.k.Thread(kernel.TID(args[1]))
	if t == nil {
		return nil, nil, false
	}
	gt := gstate(t)
	if gt == nil {
		return nil, nil, false
	}
	var a *Agent
	if args[4] >= 0 {
		a = e.agentOn(hw.CPUID(args[4]))
		if a == nil {
			return nil, nil, false
		}
	}
	rec := g.getInstallRec()
	*rec = installRec{e: e, t: t, gt: gt, cpu: hw.CPUID(args[2]), local: args[3] != 0, a: a}
	return g.installFn, rec, true
}
