package kernel

import (
	"encoding/json"
	"fmt"

	"ghost/internal/hw"
	"ghost/internal/sim"
)

// Snapshot/restore support (DESIGN.md §3j). The kernel serializes to a
// KernelImage of plain records; restore happens in two phases driven by
// internal/snap: first every live thread is re-spawned (with its TID
// pinned and a registered resume body), then — after the engine has been
// Reset, erasing all spawn side effects — RestoreImage overlays every
// semantic field verbatim. Pending kernel-owned events are classified by
// ClassifyEvent at save and rebuilt by EventForKind at restore.

// CPURec is the serialized per-CPU state.
type CPURec struct {
	ID             int     `json:"id"`
	Curr           int     `json:"curr"` // running thread TID, 0 idle
	Switching      bool    `json:"switching,omitempty"`
	NeedResched    bool    `json:"needResched,omitempty"`
	ReschedPending bool    `json:"reschedPending,omitempty"`
	SegStart       int64   `json:"segStart"`
	Burning        bool    `json:"burning,omitempty"`
	Speed          float64 `json:"speed"`
	AccBusy        bool    `json:"accBusy,omitempty"`
	BusyNS         int64   `json:"busyNS"`
	BusyStart      int64   `json:"busyStart"`
	Switches       uint64  `json:"switches"`
}

// BodyRec is the serialized resumable-body descriptor of a thread.
type BodyRec struct {
	Kind string  `json:"kind"`
	Key  string  `json:"key,omitempty"`
	Args []int64 `json:"args,omitempty"`
	Rand *uint64 `json:"rand,omitempty"`
}

// CFSThreadRec is the serialized per-thread CFS state.
type CFSThreadRec struct {
	Vruntime float64 `json:"vruntime"`
	AcctMark int64   `json:"acctMark"`
	SliceRan int64   `json:"sliceRan"`
	OnRq     bool    `json:"onRq,omitempty"`
	RqCPU    int     `json:"rqCPU"`
	Seq      uint64  `json:"seq"`
}

// MQThreadRec is the serialized per-thread MicroQuanta state.
type MQThreadRec struct {
	Budget      int64 `json:"budget"`
	PeriodStart int64 `json:"periodStart"`
	Throttled   bool  `json:"throttled,omitempty"`
	OnRq        bool  `json:"onRq,omitempty"`
	AcctMark    int64 `json:"acctMark"`
}

// ThreadRec is the serialized state of one live thread.
type ThreadRec struct {
	TID      int    `json:"tid"`
	Name     string `json:"name"`
	Class    string `json:"class"`
	Nice     int    `json:"nice,omitempty"`
	Affinity []int  `json:"affinity"`
	Tag      *int64 `json:"tag,omitempty"`

	State     int `json:"state"`
	CPU       int `json:"cpu"` // on-CPU id, -1 none
	TargetCPU int `json:"targetCPU"`
	LastCPU   int `json:"lastCPU"`

	CurKind     int   `json:"curKind"`
	PendingWork int64 `json:"pendingWork"`
	AfterKind   int   `json:"afterKind,omitempty"` // the current Run's follow-up
	WakePending bool  `json:"wakePending,omitempty"`
	Poked       bool  `json:"poked,omitempty"`

	CPUTime     int64  `json:"cpuTime"`
	WakeTime    int64  `json:"wakeTime"`
	RunnableAt  int64  `json:"runnableAt"`
	SchedDelay  int64  `json:"schedDelay"`
	SwitchCount uint64 `json:"switchCount"`

	Body *BodyRec      `json:"body,omitempty"`
	CFS  *CFSThreadRec `json:"cfs,omitempty"`
	MQ   *MQThreadRec  `json:"mq,omitempty"`
}

// UnmarshalJSON decodes a record, including one written while agents
// and dataplane pollers ran through a separate step callback. Such a
// record carries "stepper": its afterKind was a pending follow-up only
// while workDoneIsAfterFn was set (it went stale once applied), and what
// it recorded as Block, current or follow-up, resumed on the CPU after a
// Wake, which is Park.
func (r *ThreadRec) UnmarshalJSON(b []byte) error {
	type rec ThreadRec
	v := struct {
		*rec
		Legacy            bool `json:"stepper"`
		WorkDoneIsAfterFn bool `json:"workDoneIsAfterFn"`
	}{rec: (*rec)(r)}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	if v.Legacy {
		if !v.WorkDoneIsAfterFn {
			r.AfterKind = int(actNone)
		}
		for _, kind := range []*int{&r.CurKind, &r.AfterKind} {
			if actionKind(*kind) == actBlock {
				*kind = int(actPark)
			}
		}
	}
	return nil
}

// CFSRqRec is one CPU's serialized CFS runqueue: the heap array verbatim
// (TIDs in array order) plus its floor.
type CFSRqRec struct {
	Threads []int   `json:"threads,omitempty"`
	MinVrun float64 `json:"minVrun"`
}

// CFSRec is the serialized CFS class state.
type CFSRec struct {
	RQs            []CFSRqRec `json:"rqs"`
	Seq            uint64     `json:"seq"`
	IdleStart      []int64    `json:"idleStart"`
	AvgIdle        []int64    `json:"avgIdle"`
	TargetLatency  int64      `json:"targetLatency"`
	MinGranularity int64      `json:"minGranularity"`
	WakeupGran     int64      `json:"wakeupGran"`
	BalancePeriod  int64      `json:"balancePeriod"`
	MigrationCost  int64      `json:"migrationCost"`
}

// MQRec is the serialized MicroQuanta class state.
type MQRec struct {
	Period int64 `json:"period"`
	Quanta int64 `json:"quanta"`
	Queue  []int `json:"queue,omitempty"`
}

// AgentClassRec is the serialized agent-class state.
type AgentClassRec struct {
	RQs [][]int `json:"rqs"`
}

// KernelImage is the full serialized kernel state.
type KernelImage struct {
	Rand     uint64         `json:"rand"`
	NextTID  int            `json:"nextTID"`
	Tickless []bool         `json:"tickless"`
	CPUs     []CPURec       `json:"cpus"`
	Threads  []ThreadRec    `json:"threads"`
	CFS      *CFSRec        `json:"cfs,omitempty"`
	MQ       *MQRec         `json:"mq,omitempty"`
	Agents   *AgentClassRec `json:"agents,omitempty"`
}

func tids(ts []*Thread) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = int(t.tid)
	}
	return out
}

func maskCPUs(m Mask) []int {
	ids := m.CPUs()
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

func maskFromCPUs(ids []int) Mask {
	var m Mask
	for _, id := range ids {
		m.Set(hw.CPUID(id))
	}
	return m
}

// SaveImage serializes the kernel, its CPUs, every live thread and the
// kernel-registered baseline classes (CFS, MicroQuanta, agent class). The
// ghOSt class serializes separately (internal/ghostcore). It returns a
// descriptive error naming the culprit when some state is not
// serializable: a registered body parked outside Run or Block, a
// non-integer Tag. A thread without a body descriptor is recorded with
// no Body; only agent runners may be, which the caller checks
// (internal/snap).
func (k *Kernel) SaveImage() (*KernelImage, error) {
	if k.shutdown {
		return nil, fmt.Errorf("kernel has been shut down")
	}
	img := &KernelImage{
		Rand:     k.rand.State(),
		NextTID:  int(k.nextTID),
		Tickless: append([]bool(nil), k.tickless...),
	}
	for _, c := range k.cpus {
		rec := CPURec{
			ID:             int(c.ID),
			Switching:      c.switching,
			NeedResched:    c.needResched,
			ReschedPending: c.reschedPending,
			SegStart:       int64(c.segStart),
			Burning:        c.burning,
			Speed:          c.speed,
			AccBusy:        c.accBusy,
			BusyNS:         int64(c.busyNS),
			BusyStart:      int64(c.busyStart),
			Switches:       c.switches,
		}
		if c.curr != nil {
			rec.Curr = int(c.curr.tid)
		}
		img.CPUs = append(img.CPUs, rec)
	}
	for _, t := range k.live {
		if t.state == StateDead {
			continue
		}
		rec, err := t.saveRec()
		if err != nil {
			return nil, err
		}
		img.Threads = append(img.Threads, rec)
	}
	if c, ok := k.Class("cfs").(*CFS); ok && c != nil {
		img.CFS = c.saveRec()
	}
	if m, ok := k.Class("microquanta").(*MicroQuanta); ok && m != nil {
		img.MQ = m.saveRec()
	}
	if a, ok := k.Class("agent").(*AgentClass); ok && a != nil {
		img.Agents = &AgentClassRec{RQs: make([][]int, len(a.rqs))}
		for i, rq := range a.rqs {
			img.Agents.RQs[i] = tids(rq)
		}
	}
	return img, nil
}

func (t *Thread) saveRec() (ThreadRec, error) {
	rec := ThreadRec{
		TID:         int(t.tid),
		Name:        t.name,
		Class:       t.class.Name(),
		Nice:        t.nice,
		Affinity:    maskCPUs(t.affinity),
		State:       int(t.state),
		CPU:         -1,
		TargetCPU:   int(t.targetCPU),
		LastCPU:     int(t.lastCPU),
		CurKind:     int(t.curKind),
		PendingWork: int64(t.pendingWork),
		AfterKind:   int(t.then),
		WakePending: t.wakePending,
		Poked:       t.poked,
		CPUTime:     int64(t.cpuTime),
		WakeTime:    int64(t.wakeTime),
		RunnableAt:  int64(t.runnableAt),
		SchedDelay:  int64(t.schedDelay),
		SwitchCount: t.switchCount,
	}
	if t.cpu != nil {
		rec.CPU = int(t.cpu.ID)
	}
	switch tag := t.Tag.(type) {
	case nil:
	case int:
		v := int64(tag)
		rec.Tag = &v
	default:
		return rec, fmt.Errorf("thread %v: non-integer Tag %T is not serializable", t, t.Tag)
	}
	if t.body != nil {
		if t.curKind != actRun && t.curKind != actBlock {
			return rec, fmt.Errorf("thread %v parked in unexpected action %d", t, t.curKind)
		}
		rec.Body = &BodyRec{Kind: t.body.Kind, Key: t.body.Key, Args: append([]int64(nil), t.body.Args...)}
		if t.body.Rand != nil {
			st := t.body.Rand.State()
			rec.Body.Rand = &st
		}
	}
	switch t.class.Name() {
	case "cfs":
		rec.CFS = &CFSThreadRec{
			Vruntime: t.cfs.vruntime,
			AcctMark: int64(t.cfs.acctMark),
			SliceRan: int64(t.cfs.sliceRan),
			OnRq:     t.cfs.onRq,
			RqCPU:    int(t.cfs.rqCPU),
			Seq:      t.cfs.seq,
		}
	case "microquanta":
		rec.MQ = &MQThreadRec{
			Budget:      int64(t.mq.budget),
			PeriodStart: int64(t.mq.periodStart),
			Throttled:   t.mq.throttled,
			OnRq:        t.mq.onRq,
			AcctMark:    int64(t.mq.acctMark),
		}
	}
	return rec, nil
}

func (c *CFS) saveRec() *CFSRec {
	rec := &CFSRec{
		Seq:            c.seq,
		TargetLatency:  int64(c.TargetLatency),
		MinGranularity: int64(c.MinGranularity),
		WakeupGran:     int64(c.WakeupGran),
		BalancePeriod:  int64(c.BalancePeriod),
		MigrationCost:  int64(c.MigrationCost),
	}
	for _, rq := range c.rqs {
		rec.RQs = append(rec.RQs, CFSRqRec{Threads: tids(rq.threads), MinVrun: rq.minVrun})
	}
	for _, v := range c.idleStart {
		rec.IdleStart = append(rec.IdleStart, int64(v))
	}
	for _, v := range c.avgIdle {
		rec.AvgIdle = append(rec.AvgIdle, int64(v))
	}
	return rec
}

func (m *MicroQuanta) saveRec() *MQRec {
	return &MQRec{Period: int64(m.Period), Quanta: int64(m.Quanta), Queue: tids(m.queue)}
}

// ParkedInRun reports whether the serialized body thread was parked
// inside Run (as opposed to Block) — the restore spawn pass picks the
// resumed body's first kernel call from this.
func (r *ThreadRec) ParkedInRun() bool { return actionKind(r.CurKind) == actRun }

// SetNextTID pins the TID the next spawn will receive, so restore can
// reproduce TID assignment exactly (including gaps left by dead threads).
// It never moves the counter backwards.
func (k *Kernel) SetNextTID(tid TID) {
	if tid < k.nextTID {
		panic(fmt.Sprintf("kernel: SetNextTID(%d) below current %d", tid, k.nextTID))
	}
	k.nextTID = tid
}

// EachTicker visits the kernel's own keyed tickers (the per-CPU timer
// ticks), for the snapshot ticker registry.
func (k *Kernel) EachTicker(f func(*sim.Ticker)) {
	for _, tk := range k.tickers {
		f(tk)
	}
}

// RestoreImage overlays the serialized kernel state onto a freshly built
// kernel whose threads have already been re-spawned (TIDs pinned) and
// whose engine has been Reset. Every semantic field the re-spawn touched
// is overwritten here, erasing construction side effects.
func (k *Kernel) RestoreImage(img *KernelImage) error {
	k.rand.SetState(img.Rand)
	k.nextTID = TID(img.NextTID)
	copy(k.tickless, img.Tickless)
	for i := range img.CPUs {
		rec := &img.CPUs[i]
		if rec.ID < 0 || rec.ID >= len(k.cpus) {
			return fmt.Errorf("cpu record %d: cpu%d outside the machine's %d CPUs", i, rec.ID, len(k.cpus))
		}
		c := k.cpus[rec.ID]
		c.curr = nil
		if rec.Curr != 0 {
			c.curr = k.threads[TID(rec.Curr)]
			if c.curr == nil {
				return fmt.Errorf("cpu%d: running thread T%d missing", rec.ID, rec.Curr)
			}
		}
		c.switching = rec.Switching
		c.needResched = rec.NeedResched
		c.reschedPending = rec.ReschedPending
		c.segStart = sim.Time(rec.SegStart)
		c.burning = rec.Burning
		c.speed = rec.Speed
		c.accBusy = rec.AccBusy
		c.busyNS = sim.Duration(rec.BusyNS)
		c.busyStart = sim.Time(rec.BusyStart)
		c.switches = rec.Switches
		c.completion = sim.Event{} // re-linked during event restore
	}
	for i := range img.Threads {
		rec := &img.Threads[i]
		t := k.threads[TID(rec.TID)]
		if t == nil {
			return fmt.Errorf("thread T%d missing after re-spawn", rec.TID)
		}
		if err := t.restoreRec(rec); err != nil {
			return err
		}
	}
	if img.CFS != nil {
		if c, ok := k.Class("cfs").(*CFS); ok && c != nil {
			if err := c.restoreRec(img.CFS); err != nil {
				return err
			}
		} else {
			return fmt.Errorf("snapshot has CFS state but no cfs class is registered")
		}
	}
	if img.MQ != nil {
		m, ok := k.Class("microquanta").(*MicroQuanta)
		if !ok || m == nil {
			return fmt.Errorf("snapshot has MicroQuanta state but no microquanta class is registered")
		}
		m.Period = sim.Duration(img.MQ.Period)
		m.Quanta = sim.Duration(img.MQ.Quanta)
		m.queue = m.queue[:0]
		for _, tid := range img.MQ.Queue {
			t := k.threads[TID(tid)]
			if t == nil {
				return fmt.Errorf("microquanta queue: thread T%d missing", tid)
			}
			m.queue = append(m.queue, t)
		}
	}
	if img.Agents != nil {
		a, ok := k.Class("agent").(*AgentClass)
		if !ok || a == nil {
			return fmt.Errorf("snapshot has agent-class state but no agent class is registered")
		}
		for i := range a.rqs {
			a.rqs[i] = nil
		}
		for i, rq := range img.Agents.RQs {
			for _, tid := range rq {
				t := k.threads[TID(tid)]
				if t == nil {
					return fmt.Errorf("agent rq %d: thread T%d missing", i, tid)
				}
				a.rqs[i] = append(a.rqs[i], t)
			}
		}
	}
	return nil
}

func (t *Thread) restoreRec(rec *ThreadRec) error {
	k := t.k
	t.nice = rec.Nice
	t.affinity = maskFromCPUs(rec.Affinity)
	if rec.Tag != nil {
		t.Tag = int(*rec.Tag)
	}
	if rec.CPU < -1 || rec.CPU >= len(k.cpus) {
		return fmt.Errorf("thread %v: cpu%d outside the machine's %d CPUs", t, rec.CPU, len(k.cpus))
	}
	if kind := actionKind(rec.CurKind); kind < actRun || kind > actPark {
		return fmt.Errorf("thread %v: unknown action kind %d", t, rec.CurKind)
	}
	if kind := actionKind(rec.AfterKind); kind == actRun || kind < actNone || kind > actPark {
		return fmt.Errorf("thread %v: invalid Run follow-up kind %d", t, rec.AfterKind)
	}
	t.state = State(rec.State)
	t.cpu = nil
	if rec.CPU >= 0 {
		t.cpu = k.cpus[rec.CPU]
	}
	t.targetCPU = hw.CPUID(rec.TargetCPU)
	t.lastCPU = hw.CPUID(rec.LastCPU)
	t.curKind = actionKind(rec.CurKind)
	t.pendingWork = sim.Duration(rec.PendingWork)
	t.then = actionKind(rec.AfterKind)
	t.wakePending = rec.WakePending
	t.poked = rec.Poked
	t.cpuTime = sim.Duration(rec.CPUTime)
	t.wakeTime = sim.Time(rec.WakeTime)
	t.runnableAt = sim.Time(rec.RunnableAt)
	t.schedDelay = sim.Duration(rec.SchedDelay)
	t.switchCount = rec.SwitchCount
	if rec.Body != nil && rec.Body.Rand != nil {
		if t.body == nil || t.body.Rand == nil {
			return fmt.Errorf("thread %v: snapshot has a body random stream but the re-spawned body has none", t)
		}
		t.body.Rand.SetState(*rec.Body.Rand)
	}
	if rec.CFS != nil {
		t.cfs.vruntime = rec.CFS.Vruntime
		t.cfs.acctMark = sim.Duration(rec.CFS.AcctMark)
		t.cfs.sliceRan = sim.Duration(rec.CFS.SliceRan)
		t.cfs.onRq = rec.CFS.OnRq
		t.cfs.rqCPU = hw.CPUID(rec.CFS.RqCPU)
		t.cfs.seq = rec.CFS.Seq
	}
	if rec.MQ != nil {
		t.mq.budget = sim.Duration(rec.MQ.Budget)
		t.mq.periodStart = sim.Time(rec.MQ.PeriodStart)
		t.mq.throttled = rec.MQ.Throttled
		t.mq.onRq = rec.MQ.OnRq
		t.mq.acctMark = sim.Duration(rec.MQ.AcctMark)
		t.mq.refill = sim.Event{}
		t.mq.throttleEv = sim.Event{}
	}
	return nil
}

func (c *CFS) restoreRec(rec *CFSRec) error {
	c.seq = rec.Seq
	c.TargetLatency = sim.Duration(rec.TargetLatency)
	c.MinGranularity = sim.Duration(rec.MinGranularity)
	c.WakeupGran = sim.Duration(rec.WakeupGran)
	c.BalancePeriod = sim.Duration(rec.BalancePeriod)
	c.MigrationCost = sim.Duration(rec.MigrationCost)
	for i := range rec.RQs {
		rq := c.rqs[i]
		rq.threads = rq.threads[:0]
		rq.minVrun = rec.RQs[i].MinVrun
		for pos, tid := range rec.RQs[i].Threads {
			t := c.k.threads[TID(tid)]
			if t == nil {
				return fmt.Errorf("cfs rq %d: thread T%d missing", i, tid)
			}
			t.cfs.idx = pos
			rq.threads = append(rq.threads, t)
		}
	}
	for i, v := range rec.IdleStart {
		c.idleStart[i] = sim.Time(v)
	}
	for i, v := range rec.AvgIdle {
		c.avgIdle[i] = sim.Duration(v)
	}
	return nil
}

// --- pending-event classification -------------------------------------

// ClassifyEvent recognizes kernel-owned pre-bound event callbacks for
// serialization. ref is a TID or CPU id depending on kind.
func (k *Kernel) ClassifyEvent(afn func(any), arg any) (kind string, ref int64, ok bool) {
	switch v := arg.(type) {
	case *CPU:
		switch {
		case sim.SameFn(afn, k.reschedFn):
			return "kernel.resched", int64(v.ID), true
		case sim.SameFn(afn, k.workDoneFn):
			return "kernel.workdone", int64(v.ID), true
		case sim.SameFn(afn, k.switchDoneFn):
			return "kernel.switchdone", int64(v.ID), true
		}
	case *Thread:
		switch {
		case sim.SameFn(afn, k.wakeFn):
			return "kernel.wake", int64(v.tid), true
		case sim.SameFn(afn, k.pokeFn):
			return "kernel.poke", int64(v.tid), true
		}
		if m, mok := k.Class("microquanta").(*MicroQuanta); mok && m != nil {
			switch {
			case sim.SameFn(afn, m.throttleFn):
				return "kernel.mq.throttle", int64(v.tid), true
			case sim.SameFn(afn, m.refillFn):
				return "kernel.mq.refill", int64(v.tid), true
			}
		}
	case *sim.Ticker:
		if sim.SameFn(afn, startTickFn) {
			for i, tk := range k.tickers {
				if tk == v {
					return "kernel.starttick", int64(i), true
				}
			}
		}
	}
	return "", 0, false
}

// EventForKind rebuilds the callback+argument pair for a serialized
// kernel-owned event, plus an adopt function to re-link the Event handle
// where one is held in a struct (CPU completions, MicroQuanta timers).
func (k *Kernel) EventForKind(kind string, ref int64) (afn func(any), arg any, adopt func(sim.Event), ok bool) {
	thread := func() *Thread { return k.threads[TID(ref)] }
	cpuKind := kind == "kernel.resched" || kind == "kernel.workdone" || kind == "kernel.switchdone"
	if cpuKind && (ref < 0 || ref >= int64(len(k.cpus))) {
		return nil, nil, nil, false
	}
	switch kind {
	case "kernel.resched":
		return k.reschedFn, k.cpus[ref], nil, true
	case "kernel.workdone":
		c := k.cpus[ref]
		return k.workDoneFn, c, func(ev sim.Event) { c.completion = ev }, true
	case "kernel.switchdone":
		return k.switchDoneFn, k.cpus[ref], nil, true
	case "kernel.wake":
		t := thread()
		return k.wakeFn, t, nil, t != nil
	case "kernel.poke":
		t := thread()
		return k.pokeFn, t, nil, t != nil
	case "kernel.mq.throttle":
		t := thread()
		m, mok := k.Class("microquanta").(*MicroQuanta)
		if t == nil || !mok || m == nil {
			return nil, nil, nil, false
		}
		return m.throttleFn, t, func(ev sim.Event) { t.mq.throttleEv = ev }, true
	case "kernel.mq.refill":
		t := thread()
		m, mok := k.Class("microquanta").(*MicroQuanta)
		if t == nil || !mok || m == nil {
			return nil, nil, nil, false
		}
		return m.refillFn, t, func(ev sim.Event) { t.mq.refill = ev }, true
	case "kernel.starttick":
		if ref < 0 || int(ref) >= len(k.tickers) {
			return nil, nil, nil, false
		}
		return startTickFn, k.tickers[ref], nil, true
	}
	return nil, nil, nil, false
}
