package workload

import (
	"encoding/json"
	"fmt"

	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/snap"
	"ghost/internal/stats"
)

// Snapshot support (DESIGN.md §3j): the worker pool and the Poisson
// source are snap.Components, and their thread bodies (pool workers,
// spinners) are registered resumable bodies. A pool worker's resume
// state is its request slot plus where it is parked: a worker parked in
// Run is serving the request the pool saved for it (step 1), a worker
// parked in Block is idle (step 0). Spinners are stateless.

// requestRec is a Request without its Done callback, which cannot ride
// in a byte stream; HadDone tells restore to re-attach one via the
// pool's DoneRebinder.
type requestRec struct {
	ID        uint64 `json:"id"`
	Arrival   int64  `json:"arrival"`
	Service   int64  `json:"service"`
	Remaining int64  `json:"remaining"`
	Class     int    `json:"class,omitempty"`
	HadDone   bool   `json:"hadDone,omitempty"`
}

func saveRequest(r *Request) requestRec {
	return requestRec{
		ID:        r.ID,
		Arrival:   int64(r.Arrival),
		Service:   int64(r.Service),
		Remaining: int64(r.Remaining),
		Class:     r.Class,
		HadDone:   r.Done != nil,
	}
}

func (p *WorkerPool) loadRequest(rec requestRec) (*Request, error) {
	r := &Request{
		ID:        rec.ID,
		Arrival:   sim.Time(rec.Arrival),
		Service:   sim.Duration(rec.Service),
		Remaining: sim.Duration(rec.Remaining),
		Class:     rec.Class,
	}
	if rec.HadDone {
		if p.DoneRebinder == nil {
			return nil, fmt.Errorf("worker pool %q: snapshot has requests with Done callbacks but the restored pool has no DoneRebinder", p.snapKey)
		}
		p.DoneRebinder(r)
	}
	return r, nil
}

type inboxRec struct {
	TID int        `json:"tid"`
	Req requestRec `json:"req"`
}

type recorderRec struct {
	Hist        stats.HistogramState `json:"hist"`
	Completed   uint64               `json:"completed"`
	WarmupUntil int64                `json:"warmupUntil"`
}

type poolState struct {
	Free     []int        `json:"free"`
	Inbox    []inboxRec   `json:"inbox,omitempty"`
	Backlog  []requestRec `json:"backlog,omitempty"`
	Recorder recorderRec  `json:"recorder"`
}

// SnapshotKind implements snap.Component.
func (p *WorkerPool) SnapshotKind() string { return "workload.pool" }

// BindSnapshotKey implements snap.KeyBinder: stamp the pool's component
// key onto its workers' body descriptors so a snapshot can route each
// worker back to this pool.
func (p *WorkerPool) BindSnapshotKey(key string) {
	p.snapKey = key
	for _, w := range p.workers {
		if d := w.t.BodyDesc(); d != nil {
			d.Key = key
			continue
		}
		w.t.SetBodyDesc(&kernel.BodyDesc{Kind: "workload.pool-worker", Key: key})
	}
}

// SnapshotSave implements snap.Component.
func (p *WorkerPool) SnapshotSave() ([]byte, error) {
	if p.stopping {
		return nil, fmt.Errorf("worker pool %q is stopping", p.snapKey)
	}
	checkDone := func(r *Request) error {
		if r.Done != nil && p.DoneRebinder == nil {
			return fmt.Errorf("worker pool %q: request %d has a Done callback but the pool has no DoneRebinder to restore it", p.snapKey, r.ID)
		}
		return nil
	}
	st := poolState{Recorder: recorderRec{
		Hist:        p.rec.Hist.State(),
		Completed:   p.rec.Completed,
		WarmupUntil: int64(p.rec.WarmupUntil),
	}}
	for i := 0; i < p.free.Len(); i++ {
		st.Free = append(st.Free, int(p.free.at(i).t.TID()))
	}
	for _, w := range p.workers {
		if w.req == nil {
			continue
		}
		if err := checkDone(w.req); err != nil {
			return nil, err
		}
		st.Inbox = append(st.Inbox, inboxRec{TID: int(w.t.TID()), Req: saveRequest(w.req)})
	}
	for i := 0; i < p.backlog.Len(); i++ {
		r := p.backlog.at(i)
		if err := checkDone(r); err != nil {
			return nil, err
		}
		st.Backlog = append(st.Backlog, saveRequest(r))
	}
	return json.Marshal(st)
}

// SnapshotLoad implements snap.Component. Runs after the spawn pass, so
// worker TIDs resolve through the kernel.
func (p *WorkerPool) SnapshotLoad(data []byte) error {
	var st poolState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	return p.applyState(&st)
}

func (p *WorkerPool) applyState(st *poolState) error {
	p.stopping = false
	byTID := make(map[kernel.TID]*poolWorker, len(p.workers))
	for _, w := range p.workers {
		byTID[w.t.TID()] = w
		w.req = nil
	}
	p.free = fifo[*poolWorker]{}
	for _, tid := range st.Free {
		w := byTID[kernel.TID(tid)]
		if w == nil {
			return fmt.Errorf("worker pool %q: free worker T%d missing", p.snapKey, tid)
		}
		p.free.push(w)
	}
	for _, ir := range st.Inbox {
		w := byTID[kernel.TID(ir.TID)]
		if w == nil {
			return fmt.Errorf("worker pool %q: busy worker T%d missing", p.snapKey, ir.TID)
		}
		r, err := p.loadRequest(ir.Req)
		if err != nil {
			return err
		}
		w.req = r
	}
	p.backlog = fifo[*Request]{}
	for _, rr := range st.Backlog {
		r, err := p.loadRequest(rr)
		if err != nil {
			return err
		}
		p.backlog.push(r)
	}
	p.rec.Hist.SetState(st.Recorder.Hist)
	p.rec.Completed = st.Recorder.Completed
	p.rec.WarmupUntil = sim.Time(st.Recorder.WarmupUntil)
	return nil
}

// NewPoolShell builds an empty WorkerPool for snapshot restore: no
// workers yet (resumed worker bodies attach themselves during the spawn
// pass), state overlaid later by SnapshotLoad. rec may be nil, in which
// case the pool owns a fresh recorder.
func NewPoolShell(k *kernel.Kernel, rec *LatencyRecorder) *WorkerPool {
	if rec == nil {
		rec = &LatencyRecorder{}
	}
	return &WorkerPool{k: k, rec: rec, serve: runService}
}

// Recorder returns the pool's latency recorder.
func (p *WorkerPool) Recorder() *LatencyRecorder { return p.rec }

// adoptWorker rebuilds a pool worker for the restore spawn pass, which
// runs in TID order, so workers append in their original spawn order. A
// worker parked in Run is serving the request in its slot: its next
// resume completes it.
func (p *WorkerPool) adoptWorker(t *kernel.Thread, inRun bool) *poolWorker {
	w := &poolWorker{p: p, t: t}
	if inRun {
		w.step = 1
	}
	p.workers = append(p.workers, w)
	return w
}

// --- Poisson source ----------------------------------------------------

// serviceRec serializes the known ServiceDist implementations.
type serviceRec struct {
	Kind string  `json:"kind"`
	A    int64   `json:"a,omitempty"`
	B    int64   `json:"b,omitempty"`
	P    float64 `json:"p,omitempty"`
}

func saveService(d ServiceDist) (serviceRec, error) {
	switch v := d.(type) {
	case Fixed:
		return serviceRec{Kind: "fixed", A: int64(v)}, nil
	case Exponential:
		return serviceRec{Kind: "exp", A: int64(v)}, nil
	case Bimodal:
		return serviceRec{Kind: "bimodal", A: int64(v.Short), B: int64(v.Long), P: v.PLong}, nil
	default:
		return serviceRec{}, fmt.Errorf("service distribution %T is not serializable", d)
	}
}

func loadService(rec serviceRec) (ServiceDist, error) {
	switch rec.Kind {
	case "fixed":
		return Fixed(rec.A), nil
	case "exp":
		return Exponential(rec.A), nil
	case "bimodal":
		return Bimodal{Short: sim.Duration(rec.A), Long: sim.Duration(rec.B), PLong: rec.P}, nil
	default:
		return nil, fmt.Errorf("unknown service distribution kind %q", rec.Kind)
	}
}

type poissonState struct {
	Rate    float64    `json:"rate"`
	Service serviceRec `json:"service"`
	Rand    uint64     `json:"rand"`
	NextID  uint64     `json:"nextID"`
	Stopped bool       `json:"stopped,omitempty"`
	Until   int64      `json:"until,omitempty"`
}

// SnapshotKind implements snap.Component.
func (p *PoissonSource) SnapshotKind() string { return "workload.poisson" }

// SnapshotSave implements snap.Component. The pending arrival event is
// serialized separately by the engine walk (ComponentEvents).
func (p *PoissonSource) SnapshotSave() ([]byte, error) {
	svc, err := saveService(p.service)
	if err != nil {
		return nil, err
	}
	return json.Marshal(poissonState{
		Rate:    p.rate,
		Service: svc,
		Rand:    p.rand.State(),
		NextID:  p.nextID,
		Stopped: p.stopped,
		Until:   int64(p.Until),
	})
}

// SnapshotLoad implements snap.Component.
func (p *PoissonSource) SnapshotLoad(data []byte) error {
	var st poissonState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	svc, err := loadService(st.Service)
	if err != nil {
		return err
	}
	p.rate = st.Rate
	p.service = svc
	p.rand.SetState(st.Rand)
	p.nextID = st.NextID
	p.stopped = st.Stopped
	p.Until = sim.Time(st.Until)
	return nil
}

// ClassifyEvent implements snap.ComponentEvents: the source's only
// pending event is its armed next-arrival timer.
func (p *PoissonSource) ClassifyEvent(afn func(any), arg any) (string, bool) {
	if arg == any(p) && sim.SameFn(afn, poissonFire) {
		return "arm", true
	}
	return "", false
}

// EventForSub implements snap.ComponentEvents.
func (p *PoissonSource) EventForSub(sub string) (func(any), any, bool) {
	if sub == "arm" {
		return poissonFire, p, true
	}
	return nil, nil, false
}

// NewPoissonShell builds an unarmed PoissonSource for snapshot restore:
// no arrival timer is scheduled (the pending one, if any, is restored as
// an engine event) and all parameters come from SnapshotLoad. The sink
// closure is owner-bound, so restores always supply it here via a
// per-restore component factory.
func NewPoissonShell(eng *sim.Engine, sink func(*Request)) *PoissonSource {
	return &PoissonSource{eng: eng, rand: sim.NewRand(1), stopped: true, sink: sink}
}

// SetSink replaces the source's sink (restore assemblers that build the
// shell before its consumer exists).
func (p *PoissonSource) SetSink(sink func(*Request)) { p.sink = sink }

// --- registered resumable bodies ---------------------------------------

// SpinnerDesc is the body descriptor matching Spinner(chunk); spawn
// sites attach it so spinner threads are snapshot-capable.
func SpinnerDesc(chunk sim.Duration) *kernel.BodyDesc {
	return &kernel.BodyDesc{Kind: "workload.spinner", Args: []int64{int64(chunk)}}
}

func init() {
	snap.RegisterComponent("workload.pool", func(ctx *snap.RestoreCtx, key string) (snap.Component, error) {
		return NewPoolShell(ctx.Kernel, nil), nil
	})
	snap.RegisterBody("workload.pool-worker", func(ctx *snap.RestoreCtx, rec kernel.BodyRec, _ *sim.Rand, resume snap.Resume) (kernel.ThreadFunc, error) {
		if !resume.Resuming {
			return nil, fmt.Errorf("pool workers are only created by NewWorkerPool")
		}
		p, ok := ctx.Component(rec.Key).(*WorkerPool)
		if !ok {
			return nil, fmt.Errorf("pool worker references component %q which is not a WorkerPool", rec.Key)
		}
		return p.adoptWorker(resume.Thread, resume.InRun).resume, nil
	})
	snap.RegisterBody("workload.spinner", func(ctx *snap.RestoreCtx, rec kernel.BodyRec, _ *sim.Rand, resume snap.Resume) (kernel.ThreadFunc, error) {
		if len(rec.Args) != 1 {
			return nil, fmt.Errorf("workload.spinner wants 1 arg, got %d", len(rec.Args))
		}
		return Spinner(sim.Duration(rec.Args[0])), nil
	})
}
