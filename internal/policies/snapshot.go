package policies

import (
	"encoding/json"
	"fmt"
	"sort"

	"ghost/internal/agentsdk"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/snap"
)

// Snapshot/restore support (DESIGN.md §3j). Each built-in policy
// implements agentsdk.PolicySnapshotter by serializing its tracker and
// private queues as TID-based records; on load, TIDs resolve back to
// thread handles through the Attach context. Policies configured with
// Go funcs (CentralFIFO.Band, Shinjuku.Batch) are outside the v1
// envelope: a func cannot ride in a byte stream, so Save reports a
// descriptive error instead of silently dropping the classifier.

// TStateRec is the serialized form of one tracked thread.
type TStateRec struct {
	TID       int   `json:"tid"`
	Runnable  bool  `json:"runnable,omitempty"`
	Running   bool  `json:"running,omitempty"`
	CPU       int   `json:"cpu"`
	LastStart int64 `json:"lastStart,omitempty"`
	Runtime   int64 `json:"runtime,omitempty"`
	Enqueued  bool  `json:"enqueued,omitempty"`
}

// saveTracker serializes tr's thread map in TID order.
func saveTracker(tr *Tracker) []TStateRec {
	tids := make([]int, 0, len(tr.Threads))
	for tid := range tr.Threads {
		tids = append(tids, int(tid))
	}
	sort.Ints(tids)
	recs := make([]TStateRec, 0, len(tids))
	for _, tid := range tids {
		ts := tr.Threads[kernel.TID(tid)]
		recs = append(recs, TStateRec{
			TID:       tid,
			Runnable:  ts.Runnable,
			Running:   ts.Running,
			CPU:       ts.CPU,
			LastStart: int64(ts.LastStart),
			Runtime:   int64(ts.Runtime),
			Enqueued:  ts.Enqueued,
		})
	}
	return recs
}

// loadTracker rebuilds tr.Threads from recs, resolving TIDs through ctx.
// The tracker's lifecycle callbacks (installed by Attach) are preserved.
func loadTracker(tr *Tracker, ctx *agentsdk.Context, recs []TStateRec) error {
	tr.Threads = make(map[kernel.TID]*TState, len(recs))
	for _, rec := range recs {
		t := ctx.Thread(kernel.TID(rec.TID))
		if t == nil {
			return fmt.Errorf("tracker refers to T%d, which does not exist after restore", rec.TID)
		}
		tr.Threads[t.TID()] = &TState{
			Thread:    t,
			Runnable:  rec.Runnable,
			Running:   rec.Running,
			CPU:       rec.CPU,
			LastStart: sim.Time(rec.LastStart),
			Runtime:   sim.Duration(rec.Runtime),
			Enqueued:  rec.Enqueued,
		}
	}
	return nil
}

// SaveTrackerRecs serializes a tracker's thread map in TID order. It is
// the facade-level building block (ghost.SavePolicyTracker) for custom
// policies that implement the PolicySnapshotter capability.
func SaveTrackerRecs(tr *Tracker) []TStateRec { return saveTracker(tr) }

// LoadTrackerRecs rebuilds a tracker's thread map from records, the
// facade-level counterpart of SaveTrackerRecs.
func LoadTrackerRecs(tr *Tracker, ctx *agentsdk.Context, recs []TStateRec) error {
	return loadTracker(tr, ctx, recs)
}

// queueTIDs flattens a TState queue to TIDs in order.
func queueTIDs(q []*TState) []int {
	out := make([]int, 0, len(q))
	for _, ts := range q {
		out = append(out, int(ts.Thread.TID()))
	}
	return out
}

// resolveQueue maps TIDs back to tracked states.
func resolveQueue(tr *Tracker, tids []int) ([]*TState, error) {
	out := make([]*TState, 0, len(tids))
	for _, tid := range tids {
		ts := tr.Threads[kernel.TID(tid)]
		if ts == nil {
			return nil, fmt.Errorf("queue refers to untracked T%d", tid)
		}
		out = append(out, ts)
	}
	return out, nil
}

// pairs serializes the placements as (cpu, tid) pairs in CPU order.
func (pl placements) pairs() [][2]int {
	var out [][2]int
	for cpu, ts := range pl {
		if ts != nil {
			out = append(out, [2]int{cpu, int(ts.Thread.TID())})
		}
	}
	return out
}

// resolvePlacements rebuilds placements from (cpu, tid) pairs on a
// machine of ncpu CPUs.
func resolvePlacements(tr *Tracker, pairs [][2]int, ncpu int) (placements, error) {
	var pl placements
	for _, pair := range pairs {
		if pair[0] < 0 || pair[0] >= ncpu {
			return nil, fmt.Errorf("placement on cpu%d, outside the machine", pair[0])
		}
		ts := tr.Threads[kernel.TID(pair[1])]
		if ts == nil {
			return nil, fmt.Errorf("placement on cpu%d refers to untracked T%d", pair[0], pair[1])
		}
		pl.set(hw.CPUID(pair[0]), ts)
	}
	return pl, nil
}

// --- CentralFIFO ---

type centralFIFOState struct {
	NumBands     int         `json:"numBands"`
	PreemptLower bool        `json:"preemptLower,omitempty"`
	Quantum      int64       `json:"quantum,omitempty"`
	Tracker      []TStateRec `json:"tracker,omitempty"`
	Queues       [][]int     `json:"queues"`
	Running      [][2]int    `json:"running,omitempty"`
}

// SnapshotKind implements agentsdk.PolicySnapshotter.
func (p *CentralFIFO) SnapshotKind() string { return "central-fifo" }

// SnapshotSave implements agentsdk.PolicySnapshotter.
func (p *CentralFIFO) SnapshotSave() ([]byte, error) {
	if p.Band != nil {
		return nil, fmt.Errorf("CentralFIFO with a Band classifier func is not snapshottable (funcs do not serialize)")
	}
	st := centralFIFOState{
		NumBands:     p.NumBands,
		PreemptLower: p.PreemptLower,
		Quantum:      int64(p.Quantum),
		Tracker:      saveTracker(p.tr),
		Queues:       make([][]int, len(p.queues)),
		Running:      p.running.pairs(),
	}
	for b, q := range p.queues {
		st.Queues[b] = queueTIDs(q)
	}
	return json.Marshal(st)
}

// SnapshotLoad implements agentsdk.PolicySnapshotter. The policy must be
// attached (restore re-runs Start before overlaying state).
func (p *CentralFIFO) SnapshotLoad(data []byte) error {
	var st centralFIFOState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("central-fifo state: %w", err)
	}
	p.NumBands = st.NumBands
	p.PreemptLower = st.PreemptLower
	p.Quantum = sim.Duration(st.Quantum)
	if err := loadTracker(p.tr, p.ctx, st.Tracker); err != nil {
		return fmt.Errorf("central-fifo: %w", err)
	}
	p.queues = make([][]*TState, len(st.Queues))
	for b, tids := range st.Queues {
		q, err := resolveQueue(p.tr, tids)
		if err != nil {
			return fmt.Errorf("central-fifo band %d: %w", b, err)
		}
		p.queues[b] = q
	}
	running, err := resolvePlacements(p.tr, st.Running, p.ctx.Kernel.NumCPUs())
	if err != nil {
		return fmt.Errorf("central-fifo: %w", err)
	}
	p.running = running
	return nil
}

// --- Shinjuku ---

type shinjukuState struct {
	Slice      int64       `json:"slice"`
	MaxCommits int         `json:"maxCommits,omitempty"`
	Tracker    []TStateRec `json:"tracker,omitempty"`
	FIFO       []int       `json:"fifo,omitempty"`
	BatchQ     []int       `json:"batchq,omitempty"`
	Running    [][2]int    `json:"running,omitempty"`
	BatchOn    [][2]int    `json:"batchOn,omitempty"`
}

// SnapshotKind implements agentsdk.PolicySnapshotter.
func (p *Shinjuku) SnapshotKind() string { return "shinjuku" }

// SnapshotSave implements agentsdk.PolicySnapshotter.
func (p *Shinjuku) SnapshotSave() ([]byte, error) {
	if p.Batch != nil {
		return nil, fmt.Errorf("Shinjuku with a Batch classifier func is not snapshottable (funcs do not serialize)")
	}
	st := shinjukuState{
		Slice:      int64(p.Slice),
		MaxCommits: p.MaxCommits,
		Tracker:    saveTracker(p.tr),
		FIFO:       queueTIDs(p.fifo),
		BatchQ:     queueTIDs(p.batchq),
		Running:    p.running.pairs(),
		BatchOn:    p.batchOn.pairs(),
	}
	return json.Marshal(st)
}

// SnapshotLoad implements agentsdk.PolicySnapshotter.
func (p *Shinjuku) SnapshotLoad(data []byte) error {
	var st shinjukuState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("shinjuku state: %w", err)
	}
	p.Slice = sim.Duration(st.Slice)
	p.MaxCommits = st.MaxCommits
	if err := loadTracker(p.tr, p.ctx, st.Tracker); err != nil {
		return fmt.Errorf("shinjuku: %w", err)
	}
	var err error
	if p.fifo, err = resolveQueue(p.tr, st.FIFO); err != nil {
		return fmt.Errorf("shinjuku fifo: %w", err)
	}
	if p.batchq, err = resolveQueue(p.tr, st.BatchQ); err != nil {
		return fmt.Errorf("shinjuku batchq: %w", err)
	}
	ncpu := p.ctx.Kernel.NumCPUs()
	if p.running, err = resolvePlacements(p.tr, st.Running, ncpu); err != nil {
		return fmt.Errorf("shinjuku: %w", err)
	}
	if p.batchOn, err = resolvePlacements(p.tr, st.BatchOn, ncpu); err != nil {
		return fmt.Errorf("shinjuku: %w", err)
	}
	return nil
}

// --- PerCPUFIFO ---

type perCPUFIFOState struct {
	Steal   bool        `json:"steal,omitempty"`
	NextRR  int         `json:"nextRR,omitempty"`
	Tracker []TStateRec `json:"tracker,omitempty"`
	// RunQueues is (cpu → TIDs) as pairs in CPU order.
	RunQueues []perCPUQueueRec `json:"runQueues,omitempty"`
	// Home is (tid, cpu) pairs in TID order.
	Home [][2]int `json:"home,omitempty"`
}

type perCPUQueueRec struct {
	CPU  int   `json:"cpu"`
	TIDs []int `json:"tids"`
}

// SnapshotKind implements agentsdk.PolicySnapshotter.
func (p *PerCPUFIFO) SnapshotKind() string { return "percpu-fifo" }

// SnapshotSave implements agentsdk.PolicySnapshotter.
func (p *PerCPUFIFO) SnapshotSave() ([]byte, error) {
	st := perCPUFIFOState{
		Steal:   p.Steal,
		NextRR:  p.nextRR,
		Tracker: saveTracker(p.tr),
	}
	cpus := make([]int, 0, len(p.rqs))
	for cpu := range p.rqs {
		cpus = append(cpus, int(cpu))
	}
	sort.Ints(cpus)
	for _, cpu := range cpus {
		q := p.rqs[hw.CPUID(cpu)]
		if len(q) == 0 {
			continue
		}
		st.RunQueues = append(st.RunQueues, perCPUQueueRec{CPU: cpu, TIDs: queueTIDs(q)})
	}
	tids := make([]int, 0, len(p.home))
	for tid := range p.home {
		tids = append(tids, int(tid))
	}
	sort.Ints(tids)
	for _, tid := range tids {
		st.Home = append(st.Home, [2]int{tid, int(p.home[kernel.TID(tid)])})
	}
	return json.Marshal(st)
}

// SnapshotLoad implements agentsdk.PolicySnapshotter.
func (p *PerCPUFIFO) SnapshotLoad(data []byte) error {
	var st perCPUFIFOState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("percpu-fifo state: %w", err)
	}
	p.Steal = st.Steal
	p.nextRR = st.NextRR
	if err := loadTracker(p.tr, p.ctx, st.Tracker); err != nil {
		return fmt.Errorf("percpu-fifo: %w", err)
	}
	p.rqs = make(map[hw.CPUID][]*TState, len(st.RunQueues))
	for _, qr := range st.RunQueues {
		q, err := resolveQueue(p.tr, qr.TIDs)
		if err != nil {
			return fmt.Errorf("percpu-fifo cpu%d: %w", qr.CPU, err)
		}
		p.rqs[hw.CPUID(qr.CPU)] = q
	}
	p.home = make(map[kernel.TID]hw.CPUID, len(st.Home))
	for _, pair := range st.Home {
		p.home[kernel.TID(pair[0])] = hw.CPUID(pair[1])
	}
	return nil
}

func init() {
	snap.RegisterPolicy("central-fifo", func(*snap.RestoreCtx) (any, error) { return NewCentralFIFO(), nil })
	snap.RegisterPolicy("shinjuku", func(*snap.RestoreCtx) (any, error) { return NewShinjuku(), nil })
	snap.RegisterPolicy("percpu-fifo", func(*snap.RestoreCtx) (any, error) { return NewPerCPUFIFO(), nil })
}
