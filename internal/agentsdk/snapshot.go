package agentsdk

import (
	"sort"

	"fmt"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/stats"
)

// Snapshot/restore support (DESIGN.md §3j). An agent set serializes to a
// SetRec; restore re-runs Start (the TID-pinned spawn pass recreates the
// runner threads and agent handles) and RestoreImage overlays the
// generation's state afterwards. The policy rides along as a
// (kind, opaque blob) pair via the PolicySnapshotter capability.

// PolicySnapshotter is the capability a scheduling policy implements to
// ride in snapshots: Kind names a factory in the snapshot policy catalog,
// Save captures the policy's private state, Load overwrites it.
type PolicySnapshotter interface {
	SnapshotKind() string
	SnapshotSave() ([]byte, error)
	SnapshotLoad(data []byte) error
}

// RunnerRec is one serialized agent runner.
type RunnerRec struct {
	CPU        int     `json:"cpu"`
	TID        int     `json:"tid"`
	StallUntil int64   `json:"stallUntil,omitempty"`
	SlowUntil  int64   `json:"slowUntil,omitempty"`
	SlowFactor float64 `json:"slowFactor,omitempty"`
}

// PolicyRec is a serialized scheduling policy.
type PolicyRec struct {
	Kind string `json:"kind"`
	Data []byte `json:"data,omitempty"`
}

// SetRec is one serialized agent generation.
type SetRec struct {
	EncID     int      `json:"encID"`
	Mode      string   `json:"mode"` // "global" or "percpu"
	Repoll    int64    `json:"repoll,omitempty"`
	GlobalCPU int      `json:"globalCPU"`
	ThreadCPU [][2]int `json:"threadCPU,omitempty"` // (tid, cpu), TID-sorted

	Runners []RunnerRec `json:"runners"`
	Policy  PolicyRec   `json:"policy"`

	Handoffs      uint64               `json:"handoffs"`
	StepsExecuted uint64               `json:"stepsExecuted"`
	TxnsCommitted uint64               `json:"txnsCommitted"`
	TxnsFailed    uint64               `json:"txnsFailed"`
	MsgDelivery   stats.HistogramState `json:"msgDelivery"`
}

// policy returns the set's policy regardless of model.
func (set *AgentSet) policy() any {
	if set.global != nil {
		return set.global
	}
	return set.percpu
}

// SaveRec serializes the agent set. It fails with a descriptive error
// when the generation is outside the v1 snapshot envelope: a stopped set
// (its runner threads are dead) or a policy without the snapshot
// capability.
// Policy returns the set's current-generation scheduling policy.
func (set *AgentSet) Policy() any { return set.policy() }

func (set *AgentSet) SaveRec() (*SetRec, error) {
	if set.stopped {
		return nil, fmt.Errorf("agent set on enclave %d has been stopped; stopped generations are not snapshottable", set.enc.ID())
	}
	ps, ok := set.policy().(PolicySnapshotter)
	if !ok {
		return nil, fmt.Errorf("policy %T does not implement the snapshot capability (SnapshotKind/SnapshotSave/SnapshotLoad)", set.policy())
	}
	blob, err := ps.SnapshotSave()
	if err != nil {
		return nil, fmt.Errorf("policy %s: %w", ps.SnapshotKind(), err)
	}
	rec := &SetRec{
		EncID:         set.enc.ID(),
		Mode:          "global",
		GlobalCPU:     int(set.globalCPU),
		Policy:        PolicyRec{Kind: ps.SnapshotKind(), Data: blob},
		Handoffs:      set.Handoffs,
		StepsExecuted: set.StepsExecuted,
		TxnsCommitted: set.TxnsCommitted,
		TxnsFailed:    set.TxnsFailed,
		MsgDelivery:   set.MsgDelivery.State(),
	}
	if set.percpu != nil {
		rec.Mode = "percpu"
	}
	if set.repollTicker != nil {
		rec.Repoll = int64(set.repollTicker.Period())
	}
	for _, r := range set.sortedRunners() {
		rec.Runners = append(rec.Runners, RunnerRec{
			CPU:        int(r.cpu),
			TID:        int(r.thread.TID()),
			StallUntil: int64(r.stallUntil),
			SlowUntil:  int64(r.slowUntil),
			SlowFactor: r.slowFactor,
		})
	}
	tids := make([]int, 0, len(set.threadCPU))
	for tid := range set.threadCPU {
		tids = append(tids, int(tid))
	}
	sort.Ints(tids)
	for _, tid := range tids {
		rec.ThreadCPU = append(rec.ThreadCPU, [2]int{tid, int(set.threadCPU[kernel.TID(tid)])})
	}
	return rec, nil
}

// MinTID returns the smallest runner TID in rec — the restore spawn pass
// orders agent-set recreation by it.
func (r *SetRec) MinTID() int {
	min := 0
	for i, rr := range r.Runners {
		if i == 0 || rr.TID < min {
			min = rr.TID
		}
	}
	return min
}

// StartOptions reconstructs the Start options encoded in rec.
func (r *SetRec) StartOptions() ([]Option, error) {
	var opts []Option
	switch r.Mode {
	case "global":
		opts = append(opts, Global())
	case "percpu":
		opts = append(opts, PerCPU())
	default:
		return nil, fmt.Errorf("agent set on enclave %d: unknown mode %q", r.EncID, r.Mode)
	}
	if r.Repoll > 0 {
		opts = append(opts, WithRepoll(sim.Duration(r.Repoll)))
	}
	return opts, nil
}

// RestoreImage overlays rec onto a freshly Started generation whose
// runner TIDs were pinned by the spawn pass. Called after every thread in
// the machine has been re-spawned, so the policy blob can resolve TIDs.
func (set *AgentSet) RestoreImage(rec *SetRec) error {
	if len(rec.Runners) != len(set.runners) {
		return fmt.Errorf("agent set on enclave %d: %d runners after re-spawn, snapshot has %d", rec.EncID, len(set.runners), len(rec.Runners))
	}
	for _, rr := range rec.Runners {
		r, ok := set.runners[hw.CPUID(rr.CPU)]
		if !ok {
			return fmt.Errorf("agent set on enclave %d: no runner on cpu%d after re-spawn", rec.EncID, rr.CPU)
		}
		if int(r.thread.TID()) != rr.TID {
			return fmt.Errorf("agent set on enclave %d: runner on cpu%d re-spawned as T%d, snapshot has T%d", rec.EncID, rr.CPU, r.thread.TID(), rr.TID)
		}
		r.stallUntil = sim.Time(rr.StallUntil)
		r.slowUntil = sim.Time(rr.SlowUntil)
		r.slowFactor = rr.SlowFactor
	}
	set.globalCPU = hw.CPUID(rec.GlobalCPU)
	set.threadCPU = make(map[kernel.TID]hw.CPUID, len(rec.ThreadCPU))
	for _, pair := range rec.ThreadCPU {
		set.threadCPU[kernel.TID(pair[0])] = hw.CPUID(pair[1])
	}
	set.Handoffs = rec.Handoffs
	set.StepsExecuted = rec.StepsExecuted
	set.TxnsCommitted = rec.TxnsCommitted
	set.TxnsFailed = rec.TxnsFailed
	set.MsgDelivery.SetState(rec.MsgDelivery)
	ps, ok := set.policy().(PolicySnapshotter)
	if !ok {
		return fmt.Errorf("restored policy %T does not implement the snapshot capability", set.policy())
	}
	if ps.SnapshotKind() != rec.Policy.Kind {
		return fmt.Errorf("restored policy kind %q does not match snapshot %q", ps.SnapshotKind(), rec.Policy.Kind)
	}
	return ps.SnapshotLoad(rec.Policy.Data)
}

// EachTicker visits the set's keyed tickers (the repoll virtual timer),
// for the snapshot ticker registry.
func (set *AgentSet) EachTicker(f func(*sim.Ticker)) {
	if set.repollTicker != nil {
		f(set.repollTicker)
	}
}

// ClassifyEvent recognizes agentsdk-owned pre-bound event callbacks: the
// RepollAfter poke timer. ref is the enclave id.
func ClassifyEvent(afn func(any), arg any) (kind string, ref int64, ok bool) {
	set, isSet := arg.(*AgentSet)
	if !isSet || !sim.SameFn(afn, pokeActiveFn) {
		return "", 0, false
	}
	return "agentsdk.pokeactive", int64(set.enc.ID()), true
}

// PokeActiveEvent returns the callback pair for a serialized
// "agentsdk.pokeactive" event targeting this set.
func (set *AgentSet) PokeActiveEvent() (func(any), any) {
	return pokeActiveFn, set
}

// EnclaveID returns the id of the enclave this generation serves.
func (set *AgentSet) EnclaveID() int { return set.enc.ID() }
