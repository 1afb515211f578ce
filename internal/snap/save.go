package snap

import (
	"fmt"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// ComponentEntry pairs a component with its stable key. Save serializes
// entries in slice order, and restore rebuilds and overlays them in the
// same order, so inter-component references (a source feeding a pool)
// resolve if the caller keeps dependency order.
type ComponentEntry struct {
	Key string
	C   Component
}

// Target names every part of a machine the snapshot walks.
type Target struct {
	Eng *sim.Engine

	Topo *hw.Topology
	Cost *hw.CostModel

	K     *kernel.Kernel
	Ghost *ghostcore.Class

	Sets       []*agentsdk.AgentSet
	Components []ComponentEntry
}

// Save serializes the machine at a quiescent barrier. It returns a
// descriptive error naming the culprit when any live state falls outside
// the v1 snapshot envelope (an unregistered thread body, a closure
// event, an armed deadline, a policy without the snapshot capability).
func Save(t *Target) (*Image, error) {
	core := &CoreImage{
		Topology: t.Topo.Config(),
		Cost:     *t.Cost,
		Now:      int64(t.Eng.Now()),
		Seq:      t.Eng.Seq(),
		Executed: t.Eng.Executed,
		MaxQueue: t.Eng.MaxQueue,
	}

	kimg, err := t.K.SaveImage()
	if err != nil {
		return nil, fmt.Errorf("snap: kernel: %w", err)
	}
	core.Kernel = kimg
	if t.Ghost != nil {
		gimg, err := t.Ghost.SaveImage()
		if err != nil {
			return nil, fmt.Errorf("snap: ghost: %w", err)
		}
		core.Ghost = gimg
	}
	for _, set := range t.Sets {
		rec, err := set.SaveRec()
		if err != nil {
			return nil, fmt.Errorf("snap: agents: %w", err)
		}
		core.Sets = append(core.Sets, rec)
	}
	runners := runnerTIDs(core.Sets)
	for _, rec := range kimg.Threads {
		if rec.Body == nil && !runners[rec.TID] {
			return nil, fmt.Errorf("snap: thread T%d (%s) has no registered resumable body (see snap.RegisterBody)", rec.TID, rec.Name)
		}
	}
	for _, ce := range t.Components {
		data, err := ce.C.SnapshotSave()
		if err != nil {
			return nil, fmt.Errorf("snap: component %q: %w", ce.Key, err)
		}
		core.Components = append(core.Components, ComponentRec{Key: ce.Key, Kind: ce.C.SnapshotKind(), Data: data})
	}

	tickers, err := collectTickers(t)
	if err != nil {
		return nil, err
	}
	for _, tk := range tickers {
		core.Tickers = append(core.Tickers, TickerRec{Key: tk.Key, Period: int64(tk.Period()), Stopped: tk.Stopped()})
	}

	for _, pe := range t.Eng.Pending() {
		rec, err := classifyPending(t, pe)
		if err != nil {
			return nil, err
		}
		core.Events = append(core.Events, rec)
	}
	return NewImage(core)
}

// runnerTIDs returns the TIDs of the agent runners in sets: the only
// threads an image holds without a body descriptor, because each set
// re-spawns its own at restore.
func runnerTIDs(sets []*agentsdk.SetRec) map[int]bool {
	tids := map[int]bool{}
	for _, set := range sets {
		for _, rr := range set.Runners {
			tids[rr.TID] = true
		}
	}
	return tids
}

// collectTickers walks every keyed virtual timer in the machine,
// erroring on a duplicate or empty key (an unkeyed ticker cannot be
// re-linked at restore).
func collectTickers(t *Target) ([]*sim.Ticker, error) {
	var out []*sim.Ticker
	seen := map[string]bool{}
	add := func(tk *sim.Ticker) error {
		if tk.Key == "" {
			return fmt.Errorf("snap: ticker without a key is not snapshottable")
		}
		if seen[tk.Key] {
			return fmt.Errorf("snap: duplicate ticker key %q", tk.Key)
		}
		seen[tk.Key] = true
		out = append(out, tk)
		return nil
	}
	var werr error
	walk := func(tk *sim.Ticker) {
		if werr == nil {
			werr = add(tk)
		}
	}
	t.K.EachTicker(walk)
	if c, ok := t.K.Class("cfs").(*kernel.CFS); ok && c != nil && c.BalanceTicker() != nil {
		walk(c.BalanceTicker())
	}
	if t.Ghost != nil {
		t.Ghost.EachTicker(walk)
	}
	for _, set := range t.Sets {
		set.EachTicker(walk)
	}
	return out, werr
}

// classifyPending routes one pending event through the subsystem
// classifiers: sim's keyed timers, the kernel's pre-bound callbacks, the
// ghOSt install IPI, the agentsdk repoll poke, then component-owned
// events.
func classifyPending(t *Target, pe sim.PendingEvent) (EventRec, error) {
	rec := EventRec{At: int64(pe.At), Seq: pe.Seq}
	if pe.Fn != nil {
		return rec, fmt.Errorf("snap: pending event at %v is a plain closure (Machine.After, fault plans); not snapshottable", pe.At)
	}
	if kind, key, ok := sim.ClassifyEvent(pe.AFn, pe.Arg); ok {
		if kind == "sim.deadline" {
			return rec, fmt.Errorf("snap: armed deadline %q at %v; deadlines (agent upgrades) are not snapshottable", key, pe.At)
		}
		rec.Kind, rec.Key = kind, key
		return rec, nil
	}
	if kind, ref, ok := t.K.ClassifyEvent(pe.AFn, pe.Arg); ok {
		rec.Kind, rec.Ref = kind, ref
		return rec, nil
	}
	if t.Ghost != nil {
		if kind, args, ok := t.Ghost.ClassifyEvent(pe.AFn, pe.Arg); ok {
			rec.Kind, rec.Args = kind, args
			return rec, nil
		}
	}
	if kind, ref, ok := agentsdk.ClassifyEvent(pe.AFn, pe.Arg); ok {
		rec.Kind, rec.Ref = kind, ref
		return rec, nil
	}
	for _, ce := range t.Components {
		evs, ok := ce.C.(ComponentEvents)
		if !ok {
			continue
		}
		if sub, ok := evs.ClassifyEvent(pe.AFn, pe.Arg); ok {
			rec.Kind, rec.Key, rec.Sub = "component", ce.Key, sub
			return rec, nil
		}
	}
	return rec, fmt.Errorf("snap: unclassifiable pending event at %v (arg %T); register its owner as a snapshot component", pe.At, pe.Arg)
}
