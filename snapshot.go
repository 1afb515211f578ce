package ghost

import (
	"errors"
	"fmt"
	"io"

	"ghost/internal/agentsdk"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/snap"
)

// Checkpoint/restore (DESIGN.md §3j). A Snapshot is a versioned,
// self-contained capture of a machine at a quiescent barrier; Restore
// rebuilds a machine whose forward behavior is byte-identical —
// digest(run 0→T) == digest(restore(snap@t), run t→T). Thread bodies
// are resumable functions whose continuation is their own state, so a
// snapshot records each body as a registered kind (RegisterBody /
// SpawnBody, or library-provided bodies like worker pools) plus where
// it is parked, and workload state rides via SnapshotComponent.

// SnapshotVersion is the snapshot wire-format version this build speaks.
const SnapshotVersion = snap.Version

// ErrSnapshotVersion is returned (wrapped) when decoding a snapshot
// written by an incompatible format version.
var ErrSnapshotVersion = snap.ErrVersion

// ErrSnapshotCorrupt is returned (wrapped) when a snapshot fails
// structural validation: bad magic, checksum mismatch, truncation.
var ErrSnapshotCorrupt = snap.ErrCorrupt

// Snapshot is an opaque machine checkpoint. Obtain one from
// Machine.Snapshot or ReadSnapshot; turn it back into a machine with
// Restore.
type Snapshot struct {
	img *snap.Image
}

// Digest returns the hex sha256 of the snapshot's core state — the
// fingerprint the determinism gates compare.
func (s *Snapshot) Digest() string { return s.img.Digest() }

// Time returns the simulated instant the snapshot was taken at.
func (s *Snapshot) Time() Time { return s.img.Now() }

// WriteTo serializes the snapshot container (implements io.WriterTo).
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	err := s.img.Encode(cw)
	return cw.n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadSnapshot decodes a snapshot container. Errors unwrap to
// ErrSnapshotVersion or ErrSnapshotCorrupt.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	img, err := snap.Decode(r)
	if err != nil {
		return nil, err
	}
	return &Snapshot{img: img}, nil
}

// SnapshotComponent is a machine component (workload source, pool,
// recorder) that rides in snapshots: Kind names its restore factory,
// Save/Load carry its private state. Register instances with
// Machine.AddSnapshotComponent.
type SnapshotComponent interface {
	SnapshotKind() string
	SnapshotSave() ([]byte, error)
	SnapshotLoad(data []byte) error
}

// AddSnapshotComponent registers a component under a stable key so its
// state is captured by Machine.Snapshot. Registration order is
// serialization order — add a component before others that depend on
// it. Re-adding a key replaces the entry.
func (m *Machine) AddSnapshotComponent(key string, c SnapshotComponent) {
	if kb, ok := c.(interface{ BindSnapshotKey(string) }); ok {
		kb.BindSnapshotKey(key)
	}
	for i := range m.comps {
		if m.comps[i].Key == key {
			m.comps[i].C = c
			return
		}
	}
	m.comps = append(m.comps, snap.ComponentEntry{Key: key, C: c})
}

// SnapshotComponents returns the registered component for key, nil if
// none.
func (m *Machine) SnapshotComponent(key string) SnapshotComponent {
	for i := range m.comps {
		if m.comps[i].Key == key {
			return m.comps[i].C
		}
	}
	return nil
}

// WithSnapshotEvery makes Machine.Run/RunUntil take a snapshot at every
// multiple of d of simulated time (retrievable via Checkpoints). A
// boundary where the machine is momentarily outside the snapshot
// envelope is skipped, not fatal (see SnapshotSkips).
func WithSnapshotEvery(d Duration) MachineOption {
	return func(c *machineConfig) { c.snapEvery = d }
}

// Checkpoints returns the snapshots taken by WithSnapshotEvery, oldest
// first.
func (m *Machine) Checkpoints() []*Snapshot { return m.checkpoints }

// SnapshotSkips reports how many periodic checkpoint boundaries were
// skipped because the machine state was not snapshottable there.
func (m *Machine) SnapshotSkips() int { return m.snapSkips }

// snapTarget assembles the internal snapshot walk for this machine.
func (m *Machine) snapTarget() *snap.Target {
	return &snap.Target{
		Eng:        m.eng,
		Topo:       m.k.Topology(),
		Cost:       m.k.Cost(),
		K:          m.k,
		Ghost:      m.Ghost,
		Sets:       m.sets,
		Components: m.comps,
	}
}

// Snapshot captures the machine at the current quiescent barrier (i.e.
// between Run calls). It returns a descriptive error when live state
// falls outside the snapshot envelope: an ad-hoc thread body that was
// never registered, a pending Machine.After closure, a policy without
// the snapshot capability, an agent upgrade in flight.
func (m *Machine) Snapshot() (*Snapshot, error) {
	img, err := snap.Save(m.snapTarget())
	if err != nil {
		return nil, err
	}
	return &Snapshot{img: img}, nil
}

// WithRestoredComponent supplies a restore-time factory for the
// component stored under key — required when the component's
// construction needs closures the snapshot cannot carry (e.g. a Poisson
// source's sink). The factory runs before any thread is re-spawned; its
// serialized state is overlaid afterwards. Only meaningful as a Restore
// option.
func WithRestoredComponent(key string, f func(m *Machine) (SnapshotComponent, error)) MachineOption {
	return func(c *machineConfig) {
		if c.restoreComps == nil {
			c.restoreComps = map[string]func(*Machine) (SnapshotComponent, error){}
		}
		c.restoreComps[key] = f
	}
}

// Restore rebuilds a machine from a snapshot. Topology and cost model
// come from the snapshot itself; the remaining options
// (WithTrace, WithInvariants, WithRestoredComponent, ...) apply to the
// new machine. The restored machine's forward behavior is byte-identical
// to the original's from the snapshot point.
func Restore(s *Snapshot, opts ...MachineOption) (*Machine, error) {
	core := s.img.Core
	topo := hw.NewTopology(core.Topology)
	base := []MachineOption{WithCostModel(core.Cost)}
	if core.Kernel != nil && core.Kernel.MQ == nil {
		base = append(base, WithoutMicroQuanta())
	}
	all := append(base, opts...)
	var cfg machineConfig
	for _, o := range all {
		o(&cfg)
	}
	m := NewMachine(topo, all...)
	lo := snap.LoadOpts{
		UserData: m,
		// Mirror each rebuilt component onto the machine immediately, so a
		// later component's restore factory can reach an earlier one via
		// m.SnapshotComponent (a source finding its pool).
		OnComponent: func(key string, c snap.Component) {
			for i := range m.comps {
				if m.comps[i].Key == key {
					m.comps[i].C = c
					return
				}
			}
			m.comps = append(m.comps, snap.ComponentEntry{Key: key, C: c})
		},
	}
	if len(cfg.restoreComps) > 0 {
		lo.ComponentOverrides = map[string]snap.ComponentFactory{}
		for key, f := range cfg.restoreComps {
			f := f
			lo.ComponentOverrides[key] = func(ctx *snap.RestoreCtx, key string) (snap.Component, error) {
				mm, ok := ctx.UserData.(*Machine)
				if !ok {
					return nil, errors.New("ghost: restore context lost its machine")
				}
				return f(mm)
			}
		}
	}
	res, err := snap.Load(m.snapTarget(), s.img, lo)
	if err != nil {
		m.k.Shutdown()
		return nil, err
	}
	m.sets = res.Sets
	m.comps = res.Components
	return m, nil
}

// BodyResume tells a registered body factory whether it is rebuilding a
// thread from a snapshot, and if so where that thread was parked: in a
// Run (InRun; the remaining work is restored by the overlay) or in a
// Block (a pending wake is restored independently).
type BodyResume struct {
	Resuming bool
	InRun    bool
}

// BodyFactory builds (or resumes) a registered thread body. args are the
// construction parameters recorded at spawn; r is the body's private
// random stream (nil unless one was attached), whose state is restored
// after the spawn.
type BodyFactory func(m *Machine, args []int64, r *Rand, resume BodyResume) (ThreadFunc, error)

var facadeBodies = map[string]BodyFactory{}

// RegisterBody registers a resumable thread-body factory under kind.
// Threads spawned via Machine.SpawnBody with this kind survive
// snapshot/restore: the factory is re-invoked at restore with
// resume.Resuming set and must return the body in its resume state. The
// thread is re-spawned parked, so the body is not called until its
// parked action completes: after the Run when resume.InRun, on the Wake
// otherwise.
func RegisterBody(kind string, f BodyFactory) {
	facadeBodies[kind] = f
	snap.RegisterBody(kind, func(ctx *snap.RestoreCtx, rec kernel.BodyRec, r *sim.Rand, resume snap.Resume) (kernel.ThreadFunc, error) {
		m, ok := ctx.UserData.(*Machine)
		if !ok {
			return nil, fmt.Errorf("ghost: body %q restored outside a machine context", rec.Kind)
		}
		return f(m, rec.Args, r, BodyResume{Resuming: resume.Resuming, InRun: resume.InRun})
	})
}

// SpawnBody spawns a thread whose body was registered with RegisterBody,
// making it snapshot-capable. seed, when non-zero, gives the body a
// private random stream delivered to the factory.
func (m *Machine) SpawnBody(o ThreadOpts, kind string, seed uint64, args ...int64) (*Thread, error) {
	f := facadeBodies[kind]
	if f == nil {
		return nil, fmt.Errorf("ghost: no registered body kind %q", kind)
	}
	var r *sim.Rand
	if seed != 0 {
		r = sim.NewRand(seed)
	}
	fn, err := f(m, args, r, BodyResume{})
	if err != nil {
		return nil, err
	}
	th := m.Spawn(o, fn)
	th.SetBodyDesc(&kernel.BodyDesc{Kind: kind, Args: append([]int64(nil), args...), Rand: r})
	return th, nil
}

// PolicySnapshotter is the capability a custom scheduling policy
// implements to ride along in a Machine snapshot: Kind names the factory
// registered with RegisterPolicy, Save serializes the policy's private
// state at a quiescent barrier, and Load rebuilds it on the restored
// machine (after Attach, so the tracker and context are live).
type PolicySnapshotter = agentsdk.PolicySnapshotter

// PolicyTrackerRec is one thread's serialized tracker state — the
// building block for a custom policy's PolicySnapshotter implementation.
type PolicyTrackerRec = policies.TStateRec

// SavePolicyTracker serializes a policy tracker's thread map in TID
// order, for embedding in a custom policy's SnapshotSave payload.
func SavePolicyTracker(tr *PolicyTracker) []PolicyTrackerRec {
	return policies.SaveTrackerRecs(tr)
}

// LoadPolicyTracker rebuilds a tracker's thread map from records saved
// by SavePolicyTracker, resolving TIDs against the restored machine via
// the policy's attach-time context. Existing OnRunnable/OnRemoved
// callbacks are preserved.
func LoadPolicyTracker(tr *PolicyTracker, ctx *PolicyContext, recs []PolicyTrackerRec) error {
	return policies.LoadTrackerRecs(tr, ctx, recs)
}

// RegisterPolicy registers a factory that rebuilds a custom scheduling
// policy shell during Restore. The shell's SnapshotLoad then overlays
// the serialized state. Kinds are global; register in an init function.
func RegisterPolicy(kind string, f func() (any, error)) {
	snap.RegisterPolicy(kind, func(*snap.RestoreCtx) (any, error) { return f() })
}

// AgentSets returns the machine's agent sets in start order. On a
// restored machine these are the reconstructed sets, so a caller that
// lost its StartAgents return values (Restore builds the sets itself)
// can re-find them here.
func (m *Machine) AgentSets() []*AgentSet { return m.sets }
