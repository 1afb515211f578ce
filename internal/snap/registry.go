// Package snap implements versioned snapshot/restore of a full simulated
// machine (DESIGN.md §3j). A snapshot is taken only at a quiescent
// barrier — RunUntil has returned and no event is mid-dispatch — and
// captures the engine clock and
// pending events, the kernel (CPUs, threads, baseline classes), the
// ghOSt class (enclaves, queues, status words), the agent generations
// (runners + policy state via the PolicySnapshotter capability), and any
// registered workload components. Restore rebuilds a machine that is
// byte-identical going forward: digest(run 0→T) equals
// digest(restore(snap@t), run t→T).
//
// Thread bodies are resumable functions, so a body's whole continuation
// is its own state. Body threads parked in Run or Block are re-spawned
// parked, with bodies that registered factories rebuild directly in
// their resume state (the first call happens where the parked action
// completes); agent runners re-spawn via agentsdk.Start. Construction
// side effects of the re-spawn pass are erased by an engine Reset before
// the serialized state is overlaid.
package snap

import (
	"fmt"

	"ghost/internal/ghostcore"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Resume tells a body factory where the serialized thread was parked, so
// the rebuilt body is in the state it had there. The body is not called
// at the re-spawn: its first call is the parked action's resume point.
type Resume struct {
	// Resuming is false when the factory is building a body for a fresh
	// spawn (facade SpawnBody) rather than a snapshot restore.
	Resuming bool
	// InRun: the thread was parked in a Run (the overlay restores the
	// remaining work, and the body is next called once it is done);
	// otherwise it was parked in a Block (a pending wake, if any, is
	// restored as an event or the WakePending flag).
	InRun bool
	// Thread is the re-spawned thread (nil for a fresh spawn), for
	// bodies whose owner tracks its threads.
	Thread *kernel.Thread
}

// BodyFactory rebuilds a thread body from its serialized descriptor.
// rand is the body's private random stream (nil if the body recorded
// none); its state is overlaid after spawn, so the factory only wires
// the object through.
type BodyFactory func(ctx *RestoreCtx, rec kernel.BodyRec, rand *sim.Rand, resume Resume) (kernel.ThreadFunc, error)

// PolicyFactory rebuilds a scheduling policy shell for an agent set; its
// serialized state is overlaid later via PolicySnapshotter.SnapshotLoad.
type PolicyFactory func(ctx *RestoreCtx) (any, error)

// Component is a snapshot-capable machine component (workload source,
// worker pool, recorder). Kind names a factory in the component
// registry; Save and Load carry the component's private state.
type Component interface {
	SnapshotKind() string
	SnapshotSave() ([]byte, error)
	SnapshotLoad(data []byte) error
}

// ComponentEvents is optionally implemented by components that own
// pending engine events; sub names the event within the component.
type ComponentEvents interface {
	ClassifyEvent(afn func(any), arg any) (sub string, ok bool)
	EventForSub(sub string) (afn func(any), arg any, ok bool)
}

// KeyBinder is optionally implemented by components that stamp their
// snapshot key onto owned resources (e.g. a worker pool marking its
// worker threads' body descriptors).
type KeyBinder interface {
	BindSnapshotKey(key string)
}

// ComponentFactory rebuilds a component shell; serialized state is
// overlaid later via SnapshotLoad.
type ComponentFactory func(ctx *RestoreCtx, key string) (Component, error)

var (
	bodyReg      = map[string]BodyFactory{}
	policyReg    = map[string]PolicyFactory{}
	componentReg = map[string]ComponentFactory{}
)

// RegisterBody registers a body factory under kind. Later registrations
// of the same kind win (tests may override).
func RegisterBody(kind string, f BodyFactory) { bodyReg[kind] = f }

// RegisterPolicy registers a policy factory under kind.
func RegisterPolicy(kind string, f PolicyFactory) { policyReg[kind] = f }

// RegisterComponent registers a component factory under kind.
func RegisterComponent(kind string, f ComponentFactory) { componentReg[kind] = f }

// RestoreCtx carries the partially rebuilt machine through the restore
// phases; factories resolve their dependencies through it.
type RestoreCtx struct {
	// Sched is the machine's event engine.
	Sched *sim.Engine
	// Kernel is the rebuilt kernel (threads appear as the spawn pass
	// progresses).
	Kernel *kernel.Kernel
	// Ghost is the rebuilt ghOSt class.
	Ghost *ghostcore.Class
	// UserData is opaque caller context (the facade passes the Machine
	// being rebuilt, so facade-registered body factories can reach it).
	UserData any

	components map[string]Component
	enclaves   map[int]*ghostcore.Enclave
}

// Component returns the already-rebuilt component under key, nil if none
// (components are rebuilt in saved order, before any thread spawns).
func (ctx *RestoreCtx) Component(key string) Component { return ctx.components[key] }

// Enclave returns the rebuilt enclave with the given id, nil if none.
func (ctx *RestoreCtx) Enclave(id int) *ghostcore.Enclave { return ctx.enclaves[id] }

func bodyFactory(kind string, overrides map[string]BodyFactory) (BodyFactory, error) {
	if f, ok := overrides[kind]; ok {
		return f, nil
	}
	if f, ok := bodyReg[kind]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("snap: no registered body factory for kind %q", kind)
}

func policyFactory(kind string) (PolicyFactory, error) {
	if f, ok := policyReg[kind]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("snap: no registered policy factory for kind %q", kind)
}

func componentFactory(key, kind string, overrides map[string]ComponentFactory) (ComponentFactory, error) {
	if f, ok := overrides[key]; ok {
		return f, nil
	}
	if f, ok := componentReg[kind]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("snap: no factory for component %q of kind %q (register one with snap.RegisterComponent or supply a per-restore override)", key, kind)
}
