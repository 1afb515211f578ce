package ghost

import (
	"ghost/internal/workload"
)

// Workload generation, re-exported from internal/workload so external
// code (and the env package) can build the paper's open-loop serving
// structures purely in facade vocabulary: a PoissonSource feeds Requests
// to a WorkerPool of simulated threads, and a LatencyRecorder accumulates
// arrival-to-completion latency.
type (
	// Request is one unit of work flowing through a workload.
	Request = workload.Request
	// ServiceDist draws request service times.
	ServiceDist = workload.ServiceDist
	// FixedService is a constant service time.
	FixedService = workload.Fixed
	// ExponentialService draws exponential service times with the given
	// mean.
	ExponentialService = workload.Exponential
	// BimodalService is the dispersive two-point distribution of §4.2.
	BimodalService = workload.Bimodal
	// PoissonSource is an open-loop arrival generator.
	PoissonSource = workload.PoissonSource
	// WorkerPool is the §4.2 serving structure: blocked worker threads
	// each serving one request at a time.
	WorkerPool = workload.WorkerPool
	// LatencyRecorder accumulates request latency and throughput.
	LatencyRecorder = workload.LatencyRecorder
)

// RocksDBService returns the §4.2 bimodal RocksDB request mix (99.5 %
// ~10 µs, 0.5 % ~10 ms).
var RocksDBService = workload.RocksDBService

// Spinner returns a CPU-bound antagonist thread body running forever in
// chunk-sized slices.
var Spinner = workload.Spinner

// FiniteSpinner returns a thread body that runs total CPU work in
// chunk-sized slices, then calls onDone and exits.
var FiniteSpinner = workload.FiniteSpinner

// NewPoissonSource attaches an open-loop generator to the machine's
// event queue: rate requests/second with the given service distribution,
// each delivered to sink at its arrival time.
func (m *Machine) NewPoissonSource(r *Rand, rate float64, service ServiceDist, sink func(*Request)) *PoissonSource {
	return workload.NewPoissonSource(m.eng, r, rate, service, sink)
}

// NewWorkerPool spawns n worker threads via the given spawner (which
// chooses the scheduling class — see Machine.Spawn and ThreadOpts.Class)
// and returns the pool; submit requests with Pool.Submit.
func (m *Machine) NewWorkerPool(n int, rec *LatencyRecorder, spawn func(name string, body ThreadFunc) *Thread) *WorkerPool {
	return workload.NewWorkerPool(m.k, n, rec, spawn)
}

// SpawnSpinner spawns a snapshot-capable CPU-bound antagonist: a
// Spinner body with its descriptor attached, so the thread is re-created
// (mid-chunk) when the machine is restored from a snapshot.
func (m *Machine) SpawnSpinner(o ThreadOpts, chunk Duration) *Thread {
	th := m.Spawn(o, workload.Spinner(chunk))
	th.SetBodyDesc(workload.SpinnerDesc(chunk))
	return th
}

// NewWorkerPoolShell builds an empty worker pool for snapshot restore
// (see WithRestoredComponent): no workers are spawned — they are rebuilt
// from the snapshot's thread records and re-adopted by the pool — and
// the pool's serialized state is overlaid afterwards. rec may be nil for
// a fresh recorder. Most restores don't need this: pools restore through
// their registered factory; supply a shell only to re-attach live wiring
// such as DoneRebinder or a shared recorder.
func (m *Machine) NewWorkerPoolShell(rec *LatencyRecorder) *WorkerPool {
	return workload.NewPoolShell(m.k, rec)
}

// NewPoissonShell builds an unarmed Poisson source for snapshot restore:
// rate, service distribution, random-stream state and arming ride in the
// snapshot and are overlaid afterwards; only the sink closure — which a
// byte stream cannot carry — comes from the caller. A machine with a
// Poisson source component must be restored with a
// WithRestoredComponent factory that calls this.
func (m *Machine) NewPoissonShell(sink func(*Request)) *PoissonSource {
	return workload.NewPoissonShell(m.eng, sink)
}
