package tune

import (
	"sort"

	"ghost"
	"ghost/internal/sim"
	"ghost/internal/tunable"
)

// The built-in scenarios evaluate the retrofitted tunable policies on
// facade-built simulations (they deliberately use only the public ghost
// API, like external tuning code would).

// applyParams pushes params into a policy's tunable set in sorted name
// order; nil params leave the policy at factory defaults.
func applyParams(set *tunable.Set, params map[string]float64) {
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := set.Set(n, params[n]); err != nil {
			panic(err)
		}
	}
}

// serve runs an open-loop pool of enclave worker threads against a
// Poisson arrival process and reports the tail objective. warmup is a
// fifth of the horizon.
func serve(m *ghost.Machine, workers int, affinity ghost.CPUMask,
	class func() ghost.ThreadClass, seed uint64, rate float64,
	svc ghost.ServiceDist, horizon sim.Duration) Objective {
	warm := ghost.Time(horizon / 5)
	rec := &ghost.LatencyRecorder{WarmupUntil: warm}
	pool := m.NewWorkerPool(workers, rec, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Affinity: affinity, Class: class()}, body)
	})
	src := m.NewPoissonSource(ghost.NewRand(seed), rate, svc, pool.Submit)
	src.Until = ghost.Time(horizon)
	m.Run(horizon)
	return Objective{P99: rec.Hist.P99(), Throughput: rec.Throughput(m.Now())}
}

// shinjukuRocksDB tunes the §4.2 policy's timeslice and commit batching
// on the RocksDB workload near saturation.
var shinjukuRocksDB = Scenario{
	Name:  "shinjuku-rocksdb",
	Doc:   "Shinjuku slice/batching on RocksDB at 250 kreq/s (Fig 6 setup)",
	Space: func() *tunable.Set { return ghost.NewShinjukuPolicy().Tunables() },
	Run: func(params map[string]float64, seed uint64, horizon sim.Duration) Objective {
		m := ghost.NewMachine(ghost.XeonE5())
		defer m.Shutdown()
		// CPU 0 hosts the global agent; 1..20 serve requests.
		enc := m.NewEnclave(ghost.MaskAll(21))
		pol := ghost.NewShinjukuPolicy()
		applyParams(pol.Tunables(), params)
		m.StartAgents(enc, pol, ghost.Global())
		return serve(m, 200, ghost.CPUMask{}, func() ghost.ThreadClass { return ghost.Ghost(enc) },
			seed, 250_000, ghost.RocksDBService(), horizon)
	},
}

// fifoSnap tunes the banded FIFO's round-robin quantum and lower-band
// preemption with antagonists sharing the enclave (§4.3 shape).
var fifoSnap = Scenario{
	Name:  "fifo-snap",
	Doc:   "banded FIFO quantum/preemption vs in-enclave antagonists",
	Space: func() *tunable.Set { return ghost.NewFIFOPolicy().Tunables() },
	Run: func(params map[string]float64, seed uint64, horizon sim.Duration) Objective {
		m := ghost.NewMachine(ghost.XeonE5())
		defer m.Shutdown()
		// CPU 0 hosts the agent; 1..8 serve workers and antagonists.
		enc := m.NewEnclave(ghost.MaskAll(9))
		pol := ghost.NewBandedFIFOPolicy(2, func(t *ghost.Thread) int {
			if t.Name() == "antagonist" {
				return 1
			}
			return 0
		}, false)
		applyParams(pol.Tunables(), params)
		m.StartAgents(enc, pol, ghost.Global())
		for i := 0; i < 4; i++ {
			m.Spawn(ghost.ThreadOpts{Name: "antagonist", Class: ghost.Ghost(enc)},
				ghost.Spinner(50*ghost.Microsecond))
		}
		return serve(m, 32, ghost.CPUMask{}, func() ghost.ThreadClass { return ghost.Ghost(enc) },
			seed, 150_000, ghost.ExponentialService(20*ghost.Microsecond), horizon)
	},
}

// microQuanta tunes the kernel soft real-time class's period and quanta
// for workers contending with CFS antagonists (§4.3 Snap setup without
// ghOSt).
var microQuanta = Scenario{
	Name: "microquanta",
	Doc:  "MicroQuanta period/quanta for workers vs CFS antagonists",
	Space: func() *tunable.Set {
		m := ghost.NewMachine(ghost.XeonE5())
		defer m.Shutdown()
		return m.MicroQuanta.Tunables()
	},
	Run: func(params map[string]float64, seed uint64, horizon sim.Duration) Objective {
		m := ghost.NewMachine(ghost.XeonE5())
		defer m.Shutdown()
		applyParams(m.MicroQuanta.Tunables(), params)
		cpus := ghost.MaskAll(8)
		for i := 0; i < 8; i++ {
			m.Spawn(ghost.ThreadOpts{Name: "antagonist", Affinity: cpus},
				ghost.Spinner(50*ghost.Microsecond))
		}
		return serve(m, 16, cpus, func() ghost.ThreadClass { return ghost.MicroQuanta },
			seed, 100_000, ghost.ExponentialService(25*ghost.Microsecond), horizon)
	},
}

// Scenarios returns the built-in scenarios sorted by name.
func Scenarios() []Scenario {
	return []Scenario{fifoSnap, microQuanta, shinjukuRocksDB}
}

// ByName finds a built-in scenario; ok is false if unknown.
func ByName(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
