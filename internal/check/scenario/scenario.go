// Package scenario is the property-based scenario runner behind
// ghost-check: it generates random but seed-deterministic scenarios
// (Generate), runs each on a machine built through the ghost facade with
// the internal/check oracles attached (ghost.WithInvariants), shrinks a
// failing scenario by deterministic bisection to a minimal repro
// runnable with `ghost-check -repro`, and rewinds one from a checkpoint
// through ghost.Restore.
package scenario

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ghost"
	"ghost/internal/check"
	"ghost/internal/faults"
	"ghost/internal/sim"
)

// Policies a scenario can draw, including the non-ghOSt baselines (which
// exercise the kernel without enclaves; oracles must stay silent there).
var policyNames = []string{
	"central-fifo", "shinjuku", "search", "coresched", "percpu-fifo",
	"cfs", "microquanta",
}

// policyDeck weights the draw toward ghOSt policies, which is where the
// protocol invariants live.
var policyDeck = []string{
	"central-fifo", "central-fifo", "shinjuku", "shinjuku", "search",
	"coresched", "percpu-fifo", "percpu-fifo", "cfs", "microquanta",
}

// Scenario is one randomly generated but fully deterministic simulation:
// everything Run needs is in the exported fields, so a scenario
// round-trips through its Repro string.
type Scenario struct {
	Seed     uint64
	Policy   string
	CPUs     int // enclave width == machine width (SMT pairs stay inside)
	Threads  int
	Horizon  sim.Duration
	Watchdog sim.Duration // 0 = no watchdog
	// FaultSpec is an internal/faults ParsePlan spec, "" for none.
	FaultSpec string
	// Mutation names an intentionally seeded protocol bug
	// (skip-tseq | drop-wakeup | double-latch), "" for none.
	Mutation string
}

// Generate derives a scenario from seed using only sim.Rand, so the same
// seed always yields the same scenario on every platform.
func Generate(seed uint64) Scenario {
	r := sim.NewRand(seed)
	s := Scenario{
		Seed:    seed,
		Policy:  policyDeck[r.Intn(len(policyDeck))],
		CPUs:    []int{2, 4, 8}[r.Intn(3)],
		Threads: 2 + r.Intn(15),
		Horizon: sim.Duration(20+5*r.Intn(5)) * sim.Millisecond,
	}
	if s.ghostPolicy() {
		if r.Intn(2) == 0 {
			s.Watchdog = 10 * sim.Millisecond
		}
		s.FaultSpec = genFaults(r, s.Horizon)
	}
	return s
}

func (s Scenario) ghostPolicy() bool {
	return s.Policy != "cfs" && s.Policy != "microquanta"
}

// genFaults draws 0-3 fault ops with µs-granular times so the spec
// round-trips byte-identically through faults.ParsePlan/String.
func genFaults(r *sim.Rand, horizon sim.Duration) string {
	n := r.Intn(4)
	if n == 0 {
		return ""
	}
	p := faults.NewPlan(0)
	usWithin := func(lo, hi int) sim.Duration {
		return sim.Duration(lo+r.Intn(hi-lo+1)) * sim.Microsecond
	}
	span := int(horizon / sim.Microsecond * 4 / 5)
	for i := 0; i < n; i++ {
		at := usWithin(100, span)
		switch r.Intn(10) {
		case 0:
			p.Crash(at)
		case 1:
			p.Upgrade(at)
		case 2:
			p.Stall(at, usWithin(200, 2000))
		case 3:
			p.Slow(at, usWithin(200, 2000), float64(2+r.Intn(3)))
		case 4, 5:
			p.DropMsgs(at, usWithin(200, 2000), 0.2+0.1*float64(r.Intn(7)))
		case 6:
			p.DelayMsgs(at, usWithin(200, 2000), usWithin(20, 200))
		case 7:
			p.DupMsgs(at, usWithin(200, 2000), 0.2+0.1*float64(r.Intn(7)))
		case 8:
			p.DelayIPIs(at, usWithin(200, 2000), usWithin(5, 30))
		case 9:
			if r.Intn(2) == 0 {
				p.LoseIPIs(at, usWithin(200, 2000), 0.2+0.1*float64(r.Intn(7)))
			} else {
				p.FailTxns(at, usWithin(200, 1000), 0.2+0.1*float64(r.Intn(7)))
			}
		}
	}
	return p.String()
}

// FaultOps returns how many fault operations the scenario injects.
func (s Scenario) FaultOps() int {
	if s.FaultSpec == "" {
		return 0
	}
	return strings.Count(s.FaultSpec, ",") + 1
}

// newPolicy instantiates the scenario's policy (fresh instance per call:
// upgrade generations must not share state).
func (s Scenario) newPolicy() any {
	switch s.Policy {
	case "central-fifo":
		return ghost.NewFIFOPolicy()
	case "shinjuku":
		return ghost.NewShinjukuPolicy()
	case "search":
		return ghost.NewSearchPolicy()
	case "coresched":
		return ghost.NewCoreSchedPolicy(func(t *ghost.Thread) int {
			if vm, ok := t.Tag.(int); ok {
				return vm
			}
			return -1
		})
	case "percpu-fifo":
		return ghost.NewPerCPUFIFOPolicy()
	}
	panic("check: no policy " + s.Policy)
}

// Result is the outcome of running a scenario under the oracles.
type Result struct {
	Scenario   Scenario
	Violations []check.Violation
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// build constructs the scenario's machine through the facade — the same
// NewMachine/WithInvariants path every other caller uses — with the
// seeded mutation applied and the enclave, agents and workload spawned.
// Every thread body is a registered kind, so fault-free scenarios are
// snapshot-capable.
func (s Scenario) build(opts ...ghost.MachineOption) *ghost.Machine {
	if s.CPUs < 2 {
		s.CPUs = 2
	}
	topo := ghost.NewTopology(ghost.TopologyConfig{
		Name: "check", Sockets: 1, CCXsPerSocket: 1,
		CoresPerCCX: s.CPUs / 2, SMTWidth: 2,
	})
	m := ghost.NewMachine(topo, append([]ghost.MachineOption{ghost.WithoutMetrics(), ghost.WithInvariants()}, opts...)...)
	applyMutation(m.Ghost, s.Mutation)
	s.setLostThreshold(m.Invariants())

	r := sim.NewRand(s.Seed ^ 0x9E3779B97F4A7C15) // runtime stream, distinct from Generate's
	nVMs := 2 + r.Intn(3)

	var enc *ghost.Enclave
	if s.ghostPolicy() {
		var eopts []ghost.EnclaveOption
		if s.Watchdog > 0 {
			eopts = append(eopts, ghost.WithWatchdog(s.Watchdog))
		}
		enc = m.NewEnclave(ghost.MaskAll(s.CPUs), eopts...)
		if s.FaultSpec != "" {
			// The injector posts its events when built: after the enclave
			// and watchdog, before the agents (so not via ghost.WithFaults).
			plan, err := faults.ParsePlan(s.FaultSpec, s.Seed)
			if err != nil {
				panic(fmt.Sprintf("check: bad fault spec %q: %v", s.FaultSpec, err))
			}
			k := m.Kernel()
			k.SetFaults(faults.NewInjector(k.Scheduler(), plan))
		}
		m.StartAgents(enc, s.newPolicy(), ghost.WithUpgradePolicy(func() any { return s.newPolicy() }))
	}

	// Workload: each thread runs short bursts and sleeps/yields, driven
	// by its own random stream (seeded as r.Fork would).
	for i := 0; i < s.Threads; i++ {
		seed := r.Uint64()
		burst := 5 + r.Intn(96)
		o := ghost.ThreadOpts{Name: fmt.Sprintf("w%d", i)}
		switch s.Policy {
		case "cfs": // the zero Class
		case "microquanta":
			o.Class = ghost.MicroQuanta
		default:
			o.Class = ghost.Ghost(enc)
			if s.Policy == "coresched" {
				o.Tag = i % nVMs
			}
		}
		spawnBody(m, o, "check.worker", seed, int64(burst))
	}
	// CFS noise threads compete with the enclave for CPUs (§3.4: any CFS
	// thread preempts ghOSt), exercising the cpu-taken install paths.
	for i := 0; i < 1+r.Intn(2); i++ {
		spawnBody(m, ghost.ThreadOpts{Name: fmt.Sprintf("noise%d", i)}, "check.noise", r.Uint64())
	}
	return m
}

// setLostThreshold widens the no-lost-thread threshold to half the horizon.
func (s Scenario) setLostThreshold(ck *check.Checker) {
	if th := s.Horizon / 2; th > ck.LostThreshold {
		ck.LostThreshold = th
	}
}

func spawnBody(m *ghost.Machine, o ghost.ThreadOpts, kind string, seed uint64, args ...int64) {
	if _, err := m.SpawnBody(o, kind, seed, args...); err != nil {
		panic("check: " + err.Error())
	}
}

// Run executes the scenario under the Default oracle set and returns the
// collected violations. The run is fully deterministic in the scenario.
func (s Scenario) Run() *Result {
	m := s.build()
	m.Run(s.Horizon)
	m.Shutdown()
	return &Result{Scenario: s, Violations: m.Invariants().Violations()}
}

func init() {
	ghost.RegisterBody("check.worker", func(_ *ghost.Machine, args []int64, r *ghost.Rand, res ghost.BodyResume) (ghost.ThreadFunc, error) {
		if len(args) != 1 || r == nil {
			return nil, fmt.Errorf("check.worker wants 1 arg and a random stream, got %d args", len(args))
		}
		return workerBody(r, int(args[0]), res.InRun), nil
	})
	ghost.RegisterBody("check.noise", func(_ *ghost.Machine, _ []int64, r *ghost.Rand, res ghost.BodyResume) (ghost.ThreadFunc, error) {
		if r == nil {
			return nil, errors.New("check.noise wants a random stream")
		}
		return noiseBody(r, res.InRun), nil
	})
}

// loopBody is a resumable two-step loop: issue a burst, then park, then
// a burst again. inRun is its whole resume state: the burst has been
// issued, so the park comes next. Every random draw happens at the
// resume point that uses it.
type loopBody struct {
	r     *sim.Rand
	burst func(tc *ghost.Task, r *sim.Rand) ghost.Op
	park  func(tc *ghost.Task, r *sim.Rand) ghost.Op
	inRun bool
}

func (b *loopBody) resume(tc *ghost.Task) ghost.Op {
	if b.inRun {
		b.inRun = false
		return b.park(tc, b.r)
	}
	b.inRun = true
	return b.burst(tc, b.r)
}

// workerBody is a deterministic run/sleep/yield loop; maxBurstUS bounds
// the service time in microseconds. inRun rebuilds a worker that a
// snapshot caught in its burst (the overlay restores the remaining
// service time; a sleep's wake-up is re-filed as a pending event).
func workerBody(r *sim.Rand, maxBurstUS int, inRun bool) ghost.ThreadFunc {
	b := &loopBody{r: r, inRun: inRun, park: workerPark,
		burst: func(tc *ghost.Task, r *sim.Rand) ghost.Op {
			return tc.Run(sim.Duration(1+r.Intn(maxBurstUS)) * sim.Microsecond)
		}}
	return b.resume
}

// workerPark is the tail of one worker iteration: the branch draw and
// the park (or yield) it selects.
func workerPark(tc *ghost.Task, r *sim.Rand) ghost.Op {
	switch r.Intn(4) {
	case 0, 1:
		return tc.Sleep(sim.Duration(20+r.Intn(200)) * sim.Microsecond)
	case 2:
		return tc.Yield()
	default:
		return tc.Sleep(sim.Duration(1+r.Intn(20)) * sim.Microsecond)
	}
}

// noiseBody keeps CFS load light (short bursts, long sleeps) so the
// enclave is perturbed but never starved. inRun is as for workerBody.
func noiseBody(r *sim.Rand, inRun bool) ghost.ThreadFunc {
	b := &loopBody{r: r, inRun: inRun,
		burst: func(tc *ghost.Task, r *sim.Rand) ghost.Op {
			return tc.Run(sim.Duration(5+r.Intn(45)) * sim.Microsecond)
		},
		park: func(tc *ghost.Task, r *sim.Rand) ghost.Op {
			return tc.Sleep(sim.Duration(200+r.Intn(800)) * sim.Microsecond)
		}}
	return b.resume
}

func applyMutation(g *ghost.GhostClass, name string) {
	switch name {
	case "":
	case "skip-tseq":
		g.Mut.SkipTseqBump = true
	case "drop-wakeup":
		g.Mut.DropWakeup = true
	case "double-latch":
		g.Mut.DoubleLatch = true
	default:
		panic("check: unknown mutation " + name)
	}
}

// Mutations lists the seeded protocol bugs the mutation tests exercise.
func MutationNames() []string { return []string{"skip-tseq", "drop-wakeup", "double-latch"} }

// Repro renders the scenario as the argument of `ghost-check -repro`.
// Rendering is byte-stable: Generate/ParseRepro/Repro round-trip.
func (s Scenario) Repro() string {
	parts := []string{
		"seed=" + strconv.FormatUint(s.Seed, 10),
		"policy=" + s.Policy,
		"cpus=" + strconv.Itoa(s.CPUs),
		"threads=" + strconv.Itoa(s.Threads),
		"horizon=" + reproDur(s.Horizon),
	}
	if s.Watchdog > 0 {
		parts = append(parts, "watchdog="+reproDur(s.Watchdog))
	}
	if s.FaultSpec != "" {
		parts = append(parts, "faults="+s.FaultSpec)
	}
	if s.Mutation != "" {
		parts = append(parts, "mutate="+s.Mutation)
	}
	return strings.Join(parts, " ")
}

// ParseRepro parses a Repro string back into a scenario.
func ParseRepro(spec string) (Scenario, error) {
	s := Scenario{CPUs: 2, Threads: 2, Horizon: 20 * sim.Millisecond}
	for _, field := range strings.Fields(spec) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return s, fmt.Errorf("check: bad repro field %q", field)
		}
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseUint(val, 10, 64)
		case "policy":
			if !validPolicy(val) {
				err = fmt.Errorf("unknown policy %q (have %s)", val, strings.Join(policyNames, ", "))
			}
			s.Policy = val
		case "cpus":
			// The machine is built from SMT pairs (buildShell).
			if s.CPUs, err = strconv.Atoi(val); err == nil && (s.CPUs < 2 || s.CPUs%2 != 0) {
				err = fmt.Errorf("want an even count of at least 2")
			}
		case "threads":
			if s.Threads, err = strconv.Atoi(val); err == nil && s.Threads < 1 {
				err = fmt.Errorf("want at least 1")
			}
		case "shards":
			// Repro strings from before the simulator had one event queue
			// per machine carry the queue count; it never changed a run.
			_, err = strconv.Atoi(val)
		case "horizon":
			if s.Horizon, err = parseDur(val); err == nil && s.Horizon <= 0 {
				err = fmt.Errorf("horizon must be positive")
			}
		case "watchdog":
			if s.Watchdog, err = parseDur(val); err == nil && s.Watchdog < 0 {
				err = fmt.Errorf("negative watchdog")
			}
		case "faults":
			_, err = faults.ParsePlan(val, 0)
			s.FaultSpec = val
		case "mutate":
			if val != "" && !contains(MutationNames(), val) {
				err = fmt.Errorf("unknown mutation %q", val)
			}
			s.Mutation = val
		default:
			err = fmt.Errorf("unknown key")
		}
		if err != nil {
			return s, fmt.Errorf("check: repro field %q: %v", field, err)
		}
	}
	if s.Policy == "" {
		return s, fmt.Errorf("check: repro %q missing policy=", spec)
	}
	return s, nil
}

func validPolicy(name string) bool { return contains(policyNames, name) }

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// reproDur renders d in the sim package's rounded engineering units
// when those parse back to exactly d, and in whole nanoseconds when they
// would not (5ms prints as "5.000ms", 1000500ns as "1000500ns").
func reproDur(d sim.Duration) string {
	s := d.String()
	if back, err := parseDur(s); err == nil && back == d {
		return s
	}
	return strconv.FormatInt(int64(d), 10) + "ns"
}

// parseDur parses Go duration syntax (including the "us" spelling the
// sim package emits) into a sim.Duration.
func parseDur(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return sim.Duration(d.Nanoseconds()), nil
}
