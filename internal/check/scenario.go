package check

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ghost/internal/agentsdk"
	"ghost/internal/faults"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
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
		return policies.NewCentralFIFO()
	case "shinjuku":
		return policies.NewShinjuku()
	case "search":
		return policies.NewSearch()
	case "coresched":
		return policies.NewCoreSched(func(t *kernel.Thread) int {
			if vm, ok := t.Tag.(int); ok {
				return vm
			}
			return -1
		})
	case "percpu-fifo":
		return policies.NewPerCPUFIFO()
	}
	panic("check: no policy " + s.Policy)
}

// Result is the outcome of running a scenario under the oracles.
type Result struct {
	Scenario   Scenario
	Violations []Violation
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// rig is one constructed scenario machine, with every handle the
// checkpoint/rewind machinery needs (scenario.Run keeps none of this).
type rig struct {
	topo *hw.Topology
	cm   hw.CostModel

	eng *sim.Engine
	k   *kernel.Kernel
	ac  *kernel.AgentClass
	mq  *kernel.MicroQuanta
	cfs *kernel.CFS
	g   *ghostcore.Class
}

// buildShell constructs the scenario's machine skeleton — topology,
// engine, kernel, scheduling classes, seeded mutation — with no
// checker, enclaves or threads yet. Both the forward run and a snapshot
// restore start from this exact shell.
func (s Scenario) buildShell() *rig {
	if s.CPUs < 2 {
		s.CPUs = 2
	}
	rg := &rig{cm: hw.DefaultCostModel()}
	rg.topo = hw.NewTopology(hw.Config{
		Name: "check", Sockets: 1, CCXsPerSocket: 1,
		CoresPerCCX: s.CPUs / 2, SMTWidth: 2,
	})
	rg.eng = sim.NewEngine()
	rg.k = kernel.New(rg.eng, rg.topo, rg.cm)
	rg.ac = kernel.NewAgentClass(rg.k)
	rg.mq = kernel.NewMicroQuanta(rg.k)
	rg.cfs = kernel.NewCFS(rg.k)
	rg.g = ghostcore.NewClass(rg.k, rg.cfs)
	applyMutation(rg.g, s.Mutation)
	return rg
}

// attach wires a fresh Checker (Default oracles plus test extras) onto
// the rig. Called before populate on a forward run, and after snap.Load
// on a rewind — oracles must never observe construction-time noise that
// a restore overlay erases.
func (s Scenario) attach(rg *rig) *Checker {
	ck := Attach(rg.k, rg.g, append(Default(), testExtraOracles...)...)
	if th := s.Horizon / 2; th > ck.LostThreshold {
		ck.LostThreshold = th
	}
	return ck
}

// populate spawns the scenario's enclave, agents and workload onto the
// shell, returning the started agent sets (the snapshot walk needs
// them). Every thread body carries a descriptor, so fault-free scenarios
// are snapshot-capable.
func (s Scenario) populate(rg *rig) []*agentsdk.AgentSet {
	r := sim.NewRand(s.Seed ^ 0x9E3779B97F4A7C15) // runtime stream, distinct from Generate's
	nVMs := 2 + r.Intn(3)

	var sets []*agentsdk.AgentSet
	var enc *ghostcore.Enclave
	if s.ghostPolicy() {
		enc = ghostcore.NewEnclave(rg.g, kernel.MaskAll(s.CPUs))
		if s.Watchdog > 0 {
			enc.EnableWatchdog(s.Watchdog)
		}
		if s.FaultSpec != "" {
			plan, err := faults.ParsePlan(s.FaultSpec, s.Seed)
			if err != nil {
				panic(fmt.Sprintf("check: bad fault spec %q: %v", s.FaultSpec, err))
			}
			rg.k.SetFaults(faults.NewInjector(rg.eng, plan))
		}
		opts := []agentsdk.Option{
			agentsdk.WithUpgradePolicy(func() any { return s.newPolicy() }),
		}
		sets = append(sets, agentsdk.Start(rg.k, enc, rg.ac, s.newPolicy(), opts...))
	}

	// Workload: each thread runs short bursts and sleeps/yields, driven
	// by its own forked random stream.
	for i := 0; i < s.Threads; i++ {
		wr := r.Fork()
		burst := 5 + r.Intn(96)
		body := workerBody(wr, burst, false)
		so := kernel.SpawnOpts{Name: fmt.Sprintf("w%d", i)}
		var th *kernel.Thread
		switch {
		case s.Policy == "cfs":
			so.Class = rg.cfs
			th = rg.k.Spawn(so, body)
		case s.Policy == "microquanta":
			so.Class = rg.mq
			th = rg.k.Spawn(so, body)
		default:
			if s.Policy == "coresched" {
				so.Tag = i % nVMs
			}
			th = enc.SpawnThread(so, body)
		}
		th.SetBodyDesc(&kernel.BodyDesc{Kind: "check.worker", Args: []int64{int64(burst)}, Rand: wr})
	}
	// CFS noise threads compete with the enclave for CPUs (§3.4: any CFS
	// thread preempts ghOSt), exercising the cpu-taken install paths.
	for i := 0; i < 1+r.Intn(2); i++ {
		nr := r.Fork()
		th := rg.k.Spawn(kernel.SpawnOpts{Name: fmt.Sprintf("noise%d", i), Class: rg.cfs},
			noiseBody(nr, false))
		th.SetBodyDesc(&kernel.BodyDesc{Kind: "check.noise", Rand: nr})
	}
	return sets
}

// Run executes the scenario under the Default oracle set and returns the
// collected violations. The run is fully deterministic in the scenario.
func (s Scenario) Run() *Result {
	rg := s.buildShell()
	ck := s.attach(rg)
	s.populate(rg)
	rg.eng.RunFor(s.Horizon)
	ck.Finish(rg.eng.Now())
	rg.k.Shutdown()
	return &Result{Scenario: s, Violations: ck.Violations()}
}

// loopBody is a resumable two-step loop: issue a burst, then park, then
// a burst again. inRun is its whole resume state: the burst has been
// issued, so the park comes next. Every random draw happens at the
// resume point that uses it.
type loopBody struct {
	r     *sim.Rand
	burst func(tc *kernel.TaskContext, r *sim.Rand) kernel.Op
	park  func(tc *kernel.TaskContext, r *sim.Rand) kernel.Op
	inRun bool
}

func (b *loopBody) resume(tc *kernel.TaskContext) kernel.Op {
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
func workerBody(r *sim.Rand, maxBurstUS int, inRun bool) kernel.ThreadFunc {
	b := &loopBody{r: r, inRun: inRun, park: workerPark,
		burst: func(tc *kernel.TaskContext, r *sim.Rand) kernel.Op {
			return tc.Run(sim.Duration(1+r.Intn(maxBurstUS)) * sim.Microsecond)
		}}
	return b.resume
}

// workerPark is the tail of one worker iteration: the branch draw and
// the park (or yield) it selects.
func workerPark(tc *kernel.TaskContext, r *sim.Rand) kernel.Op {
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
func noiseBody(r *sim.Rand, inRun bool) kernel.ThreadFunc {
	b := &loopBody{r: r, inRun: inRun,
		burst: func(tc *kernel.TaskContext, r *sim.Rand) kernel.Op {
			return tc.Run(sim.Duration(5+r.Intn(45)) * sim.Microsecond)
		},
		park: func(tc *kernel.TaskContext, r *sim.Rand) kernel.Op {
			return tc.Sleep(sim.Duration(200+r.Intn(800)) * sim.Microsecond)
		}}
	return b.resume
}

func applyMutation(g *ghostcore.Class, name string) {
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

// testExtraOracles is appended to the Default set by Run; tests use it
// to instrument scenarios.
var testExtraOracles []Oracle
