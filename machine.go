package ghost

import (
	"io"

	"ghost/internal/agentsdk"
	"ghost/internal/check"
	"ghost/internal/faults"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/snap"
	"ghost/internal/trace"
)

// Machine is a simulated host: engine, kernel, the standard scheduling
// class stack (agents > MicroQuanta > CFS > ghOSt), and helpers to build
// enclaves, agents, and threads. It is the top-level object of the
// public API.
type Machine struct {
	eng *sim.Engine // the machine's one event queue
	k   *kernel.Kernel
	tr  *trace.Tracer
	inv *check.Checker

	// Snapshot bookkeeping: live agent generations and registered
	// components, in creation order; periodic-checkpoint state.
	sets        []*agentsdk.AgentSet
	comps       []snap.ComponentEntry
	snapEvery   sim.Duration
	nextCk      sim.Time
	checkpoints []*Snapshot
	snapSkips   int

	// CFS is the default scheduler; threads spawned with the zero
	// ThreadOpts.Class run under it.
	CFS *CFSClass
	// MicroQuanta is the soft real-time class of §4.3.
	MicroQuanta *MicroQuantaClass
	// Agents is the top-priority class hosting ghOSt agents.
	Agents *AgentRunnerClass
	// Ghost is the ghOSt scheduling class.
	Ghost *GhostClass
}

// machineConfig collects the effects of MachineOptions.
type machineConfig struct {
	cost          hw.CostModel
	noMicroQuanta bool
	tracer        *trace.Tracer
	plan          *faults.Plan
	oracles       []check.Oracle
	snapEvery     sim.Duration
	restoreComps  map[string]func(*Machine) (SnapshotComponent, error)
}

// MachineOption customizes NewMachine. Options are applied in order;
// later options win.
type MachineOption func(*machineConfig)

// WithCostModel overrides the default (Table 3) cost model.
func WithCostModel(cm CostModel) MachineOption {
	return func(c *machineConfig) { c.cost = cm }
}

// WithTrace attaches a full event tracer (see NewTracer): every context
// switch, message, transaction and agent span is recorded, for export
// with Machine.TraceTo. Without this option the machine still keeps
// aggregate Metrics, but records no events.
func WithTrace(tr *Tracer) MachineOption {
	return func(c *machineConfig) { c.tracer = tr }
}

// WithoutMicroQuanta omits the MicroQuanta class from the stack.
func WithoutMicroQuanta() MachineOption {
	return func(c *machineConfig) { c.noMicroQuanta = true }
}

// WithoutMetrics disables even aggregate metrics collection, detaching
// the tracer entirely. This is the true zero-instrumentation baseline
// used by the overhead benchmarks.
func WithoutMetrics() MachineOption {
	return func(c *machineConfig) { c.tracer = nil }
}

// WithFaults installs a deterministic fault-injection plan (§3.4): a
// seeded schedule of agent crashes, stalls, message drops/delays, IPI
// loss, transaction failures, and forced upgrades. Every injected fault
// is counted in Metrics.Faults and, under WithTrace, recorded on the
// "faults" track.
func WithFaults(p *FaultPlan) MachineOption {
	return func(c *machineConfig) { c.plan = p }
}

// WithInvariants attaches the internal/check invariant checker to the
// machine: the given oracles observe every protocol event online and
// record violations, retrievable via Machine.Invariants. With no
// arguments the full DefaultInvariants set is attached.
func WithInvariants(oracles ...InvariantOracle) MachineOption {
	return func(c *machineConfig) {
		if len(oracles) == 0 {
			oracles = check.Default()
		}
		c.oracles = oracles
	}
}

// NewMachine builds a machine with the full class stack on the given
// topology. By default the machine collects aggregate scheduling
// metrics (Machine.Metrics); add WithTrace to also record a
// Perfetto-loadable event trace.
func NewMachine(topo *Topology, opts ...MachineOption) *Machine {
	cfg := machineConfig{
		cost:   hw.DefaultCostModel(),
		tracer: trace.NewMetricsOnly(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	m := &Machine{eng: sim.NewEngine(), tr: cfg.tracer}
	k := kernel.New(m.eng, topo, cfg.cost)
	m.k = k
	k.SetTracer(cfg.tracer)
	m.Agents = kernel.NewAgentClass(k)
	if !cfg.noMicroQuanta {
		m.MicroQuanta = kernel.NewMicroQuanta(k)
	}
	m.CFS = kernel.NewCFS(k)
	m.Ghost = ghostcore.NewClass(k, m.CFS)
	if len(cfg.oracles) > 0 {
		m.inv = check.Attach(k, m.Ghost, cfg.oracles...)
	}
	if cfg.plan != nil {
		k.SetFaults(faults.NewInjector(m.eng, cfg.plan))
	}
	if cfg.snapEvery > 0 {
		m.snapEvery = cfg.snapEvery
		m.nextCk = sim.Time(cfg.snapEvery)
	}
	return m
}

// Kernel exposes the underlying simulated kernel.
func (m *Machine) Kernel() *Kernel { return m.k }

// Topology returns the machine topology.
func (m *Machine) Topology() *Topology { return m.k.Topology() }

// Tracer returns the machine's tracer (nil with WithoutMetrics).
func (m *Machine) Tracer() *Tracer { return m.tr }

// Metrics returns a snapshot of the aggregate scheduling metrics
// collected so far: context switches, wakeups, IPIs, and per-enclave
// message/transaction/agent latency histograms. Returns an empty
// snapshot when metrics are disabled.
func (m *Machine) Metrics() *Metrics {
	ms := m.tr.Metrics()
	// The engine meters itself; its counts are authoritative regardless
	// of tracer mode.
	ms.EngineEvents = m.eng.Executed
	ms.EngineMaxQueue = m.eng.MaxQueue
	return ms
}

// TraceTo writes the recorded event trace as Chrome trace_event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. The
// machine must have been built with WithTrace for events to be present;
// otherwise the output is a valid but empty trace.
func (m *Machine) TraceTo(w io.Writer) error { return m.tr.WriteJSON(w) }

// Now returns the current simulated time.
func (m *Machine) Now() Time { return m.eng.Now() }

// Run advances simulated time by d.
func (m *Machine) Run(d Duration) { m.RunUntil(m.Now() + d) }

// RunUntil advances simulated time to the absolute instant t. With
// WithSnapshotEvery, the run is chunked at checkpoint boundaries and a
// snapshot is taken at each (retrievable via Checkpoints).
func (m *Machine) RunUntil(t Time) {
	for {
		stop := t
		if m.snapEvery > 0 && m.nextCk < stop {
			stop = m.nextCk
		}
		m.eng.RunUntil(stop)
		if m.snapEvery > 0 && m.Now() >= m.nextCk {
			if s, err := m.Snapshot(); err == nil {
				m.checkpoints = append(m.checkpoints, s)
			} else {
				m.snapSkips++
			}
			m.nextCk += sim.Time(m.snapEvery)
		}
		if m.Now() >= t {
			return
		}
	}
}

// Shutdown finalizes the invariant checker (if attached) and unwinds
// all simulated threads; call when done (defer it).
func (m *Machine) Shutdown() {
	if m.inv != nil {
		m.inv.Finish(m.eng.Now())
	}
	m.k.Shutdown()
}

// Invariants returns the invariant checker attached with WithInvariants,
// nil otherwise. End-of-run oracles only report after Shutdown (or an
// explicit Checker.Finish).
func (m *Machine) Invariants() *InvariantChecker { return m.inv }

// AllCPUs returns a mask of every CPU.
func (m *Machine) AllCPUs() CPUMask { return kernel.MaskAll(m.k.NumCPUs()) }

// EnclaveOption customizes NewEnclave.
type EnclaveOption func(*Enclave)

// WithWatchdog arms the enclave watchdog (§3.5): if no agent consumes
// messages for d, the enclave is destroyed and its threads fall back to
// CFS.
func WithWatchdog(d Duration) EnclaveOption {
	return func(e *Enclave) { e.EnableWatchdog(d) }
}

// WithTicks enables TIMER_TICK message delivery to agents (§3.1).
func WithTicks() EnclaveOption {
	return func(e *Enclave) { e.DeliverTicks = true }
}

// WithBPF installs the BPF idle fastpath program (§3.2).
func WithBPF(p BPFProgram) EnclaveOption {
	return func(e *Enclave) { e.SetBPF(p) }
}

// NewEnclave partitions the given CPUs into a ghOSt enclave (§3).
func (m *Machine) NewEnclave(cpus CPUMask, opts ...EnclaveOption) *Enclave {
	e := ghostcore.NewEnclave(m.Ghost, cpus)
	for _, o := range opts {
		o(e)
	}
	return e
}

// AgentOption customizes Machine.StartAgents; see Global, PerCPU,
// WithRepoll, WithFaultPlan, and WithUpgradePolicy.
type AgentOption = agentsdk.Option

// Agent-start options, re-exported from the agent SDK.
var (
	// Global forces the centralized model (one global agent, §3.3).
	Global = agentsdk.Global
	// PerCPU forces the per-CPU model (one agent per CPU, §3.2).
	PerCPU = agentsdk.PerCPU
	// WithRepoll re-nudges agents every period (defensive polling).
	WithRepoll = agentsdk.WithRepoll
	// WithFaultPlan installs a fault plan scoped to this agent set's
	// kernel (equivalent to the machine-level WithFaults).
	WithFaultPlan = agentsdk.WithFaultPlan
	// WithUpgradePolicy supplies the successor-policy factory used when
	// a forced "upgrade" fault fires (§3.4).
	WithUpgradePolicy = agentsdk.WithUpgradePolicy
)

// StartAgents runs a scheduling policy on the enclave. The model is
// inferred from the policy's interface (GlobalPolicy → centralized,
// PerCPUPolicy → per-CPU) and may be forced with Global()/PerCPU() for
// policies implementing both.
func (m *Machine) StartAgents(enc *Enclave, policy any, opts ...AgentOption) *AgentSet {
	set := agentsdk.Start(m.k, enc, m.Agents, policy, opts...)
	m.sets = append(m.sets, set)
	return set
}

// ThreadClass selects the scheduling class a thread is spawned under.
// The zero value is CFS.
type ThreadClass struct {
	kind int // 0 = CFS, 1 = MicroQuanta, 2 = ghOSt
	enc  *Enclave
}

// Thread class selectors for ThreadOpts.Class.
var (
	// CFS runs the thread under the default scheduler (the zero value,
	// so it may be omitted).
	CFS ThreadClass
	// MicroQuanta runs the thread under the soft real-time class (§4.3).
	MicroQuanta = ThreadClass{kind: 1}
)

// Ghost runs the thread under the enclave's policy; the agent learns of
// it via THREAD_CREATED.
func Ghost(enc *Enclave) ThreadClass { return ThreadClass{kind: 2, enc: enc} }

// ThreadOpts configures thread creation.
type ThreadOpts struct {
	Name     string
	Affinity CPUMask     // zero = all CPUs
	Nice     int         // CFS weight adjustment
	Tag      any         // opaque label policies can read
	Class    ThreadClass // scheduling class; zero = CFS
}

// Spawn creates a simulated thread under the class selected by
// o.Class: CFS (default), MicroQuanta, or Ghost(enc).
func (m *Machine) Spawn(o ThreadOpts, body ThreadFunc) *Thread {
	so := kernel.SpawnOpts{
		Name: o.Name, Affinity: o.Affinity, Nice: o.Nice, Tag: o.Tag,
	}
	switch o.Class.kind {
	case 1:
		if m.MicroQuanta == nil {
			panic("ghost: machine built without MicroQuanta")
		}
		so.Class = m.MicroQuanta
		return m.k.Spawn(so, body)
	case 2:
		if o.Class.enc == nil {
			panic("ghost: Ghost thread class with nil enclave")
		}
		return o.Class.enc.SpawnThread(so, body)
	default:
		so.Class = m.CFS
		return m.k.Spawn(so, body)
	}
}

// Wake makes a blocked thread runnable.
func (m *Machine) Wake(t *Thread) { m.k.Wake(t) }

// Every invokes fn every period of simulated time (for drivers and
// samplers).
func (m *Machine) Every(period Duration, fn func(now Time)) {
	sim.NewTicker(m.eng, period, fn)
}

// After invokes fn once, d from now.
func (m *Machine) After(d Duration, fn func()) { m.eng.After(d, fn) }

// IdleCPUs lists currently idle CPUs.
func (m *Machine) IdleCPUs() []CPUID { return m.k.IdleCPUs() }
