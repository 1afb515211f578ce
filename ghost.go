// Package ghost is a from-scratch Go reproduction of "ghOSt: Fast &
// Flexible User-Space Delegation of Linux Scheduling" (SOSP 2021): the
// ghOSt kernel scheduling class, enclaves, message queues, transactions,
// and the userspace agent/policy framework, running on a deterministic
// discrete-event machine simulator so that every result of the paper's
// evaluation can be regenerated on a laptop.
//
// The package is a facade: construct a Machine, partition CPUs into an
// Enclave, start agents with a scheduling Policy, spawn threads, and run
// simulated time.
//
//	m := ghost.NewMachine(ghost.Skylake())
//	defer m.Shutdown()
//	enc := m.NewEnclave(m.AllCPUs())
//	m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
//	m.Spawn(ghost.ThreadOpts{Name: "worker", Class: ghost.Ghost(enc)},
//	    func(tc *ghost.Task) { tc.Run(10 * ghost.Microsecond) })
//	m.Run(ghost.Millisecond)
//
// Everything the paper's evaluation needs is re-exported here: machine
// topologies (§4.1), the policies of §4.2-4.5, the baseline schedulers,
// workload generators, and the experiment harness for each table/figure.
package ghost

import (
	"ghost/internal/agentsdk"
	"ghost/internal/check"
	"ghost/internal/faults"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sequential"
	"ghost/internal/sim"
	"ghost/internal/stats"
	"ghost/internal/trace"
	"ghost/internal/tunable"
)

// Re-exported simulated-time types and units.
type (
	// Time is a point in simulated time (nanoseconds).
	Time = sim.Time
	// Duration is a span of simulated time (nanoseconds).
	Duration = sim.Duration
)

// Simulated-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Topology and CPU identification.
type (
	// Topology describes a machine's sockets, CCXs, cores and SMT.
	Topology = hw.Topology
	// TopologyConfig builds custom machines.
	TopologyConfig = hw.Config
	// CPUID identifies a logical CPU.
	CPUID = hw.CPUID
	// CostModel holds the nanosecond costs of scheduling operations.
	CostModel = hw.CostModel
)

// NoCPU is the CPUID sentinel for "no CPU".
const NoCPU = hw.NoCPU

// Machine presets from the paper's evaluation.
var (
	// Skylake is the 2-socket, 112-CPU Xeon of §4.1/§4.3/§4.5.
	Skylake = hw.SkylakeDefault
	// Haswell is the 72-CPU machine of Fig 5.
	Haswell = hw.Haswell
	// XeonE5 is the 48-CPU machine of the §4.2 Shinjuku comparison.
	XeonE5 = hw.XeonE5
	// AMDRome is the 256-CPU Search machine of §4.4.
	AMDRome = hw.AMDRome
	// NewTopology builds a custom machine.
	NewTopology = hw.NewTopology
	// DefaultCostModel is the Table 3-anchored cost model.
	DefaultCostModel = hw.DefaultCostModel
)

// Kernel-side types.
type (
	// Kernel is the simulated kernel under a Machine (scheduling
	// classes, CPUs, threads); reach it via Machine.Kernel.
	Kernel = kernel.Kernel
	// Thread is a simulated native thread.
	Thread = kernel.Thread
	// Task is a thread body's handle on the kernel; its Run, Block,
	// Sleep, Yield and Exit build the body's next Op.
	Task = kernel.TaskContext
	// ThreadFunc is a resumable thread body: the kernel calls it at
	// Spawn and at each resume point (a Run or Yield done, a Block woken),
	// and it returns the thread's next Op. Plain Go code inside a call
	// takes no simulated time. Write straight-line bodies with
	// Sequential instead.
	ThreadFunc = kernel.ThreadFunc
	// Op is a thread body's next action (see ThreadFunc).
	Op = kernel.Op
	// SeqTask is the blocking context of a Sequential body.
	SeqTask = sequential.Task
	// CPUMask selects sets of CPUs.
	CPUMask = kernel.Mask
	// TID identifies a thread.
	TID = kernel.TID
	// ThreadState enumerates a thread's lifecycle states.
	ThreadState = kernel.State
	// CFSClass is the default (completely fair) scheduling class.
	CFSClass = kernel.CFS
	// MicroQuantaClass is the soft real-time class of §4.3.
	MicroQuantaClass = kernel.MicroQuanta
	// AgentRunnerClass is the top-priority class agents run under.
	AgentRunnerClass = kernel.AgentClass
	// GhostClass is the ghOSt scheduling class itself.
	GhostClass = ghostcore.Class
)

// Thread lifecycle states (Thread.State).
const (
	ThreadNew      = kernel.StateNew
	ThreadRunnable = kernel.StateRunnable
	ThreadRunning  = kernel.StateRunning
	ThreadBlocked  = kernel.StateBlocked
	ThreadDead     = kernel.StateDead
)

// MaskOf builds a CPU mask from ids; MaskAll covers CPUs 0..n-1.
var (
	MaskOf  = kernel.MaskOf
	MaskAll = kernel.MaskAll
	// Sequential adapts a straight-line body, whose Run, Block, Sleep and
	// Yield calls block, to a ThreadFunc. It costs a goroutine per thread:
	// use it in tests and examples, not in workloads with many threads.
	Sequential = sequential.Body
)

// ghOSt core types (the paper's primary contribution).
type (
	// Enclave is a CPU partition managed by one policy (§3, Fig 2).
	Enclave = ghostcore.Enclave
	// Message is a kernel-to-agent notification (Table 1).
	Message = ghostcore.Message
	// MsgType enumerates message kinds.
	MsgType = ghostcore.MsgType
	// Txn is a scheduling transaction (§3.2).
	Txn = ghostcore.Txn
	// TxnStatus is a transaction outcome.
	TxnStatus = ghostcore.TxnStatus
	// StatusWord is the shared-memory scheduling state word (§3.1).
	StatusWord = ghostcore.StatusWord
	// BPFProgram is the idle-time fastpath hook (§3.2).
	BPFProgram = ghostcore.BPFProgram
)

// Message types (Table 1).
const (
	MsgThreadCreated   = ghostcore.MsgThreadCreated
	MsgThreadBlocked   = ghostcore.MsgThreadBlocked
	MsgThreadPreempted = ghostcore.MsgThreadPreempted
	MsgThreadYield     = ghostcore.MsgThreadYield
	MsgThreadDead      = ghostcore.MsgThreadDead
	MsgThreadWakeup    = ghostcore.MsgThreadWakeup
	MsgThreadAffinity  = ghostcore.MsgThreadAffinity
	MsgTimerTick       = ghostcore.MsgTimerTick
)

// Transaction statuses.
const (
	TxnCommitted         = ghostcore.TxnCommitted
	TxnESTALE            = ghostcore.TxnESTALE
	TxnCPUNotAvail       = ghostcore.TxnCPUNotAvail
	TxnThreadNotRunnable = ghostcore.TxnThreadNotRunnable
)

// Typed enclave-destruction causes: Enclave.DestroyCause wraps one of
// these, so callers classify failures with errors.Is instead of matching
// reason strings.
var (
	// ErrWatchdog: a runnable thread starved past the watchdog timeout.
	ErrWatchdog = ghostcore.ErrWatchdog
	// ErrAgentCrash: the last agent detached with no upgrade pending.
	ErrAgentCrash = ghostcore.ErrAgentCrash
	// ErrUpgradeTimeout: a pending upgrade's successor never attached.
	ErrUpgradeTimeout = ghostcore.ErrUpgradeTimeout
	// ErrDestroyed: the enclave was torn down explicitly.
	ErrDestroyed = ghostcore.ErrDestroyed
)

// Invariant checking (attach with WithInvariants; see cmd/ghost-check
// for the standalone property-based scanner).
type (
	// InvariantOracle checks one protocol invariant online; implement
	// internal/check.Oracle (embedding check.Base) for custom oracles.
	InvariantOracle = check.Oracle
	// InvariantChecker collects violations from the attached oracles.
	InvariantChecker = check.Checker
	// InvariantViolation is one observed invariant breach.
	InvariantViolation = check.Violation
)

// DefaultInvariants returns a fresh instance of every built-in protocol
// oracle: sequence monotonicity, status-word consistency, transaction
// atomicity, message conservation, no-lost-thread, and CFS-fallback
// liveness.
var DefaultInvariants = check.Default

// Agent/policy framework types.
type (
	// GlobalPolicy is a centralized scheduling policy (§3.3).
	GlobalPolicy = agentsdk.GlobalPolicy
	// PerCPUPolicy is a per-CPU scheduling policy (§3.2).
	PerCPUPolicy = agentsdk.PerCPUPolicy
	// PolicyContext gives policies access to enclave state.
	PolicyContext = agentsdk.Context
	// Assignment is one thread-to-CPU decision.
	Assignment = agentsdk.Assignment
	// AgentSet is one running generation of agents.
	AgentSet = agentsdk.AgentSet
)

// Histogram records latency distributions.
type Histogram = stats.Histogram

// Rand is the seeded deterministic generator every stochastic choice in
// a simulation draws from; never mix in math/rand.
type Rand = sim.Rand

// NewRand returns a generator for the given seed.
var NewRand = sim.NewRand

// Policy auto-tuning (see cmd/ghost-tune and internal/tune): policies
// declare their numeric knobs as a TunableSet; the tuner samples the
// declared ranges and applies values through it.
type (
	// Tunable declares one numeric knob of a policy.
	Tunable = tunable.Tunable
	// TunableSet is an ordered collection of a policy's tunables.
	TunableSet = tunable.Set
	// TunablePolicy is implemented by policies exposing tunables
	// (Shinjuku, FIFOPolicy, and the MicroQuanta class do).
	TunablePolicy = tunable.Policy
)

// NewTunableSet returns an empty tunable set for custom policies.
var NewTunableSet = tunable.NewSet

// Observability types (see the Observability section of the README).
type (
	// Tracer records scheduling events and aggregate metrics; attach
	// one with WithTrace and export it with Machine.TraceTo.
	Tracer = trace.Tracer
	// Metrics is an aggregate snapshot returned by Machine.Metrics.
	Metrics = trace.Metrics
	// EnclaveMetrics holds per-enclave counters and latency histograms.
	EnclaveMetrics = trace.EnclaveMetrics
)

// NewTracer creates a full event tracer for WithTrace.
var NewTracer = trace.New

// Fault injection (§3.4 robustness evaluation).
type (
	// FaultPlan is a seeded, deterministic schedule of injected faults;
	// install one with WithFaults.
	FaultPlan = faults.Plan
	// Fault is one scheduled fault in a plan.
	Fault = faults.Fault
)

// Fault-plan constructors.
var (
	// NewFaultPlan creates an empty plan with the given seed; populate
	// it with the chainable builders (Crash, Upgrade, DropMsgs, ...).
	NewFaultPlan = faults.NewPlan
	// ParseFaultPlan parses the ghost-sim -faults spec syntax, e.g.
	// "crash@500ms" or "msgdrop@100ms/50ms/0.2,upgrade@300ms".
	ParseFaultPlan = faults.ParsePlan
)
