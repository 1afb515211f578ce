// Package faults is the deterministic fault-injection subsystem of the
// simulator (§3.4 robustness): a Plan is a seeded, virtual-time schedule
// of typed faults — agent crash/stall/slow-step, message drop/delay/
// duplication on enclave queues, IPI loss/delay, transaction-commit
// failure bursts, forced in-place agent upgrades — installed once and
// replayed identically on every run with the same seed.
//
// The subsystem is wired through hook points in the kernel (which holds
// the Injector, mirroring its tracer), the ghOSt core (message posts,
// remote-commit IPIs, transaction validation) and the agent SDK (which
// registers AgentHooks per enclave so crash/stall/slow/upgrade faults
// reach the live agent generation). Every injected fault is emitted
// through internal/trace, so fault schedules show up on the timeline and
// in the metrics report alongside the recovery actions they provoke
// (watchdog fires, CFS fallback, upgrade handoffs).
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ghost/internal/hw"
	"ghost/internal/sim"
	"ghost/internal/trace"
)

// Kind enumerates the fault types a Plan can schedule.
type Kind int

// Fault kinds. Agent-level kinds (AgentCrash, AgentStall, AgentSlow,
// Upgrade) fire through the AgentHooks registered by the agent SDK;
// window kinds (the rest) open an injection window that intercepts
// matching operations until the window expires or its Count is spent.
const (
	AgentCrash Kind = iota // kill the agent generation without an upgrade
	AgentStall             // agent burns CPU making no decisions for Dur
	AgentSlow              // agent step costs multiply by Factor for Dur
	MsgDrop                // kernel→agent messages are lost
	MsgDelay               // kernel→agent messages arrive Delay late
	MsgDup                 // kernel→agent messages are delivered twice
	IPIDelay               // remote-commit IPIs take Delay longer
	IPILoss                // remote-commit IPIs are lost (tick recovers)
	TxnFail                // transaction validation fails spuriously
	Upgrade                // force an in-place agent upgrade (§3.4)
)

func (k Kind) String() string {
	switch k {
	case AgentCrash:
		return "crash"
	case AgentStall:
		return "stall"
	case AgentSlow:
		return "slow"
	case MsgDrop:
		return "msgdrop"
	case MsgDelay:
		return "msgdelay"
	case MsgDup:
		return "msgdup"
	case IPIDelay:
		return "ipidelay"
	case IPILoss:
		return "ipiloss"
	case TxnFail:
		return "txnfail"
	case Upgrade:
		return "upgrade"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// windowed reports whether the kind opens an injection window (as
// opposed to firing once through agent hooks).
func (k Kind) windowed() bool {
	switch k {
	case MsgDrop, MsgDelay, MsgDup, IPIDelay, IPILoss, TxnFail:
		return true
	}
	return false
}

// Targets for Fault.Enc and Fault.CPU.
const (
	// AnyEnclave matches every enclave.
	AnyEnclave = -1
	// AnyCPU targets the active global agent (centralized model) or all
	// agents (per-CPU model) for stall/slow faults.
	AnyCPU = hw.NoCPU
)

// Fault is one scheduled fault. At is the (virtual) injection time; the
// remaining fields qualify the kind as documented on the constants.
// Prefer the Plan builder methods (or ParsePlan), which fill the Enc/CPU
// targets with the Any* defaults.
type Fault struct {
	At   sim.Time
	Kind Kind

	// Dur is the window length for window kinds and AgentSlow, and the
	// stall length for AgentStall. Zero means an open-ended window.
	Dur sim.Duration
	// Delay is the added latency for MsgDelay / IPIDelay.
	Delay sim.Duration
	// Factor is the AgentSlow step-cost multiplier (<=1 defaults to 2).
	Factor float64
	// Prob is the per-operation injection probability inside a window;
	// zero or >=1 means always.
	Prob float64
	// Count bounds how many operations a window affects; zero means
	// unlimited.
	Count int

	// Enc targets one enclave id, or AnyEnclave.
	Enc int
	// CPU targets one agent's home CPU for stall/slow, or AnyCPU.
	CPU hw.CPUID
}

func (f Fault) String() string {
	s := fmt.Sprintf("%s@%v", f.Kind, f.At)
	if f.Dur > 0 {
		s += "/" + f.Dur.String()
	}
	switch f.Kind {
	case MsgDelay, IPIDelay:
		if f.Delay > 0 {
			s += "/" + f.Delay.String()
		}
	case AgentSlow:
		if f.Factor > 0 {
			s += "/" + strconv.FormatFloat(f.Factor, 'g', -1, 64)
		}
	default:
		if f.Prob > 0 && f.Prob < 1 {
			s += "/" + strconv.FormatFloat(f.Prob, 'g', -1, 64)
		}
	}
	return s
}

// Plan is a seeded schedule of faults. The seed drives every
// probabilistic decision the injector makes, so the same plan on the
// same simulation reproduces the exact same fault sequence.
type Plan struct {
	Seed   uint64
	Faults []Fault
}

// NewPlan returns an empty plan with the given seed.
func NewPlan(seed uint64) *Plan { return &Plan{Seed: seed} }

// Add appends a fault and returns the plan for chaining.
func (p *Plan) Add(f Fault) *Plan {
	p.Faults = append(p.Faults, f)
	return p
}

// Crash schedules an agent crash (no upgrade: CFS fallback).
func (p *Plan) Crash(at sim.Time) *Plan {
	return p.Add(Fault{At: at, Kind: AgentCrash, Enc: AnyEnclave, CPU: AnyCPU})
}

// Upgrade schedules a forced in-place agent upgrade.
func (p *Plan) Upgrade(at sim.Time) *Plan {
	return p.Add(Fault{At: at, Kind: Upgrade, Enc: AnyEnclave, CPU: AnyCPU})
}

// Stall schedules an agent stall of length d.
func (p *Plan) Stall(at sim.Time, d sim.Duration) *Plan {
	return p.Add(Fault{At: at, Kind: AgentStall, Dur: d, Enc: AnyEnclave, CPU: AnyCPU})
}

// Slow multiplies agent step costs by factor for a window of length d.
func (p *Plan) Slow(at sim.Time, d sim.Duration, factor float64) *Plan {
	return p.Add(Fault{At: at, Kind: AgentSlow, Dur: d, Factor: factor, Enc: AnyEnclave, CPU: AnyCPU})
}

// DropMsgs drops kernel→agent messages with probability prob for d.
func (p *Plan) DropMsgs(at sim.Time, d sim.Duration, prob float64) *Plan {
	return p.Add(Fault{At: at, Kind: MsgDrop, Dur: d, Prob: prob, Enc: AnyEnclave, CPU: AnyCPU})
}

// DelayMsgs delays kernel→agent messages by delay for a window of d.
func (p *Plan) DelayMsgs(at sim.Time, d, delay sim.Duration) *Plan {
	return p.Add(Fault{At: at, Kind: MsgDelay, Dur: d, Delay: delay, Enc: AnyEnclave, CPU: AnyCPU})
}

// DupMsgs duplicates kernel→agent messages with probability prob for d.
func (p *Plan) DupMsgs(at sim.Time, d sim.Duration, prob float64) *Plan {
	return p.Add(Fault{At: at, Kind: MsgDup, Dur: d, Prob: prob, Enc: AnyEnclave, CPU: AnyCPU})
}

// DelayIPIs adds delay to remote-commit IPIs for a window of d.
func (p *Plan) DelayIPIs(at sim.Time, d, delay sim.Duration) *Plan {
	return p.Add(Fault{At: at, Kind: IPIDelay, Dur: d, Delay: delay, Enc: AnyEnclave, CPU: AnyCPU})
}

// LoseIPIs drops remote-commit IPIs with probability prob for d; the
// install is recovered by the next timer tick on the target CPU.
func (p *Plan) LoseIPIs(at sim.Time, d sim.Duration, prob float64) *Plan {
	return p.Add(Fault{At: at, Kind: IPILoss, Dur: d, Prob: prob, Enc: AnyEnclave, CPU: AnyCPU})
}

// FailTxns makes transaction validation fail with probability prob for d.
func (p *Plan) FailTxns(at sim.Time, d sim.Duration, prob float64) *Plan {
	return p.Add(Fault{At: at, Kind: TxnFail, Dur: d, Prob: prob, Enc: AnyEnclave, CPU: AnyCPU})
}

// String renders the plan in ParsePlan's spec syntax.
func (p *Plan) String() string {
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses a comma-separated fault spec into a plan seeded with
// seed. Each entry is kind@at[/dur][/param] with Go duration syntax:
//
//	crash@500ms               agent crash at t=500ms
//	upgrade@1s                forced agent upgrade at t=1s
//	stall@1s/2ms              agent stalls for 2ms
//	slow@1s/5ms/4             agent steps cost 4x for 5ms
//	msgdrop@1s/5ms/0.5        messages dropped with p=0.5 for 5ms
//	msgdelay@1s/5ms/50us      messages delayed 50us for 5ms
//	msgdup@1s/5ms/0.25        messages duplicated with p=0.25 for 5ms
//	ipidelay@1s/2ms/5us       IPIs delayed 5us for 2ms
//	ipiloss@1s/2ms/0.5        IPIs lost with p=0.5 for 2ms
//	txnfail@1s/1ms            every commit fails for 1ms
func ParsePlan(spec string, seed uint64) (*Plan, error) {
	p := NewPlan(seed)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("faults: %q: missing @time", entry)
		}
		kind, err := parseKind(kindStr)
		if err != nil {
			return nil, fmt.Errorf("faults: %q: %v", entry, err)
		}
		fields := strings.Split(rest, "/")
		at, err := parseDur(fields[0])
		if err != nil {
			return nil, fmt.Errorf("faults: %q: bad time: %v", entry, err)
		}
		f := Fault{At: sim.Time(at), Kind: kind, Enc: AnyEnclave, CPU: AnyCPU}
		if len(fields) > 1 {
			if kind == AgentCrash || kind == Upgrade {
				return nil, fmt.Errorf("faults: %q: %s takes no duration", entry, kind)
			}
			if f.Dur, err = parseDur(fields[1]); err != nil {
				return nil, fmt.Errorf("faults: %q: bad duration: %v", entry, err)
			}
		}
		if len(fields) > 2 {
			param := fields[2]
			switch kind {
			case MsgDelay, IPIDelay:
				if f.Delay, err = parseDur(param); err != nil {
					return nil, fmt.Errorf("faults: %q: bad delay: %v", entry, err)
				}
			case AgentSlow:
				if f.Factor, err = strconv.ParseFloat(param, 64); err != nil {
					return nil, fmt.Errorf("faults: %q: bad factor: %v", entry, err)
				}
			case MsgDrop, MsgDup, IPILoss, TxnFail:
				if f.Prob, err = strconv.ParseFloat(param, 64); err != nil {
					return nil, fmt.Errorf("faults: %q: bad probability: %v", entry, err)
				}
			default:
				return nil, fmt.Errorf("faults: %q: %s takes no parameter", entry, kind)
			}
		}
		if len(fields) > 3 {
			return nil, fmt.Errorf("faults: %q: too many fields", entry)
		}
		p.Add(f)
	}
	if len(p.Faults) == 0 {
		return nil, fmt.Errorf("faults: empty plan spec %q", spec)
	}
	return p, nil
}

func parseKind(s string) (Kind, error) {
	for k := AgentCrash; k <= Upgrade; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown fault kind %q", s)
}

func parseDur(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	return sim.Duration(d.Nanoseconds()), nil
}

// AgentHooks is the callback set an agent generation registers so
// agent-level faults reach it. A new generation's registration replaces
// its predecessor's, so fault delivery follows upgrade handoffs.
type AgentHooks struct {
	// Crash kills the agent generation without announcing an upgrade.
	Crash func(now sim.Time)
	// Stall makes the targeted agent(s) burn CPU for d.
	Stall func(now sim.Time, cpu hw.CPUID, d sim.Duration)
	// Slow multiplies the targeted agent(s)' step costs until until.
	Slow func(now sim.Time, cpu hw.CPUID, until sim.Time, factor float64)
	// Upgrade stops this generation and starts a successor in place.
	Upgrade func(now sim.Time)
}

// window is one active window fault.
type window struct {
	f     Fault
	until sim.Time // 0 = open-ended
	left  int      // remaining injections, -1 = unlimited
}

// Injector replays a Plan against one simulation. The kernel owns it
// (Kernel.SetFaults / Kernel.Faults); the ghOSt core calls the On*
// interception methods — all of which are safe on a nil *Injector — and
// the agent SDK registers AgentHooks per enclave.
type Injector struct {
	eng    *sim.Engine
	rnd    *sim.Rand
	plan   *Plan
	tracer func() *trace.Tracer

	windows []*window
	hooks   map[int]*AgentHooks
}

// NewInjector schedules every fault of plan on eng and returns the
// injector. Faults whose time already passed fire at the current time.
func NewInjector(eng *sim.Engine, plan *Plan) *Injector {
	in := &Injector{
		eng:   eng,
		rnd:   sim.NewRand(plan.Seed ^ 0xFA017FA017),
		plan:  plan,
		hooks: make(map[int]*AgentHooks),
	}
	for _, f := range plan.Faults {
		f := f
		at := f.At
		if at < eng.Now() {
			at = eng.Now()
		}
		eng.At(at, func() { in.fire(f) })
	}
	return in
}

// Plan returns the installed plan.
func (in *Injector) Plan() *Plan { return in.plan }

// BindTracer supplies the tracer lookup used to emit fault events; the
// kernel calls this from SetFaults so the injector always sees the
// tracer currently attached.
func (in *Injector) BindTracer(fn func() *trace.Tracer) { in.tracer = fn }

func (in *Injector) tr() *trace.Tracer {
	if in.tracer == nil {
		return nil
	}
	return in.tracer()
}

// RegisterAgentHooks installs (or replaces) the agent-level fault
// callbacks for enclave enc.
func (in *Injector) RegisterAgentHooks(enc int, h *AgentHooks) {
	if in == nil {
		return
	}
	in.hooks[enc] = h
}

// targets returns the enclave ids with registered hooks matched by enc,
// in deterministic (sorted) order.
func (in *Injector) targets(enc int) []int {
	var ids []int
	for id := range in.hooks {
		if enc == AnyEnclave || enc == id {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// fire delivers one scheduled fault: agent kinds invoke the registered
// hooks, window kinds open an injection window.
func (in *Injector) fire(f Fault) {
	now := in.eng.Now()
	if f.Kind.windowed() {
		until := sim.Time(0)
		if f.Dur > 0 {
			until = now + f.Dur
		}
		left := f.Count
		if left == 0 {
			left = -1
		}
		in.windows = append(in.windows, &window{f: f, until: until, left: left})
		in.tr().Fault(now, f.Kind.String()+"-window", f.Enc, f.String())
		return
	}
	fired := false
	for _, id := range in.targets(f.Enc) {
		h := in.hooks[id]
		switch f.Kind {
		case AgentCrash:
			if h.Crash != nil {
				in.tr().Fault(now, "crash", id, "")
				h.Crash(now)
				fired = true
			}
		case Upgrade:
			if h.Upgrade != nil {
				in.tr().Fault(now, "upgrade", id, "")
				h.Upgrade(now)
				fired = true
			}
		case AgentStall:
			if h.Stall != nil {
				in.tr().Fault(now, "stall", id, f.Dur.String())
				h.Stall(now, f.CPU, f.Dur)
				fired = true
			}
		case AgentSlow:
			if h.Slow != nil {
				factor := f.Factor
				if factor <= 1 {
					factor = 2
				}
				in.tr().Fault(now, "slow", id, fmt.Sprintf("x%g for %v", factor, f.Dur))
				h.Slow(now, f.CPU, now+f.Dur, factor)
				fired = true
			}
		}
	}
	if !fired {
		in.tr().Fault(now, f.Kind.String()+"-skipped", f.Enc, "no agent hooks")
	}
}

// match scans the active windows for one matching kind/time/enclave and,
// if its probability draw passes, consumes one injection from it.
func (in *Injector) match(kind Kind, now sim.Time, enc int) *Fault {
	for _, w := range in.windows {
		f := &w.f
		if f.Kind != kind || w.left == 0 {
			continue
		}
		if w.until != 0 && now >= w.until {
			continue
		}
		if f.Enc != AnyEnclave && f.Enc != enc {
			continue
		}
		if p := f.Prob; p > 0 && p < 1 && in.rnd.Float64() >= p {
			continue
		}
		if w.left > 0 {
			w.left--
		}
		return f
	}
	return nil
}

// OnMessagePost intercepts one kernel→agent message post to enclave
// enc. Exactly one of drop/dup may be set; delay > 0 means deliver the
// message that much later.
func (in *Injector) OnMessagePost(now sim.Time, enc int) (drop, dup bool, delay sim.Duration) {
	if in == nil {
		return
	}
	if f := in.match(MsgDrop, now, enc); f != nil {
		in.tr().Fault(now, "msgdrop", enc, "")
		return true, false, 0
	}
	if f := in.match(MsgDelay, now, enc); f != nil {
		d := f.Delay
		if d <= 0 {
			d = 10 * sim.Microsecond
		}
		in.tr().Fault(now, "msgdelay", enc, d.String())
		return false, false, d
	}
	if f := in.match(MsgDup, now, enc); f != nil {
		in.tr().Fault(now, "msgdup", enc, "")
		return false, true, 0
	}
	return
}

// OnIPI intercepts one remote-commit IPI for enclave enc: lost means
// the interrupt never arrives (the caller models tick-based recovery),
// extra is added propagation delay.
func (in *Injector) OnIPI(now sim.Time, enc int) (lost bool, extra sim.Duration) {
	if in == nil {
		return
	}
	if f := in.match(IPILoss, now, enc); f != nil {
		in.tr().Fault(now, "ipiloss", enc, "")
		return true, 0
	}
	if f := in.match(IPIDelay, now, enc); f != nil {
		d := f.Delay
		if d <= 0 {
			d = 5 * sim.Microsecond
		}
		in.tr().Fault(now, "ipidelay", enc, d.String())
		return false, d
	}
	return
}

// OnTxnValidate intercepts one transaction validation for enclave enc;
// true forces the commit to fail.
func (in *Injector) OnTxnValidate(now sim.Time, enc int) bool {
	if in == nil {
		return false
	}
	if f := in.match(TxnFail, now, enc); f != nil {
		in.tr().Fault(now, "txnfail", enc, "")
		return true
	}
	return false
}
