// Package check is the invariant checker for the ghOSt protocol (§2.3,
// §3.4): it attaches invariant oracles as ghostcore/kernel observers,
// checked online at event granularity. A machine gets them through
// ghost.WithInvariants; the property-based scenario runner behind
// ghost-check (internal/check/scenario) builds its machines that way.
//
// The oracle set (Default) covers: per-agent/per-thread sequence-number
// monotonicity, status-word/state-machine consistency (OnCpu ⇒ exactly
// one CPU, never two threads latched on one CPU), transaction
// group-commit atomicity, message-queue conservation (every message is
// produced exactly once and consumed or discarded, never duplicated
// outside a fault window), no-lost-thread (every runnable ghOSt thread
// is eventually scheduled or the watchdog fires), and CFS-fallback
// liveness after enclave destruction.
package check

import (
	"fmt"

	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Violation is one observed invariant breach.
type Violation struct {
	Time   sim.Time
	Oracle string
	Msg    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%v: %s", v.Oracle, v.Time, v.Msg)
}

// maxViolations caps collection so a badly broken run stays cheap.
const maxViolations = 64

// Oracle checks one protocol invariant. Implementations embed Base for
// no-op defaults and override the events they watch, reporting breaches
// through Checker.Reportf.
type Oracle interface {
	Name() string
	Tseq(c *Checker, e *ghostcore.Enclave, t *kernel.Thread, old, new uint64, mt ghostcore.MsgType)
	Aseq(c *Checker, e *ghostcore.Enclave, a *ghostcore.Agent, old, new uint64)
	MsgIntent(c *Checker, e *ghostcore.Enclave, tid kernel.TID, mt ghostcore.MsgType)
	MsgDelivered(c *Checker, e *ghostcore.Enclave, m ghostcore.Message, dup, delayed bool)
	MsgFaultDropped(c *Checker, e *ghostcore.Enclave, m ghostcore.Message)
	MsgDelayed(c *Checker, e *ghostcore.Enclave, m ghostcore.Message)
	MsgDiscarded(c *Checker, e *ghostcore.Enclave, m ghostcore.Message)
	MsgDrained(c *Checker, e *ghostcore.Enclave, m ghostcore.Message)
	Latched(c *Checker, e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread)
	Unlatched(c *Checker, e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread, why string)
	Installed(c *Checker, e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread)
	TxnGroup(c *Checker, e *ghostcore.Enclave, txns []*ghostcore.Txn, atomic bool)
	SwitchIn(c *Checker, cpu *kernel.CPU, t *kernel.Thread)
	Destroyed(c *Checker, e *ghostcore.Enclave, cause error, threads []*kernel.Thread)
	Finish(c *Checker, now sim.Time)
}

// Base provides no-op Oracle methods; embed it and override the events
// your invariant watches.
type Base struct{}

func (Base) Tseq(*Checker, *ghostcore.Enclave, *kernel.Thread, uint64, uint64, ghostcore.MsgType) {}
func (Base) Aseq(*Checker, *ghostcore.Enclave, *ghostcore.Agent, uint64, uint64)                  {}
func (Base) MsgIntent(*Checker, *ghostcore.Enclave, kernel.TID, ghostcore.MsgType)                {}
func (Base) MsgDelivered(*Checker, *ghostcore.Enclave, ghostcore.Message, bool, bool)             {}
func (Base) MsgFaultDropped(*Checker, *ghostcore.Enclave, ghostcore.Message)                      {}
func (Base) MsgDelayed(*Checker, *ghostcore.Enclave, ghostcore.Message)                           {}
func (Base) MsgDiscarded(*Checker, *ghostcore.Enclave, ghostcore.Message)                         {}
func (Base) MsgDrained(*Checker, *ghostcore.Enclave, ghostcore.Message)                           {}
func (Base) Latched(*Checker, *ghostcore.Enclave, hw.CPUID, *kernel.Thread)                       {}
func (Base) Unlatched(*Checker, *ghostcore.Enclave, hw.CPUID, *kernel.Thread, string)             {}
func (Base) Installed(*Checker, *ghostcore.Enclave, hw.CPUID, *kernel.Thread)                     {}
func (Base) TxnGroup(*Checker, *ghostcore.Enclave, []*ghostcore.Txn, bool)                        {}
func (Base) SwitchIn(*Checker, *kernel.CPU, *kernel.Thread)                                       {}
func (Base) Destroyed(*Checker, *ghostcore.Enclave, error, []*kernel.Thread)                      {}
func (Base) Finish(*Checker, sim.Time)                                                            {}

// Checker fans ghostcore/kernel protocol events out to a set of oracles
// and collects their violations. Attach wires it to a class; Finish runs
// the end-of-run checks. One Checker serves one machine.
type Checker struct {
	k *kernel.Kernel
	g *ghostcore.Class

	// LostThreshold bounds how long a runnable ghOSt thread may wait for
	// a scheduling decision before the no-lost-thread oracle flags it.
	LostThreshold sim.Duration

	oracles    []Oracle
	violations []Violation
	finished   bool
}

// Attach registers the oracles on the class (as a protocol observer) and
// the kernel (switch hook) and returns the checker.
func Attach(k *kernel.Kernel, g *ghostcore.Class, oracles ...Oracle) *Checker {
	c := &Checker{k: k, g: g, oracles: oracles, LostThreshold: 10 * sim.Millisecond}
	g.AddObserver((*classObserver)(c))
	k.AddSwitchHook(c.onSwitch)
	return c
}

// Default returns a fresh instance of every invariant oracle.
func Default() []Oracle {
	return []Oracle{
		newSeqOracle(),
		newStatusWordOracle(),
		newAtomicityOracle(),
		newConservationOracle(),
		newLostThreadOracle(),
		newFallbackOracle(),
	}
}

// Kernel returns the kernel under check.
func (c *Checker) Kernel() *kernel.Kernel { return c.k }

// Ghost returns the ghOSt class under check.
func (c *Checker) Ghost() *ghostcore.Class { return c.g }

// Violations returns the breaches collected so far.
func (c *Checker) Violations() []Violation { return c.violations }

// Failed reports whether any invariant was violated.
func (c *Checker) Failed() bool { return len(c.violations) > 0 }

// Err returns the first violation as an error, nil if none.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("invariant violated: %s (%d total)", c.violations[0], len(c.violations))
}

// Reportf records a violation on behalf of an oracle.
func (c *Checker) Reportf(o Oracle, format string, args ...any) {
	if len(c.violations) >= maxViolations {
		return
	}
	c.violations = append(c.violations, Violation{
		Time:   c.k.Now(),
		Oracle: o.Name(),
		Msg:    fmt.Sprintf(format, args...),
	})
}

// Finish runs the end-of-run oracles (conservation totals, lost threads,
// fallback liveness). Idempotent.
func (c *Checker) Finish(now sim.Time) {
	if c.finished {
		return
	}
	c.finished = true
	for _, o := range c.oracles {
		o.Finish(c, now)
	}
}

// PrimeResumed seeds history-dependent oracle state from the machine's
// current (restored) state: every message still queued in an enclave
// ring is replayed to the oracles as an intent plus a delivery, so the
// conservation and lost-thread ledgers see a consistent mid-stream
// picture instead of flagging drains of messages they never saw posted.
func (c *Checker) PrimeResumed() {
	for _, e := range c.g.Enclaves() {
		e.EachQueuedMessage(func(m ghostcore.Message) {
			for _, o := range c.oracles {
				o.MsgIntent(c, e, m.TID, m.Type)
				o.MsgDelivered(c, e, m, false, false)
			}
		})
	}
}

func (c *Checker) onSwitch(cpu *kernel.CPU, t *kernel.Thread) {
	for _, o := range c.oracles {
		o.SwitchIn(c, cpu, t)
	}
}

// classObserver adapts Checker to ghostcore.Observer without exposing
// the observer methods on the public Checker API.
type classObserver Checker

func (co *classObserver) c() *Checker { return (*Checker)(co) }

func (co *classObserver) Tseq(e *ghostcore.Enclave, t *kernel.Thread, old, new uint64, mt ghostcore.MsgType) {
	for _, o := range co.oracles {
		o.Tseq(co.c(), e, t, old, new, mt)
	}
}

func (co *classObserver) Aseq(e *ghostcore.Enclave, a *ghostcore.Agent, old, new uint64) {
	for _, o := range co.oracles {
		o.Aseq(co.c(), e, a, old, new)
	}
}

func (co *classObserver) MsgIntent(e *ghostcore.Enclave, tid kernel.TID, mt ghostcore.MsgType) {
	for _, o := range co.oracles {
		o.MsgIntent(co.c(), e, tid, mt)
	}
}

func (co *classObserver) MsgDelivered(e *ghostcore.Enclave, m ghostcore.Message, dup, delayed bool) {
	for _, o := range co.oracles {
		o.MsgDelivered(co.c(), e, m, dup, delayed)
	}
}

func (co *classObserver) MsgFaultDropped(e *ghostcore.Enclave, m ghostcore.Message) {
	for _, o := range co.oracles {
		o.MsgFaultDropped(co.c(), e, m)
	}
}

func (co *classObserver) MsgDelayed(e *ghostcore.Enclave, m ghostcore.Message) {
	for _, o := range co.oracles {
		o.MsgDelayed(co.c(), e, m)
	}
}

func (co *classObserver) MsgDiscarded(e *ghostcore.Enclave, m ghostcore.Message) {
	for _, o := range co.oracles {
		o.MsgDiscarded(co.c(), e, m)
	}
}

func (co *classObserver) MsgDrained(e *ghostcore.Enclave, m ghostcore.Message) {
	for _, o := range co.oracles {
		o.MsgDrained(co.c(), e, m)
	}
}

func (co *classObserver) Latched(e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread) {
	for _, o := range co.oracles {
		o.Latched(co.c(), e, cpu, t)
	}
}

func (co *classObserver) Unlatched(e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread, why string) {
	for _, o := range co.oracles {
		o.Unlatched(co.c(), e, cpu, t, why)
	}
}

func (co *classObserver) Installed(e *ghostcore.Enclave, cpu hw.CPUID, t *kernel.Thread) {
	for _, o := range co.oracles {
		o.Installed(co.c(), e, cpu, t)
	}
}

func (co *classObserver) TxnGroup(e *ghostcore.Enclave, txns []*ghostcore.Txn, atomic bool) {
	for _, o := range co.oracles {
		o.TxnGroup(co.c(), e, txns, atomic)
	}
}

func (co *classObserver) Destroyed(e *ghostcore.Enclave, cause error, threads []*kernel.Thread) {
	for _, o := range co.oracles {
		o.Destroyed(co.c(), e, cause, threads)
	}
}
