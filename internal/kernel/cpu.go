package kernel

import (
	"ghost/internal/hw"
	"ghost/internal/sim"
)

// CPU is a logical CPU of the simulated machine. It executes at most one
// thread; execution speed is dilated while its SMT sibling is busy.
type CPU struct {
	ID   hw.CPUID
	Info *hw.CPU

	k    *Kernel
	curr *Thread

	switching      bool // in context-switch dead time
	needResched    bool
	reschedPending bool

	// Burn state for the current run segment.
	segStart   sim.Time
	burning    bool
	speed      float64 // work-units per wall-ns for the current segment
	completion sim.Event

	// Accounting.
	accBusy   bool
	busyNS    sim.Duration
	busyStart sim.Time
	switches  uint64
}

// Curr returns the thread currently on this CPU (nil when idle). During a
// context switch the incoming thread is already reported.
func (c *CPU) Curr() *Thread { return c.curr }

// Idle reports whether the CPU has no thread.
func (c *CPU) Idle() bool { return c.curr == nil && !c.switching }

// FreeForPlacement reports whether the CPU is idle and has no pending
// scheduling pass that might already have claimed it. Wake placement uses
// this to spread simultaneous wakeups instead of piling them on one CPU.
func (c *CPU) FreeForPlacement() bool { return c.Idle() && !c.reschedPending }

// Switching reports whether the CPU is in context-switch dead time.
func (c *CPU) Switching() bool { return c.switching }

// BusyTime returns cumulative wall time this CPU was non-idle.
func (c *CPU) BusyTime() sim.Duration {
	t := c.busyNS
	if c.accBusy {
		t += c.k.eng.Now() - c.busyStart
	}
	return t
}

// Switches returns the number of context switches performed.
func (c *CPU) Switches() uint64 { return c.switches }

// accountBusy marks the start of a busy period.
func (c *CPU) accountBusy() {
	if !c.accBusy {
		c.accBusy = true
		c.busyStart = c.k.eng.Now()
		c.smtChanged()
	}
}

// accountIdle closes the current busy period.
func (c *CPU) accountIdle() {
	if c.accBusy {
		c.accBusy = false
		c.busyNS += c.k.eng.Now() - c.busyStart
		c.smtChanged()
	}
}

// busy reports whether this CPU contends for its physical core's pipeline.
func (c *CPU) busy() bool { return c.curr != nil || c.switching }

// effSpeed computes the current execution speed given sibling activity.
func (c *CPU) effSpeed() float64 {
	sib := c.Info.Sibling()
	if sib == hw.NoCPU {
		return 1.0
	}
	if c.k.cpus[sib].busy() {
		return 1.0 / c.k.cost.SMTPenalty
	}
	return 1.0
}

// startSegment begins a run segment for the current thread: if the thread
// has pending work, a completion event is scheduled; otherwise (spinning)
// it just occupies the CPU.
func (c *CPU) startSegment() {
	t := c.curr
	if t == nil {
		return
	}
	now := c.k.eng.Now()
	c.segStart = now
	c.speed = c.effSpeed()
	if t.pendingWork > 0 {
		wall := sim.Duration(float64(t.pendingWork)/c.speed + 0.5)
		if wall < 1 {
			wall = 1
		}
		c.burning = true
		c.completion = c.k.eng.AfterCall(wall, c.k.workDoneFn, c)
	} else {
		c.burning = false
		c.completion = sim.Event{}
	}
}

// stopSegment ends the current run segment, charging progress and CPU
// time. Safe to call when no segment is active.
func (c *CPU) stopSegment() {
	t := c.curr
	if t == nil {
		return
	}
	now := c.k.eng.Now()
	elapsed := now - c.segStart
	if elapsed > 0 {
		t.cpuTime += elapsed
	}
	if c.burning {
		progress := sim.Duration(float64(elapsed)*c.speed + 0.5)
		if progress >= t.pendingWork {
			t.pendingWork = 0
		} else {
			t.pendingWork -= progress
		}
		c.completion.Cancel()
		c.burning = false
	}
	c.segStart = now
}

// resegment restarts the current segment with a fresh speed, e.g. after
// the SMT sibling's busy state changed.
func (c *CPU) resegment() {
	if c.curr == nil || c.switching {
		return
	}
	c.stopSegment()
	c.startSegment()
}

// smtChanged is invoked when this CPU's busy state flips, so the sibling
// can re-derive its execution speed.
func (c *CPU) smtChanged() {
	sib := c.Info.Sibling()
	if sib == hw.NoCPU {
		return
	}
	sc := c.k.cpus[sib]
	if sc.curr != nil && !sc.switching && sc.speed != sc.effSpeed() {
		sc.resegment()
	}
}
