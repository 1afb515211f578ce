package kernel

import (
	"ghost/internal/hw"
	"ghost/internal/sim"
	"ghost/internal/tunable"
)

// mqThread is the per-thread MicroQuanta state embedded in Thread.
type mqThread struct {
	budget      sim.Duration
	periodStart sim.Time
	throttled   bool
	onRq        bool
	acctMark    sim.Duration
	refill      sim.Event
	throttleEv  sim.Event
}

// MicroQuanta reproduces Google's soft real-time scheduler for Snap
// worker threads (§4.3): each thread may consume at most Quanta of CPU
// per Period at a priority above CFS; once the quanta is exhausted the
// thread is throttled until the period refills — the source of the
// "networking blackouts of up to 0.1 ms" the paper describes.
type MicroQuanta struct {
	k      *Kernel
	Period sim.Duration
	Quanta sim.Duration
	queue  []*Thread // global FIFO of unthrottled runnable threads

	// Bound once so throttle/refill timers schedule allocation-free.
	throttleFn func(any)
	refillFn   func(any)
	tun        *tunable.Set
}

// NewMicroQuanta creates and registers the MicroQuanta class with the
// paper's parameters (period 1 ms, quanta 0.9 ms).
func NewMicroQuanta(k *Kernel) *MicroQuanta {
	m := &MicroQuanta{k: k, Period: sim.Millisecond, Quanta: 900 * sim.Microsecond}
	m.throttleFn = m.throttleFire
	m.refillFn = m.refillFire
	k.RegisterClass(m)
	return m
}

// Tunables implements tunable.Policy: the period/quanta pair the
// auto-tuner may search (cmd/ghost-tune). New values take effect at each
// thread's next refill; changing them mid-run does not revoke budgets
// already granted.
func (m *MicroQuanta) Tunables() *tunable.Set {
	if m.tun == nil {
		m.tun = tunable.NewSet().
			Add(tunable.Tunable{
				Name: "period_us", Doc: "refill period in µs (paper: 1000)",
				Min: 200, Max: 10_000, Default: 1000, Log: true,
				Apply: func(v float64) { m.Period = sim.Duration(v * float64(sim.Microsecond)) },
			}).
			Add(tunable.Tunable{
				Name: "quanta_us", Doc: "CPU budget per period in µs (paper: 900)",
				Min: 50, Max: 5000, Default: 900, Log: true,
				Apply: func(v float64) {
					m.Quanta = sim.Duration(v * float64(sim.Microsecond))
					if m.Quanta > m.Period {
						m.Quanta = m.Period
					}
				},
			})
	}
	return m.tun
}

// Name implements Class.
func (m *MicroQuanta) Name() string { return "microquanta" }

// Priority implements Class.
func (m *MicroQuanta) Priority() int { return PrioMicroQuanta }

// SwitchInCost implements Class.
func (m *MicroQuanta) SwitchInCost() sim.Duration { return m.k.cost.ContextSwitchCFS }

// ThreadAttached implements Class.
func (m *MicroQuanta) ThreadAttached(t *Thread) {
	t.mq = mqThread{budget: m.Quanta, periodStart: m.k.Now(), acctMark: t.cpuTime}
}

// ThreadDetached implements Class.
func (m *MicroQuanta) ThreadDetached(t *Thread, r DequeueReason) {
	t.mq.refill.Cancel()
	m.disarmThrottle(t)
}

// armThrottle schedules a precise budget-exhaustion check; timer ticks
// alone are too coarse for a 0.9 ms quanta.
func (m *MicroQuanta) armThrottle(t *Thread) {
	m.disarmThrottle(t)
	if t.mq.budget <= 0 {
		return
	}
	t.mq.throttleEv = m.k.eng.AfterCall(t.mq.budget, m.throttleFn, t)
}

// throttleFire is the budget-exhaustion check behind armThrottle.
func (m *MicroQuanta) throttleFire(a any) {
	t := a.(*Thread)
	if t.class != mqClass(m) || t.state != StateRunning {
		return
	}
	m.charge(t)
	if !t.mq.throttled && t.mq.budget > 0 {
		m.armThrottle(t)
	}
}

func (m *MicroQuanta) disarmThrottle(t *Thread) {
	t.mq.throttleEv.Cancel()
}

// mqClass lets the closure compare t.class against the concrete type.
func mqClass(m *MicroQuanta) Class { return m }

// charge consumes budget for runtime since the last accounting mark and
// throttles the thread if it is exhausted.
func (m *MicroQuanta) charge(t *Thread) {
	rt := t.RuntimeNow()
	delta := rt - t.mq.acctMark
	t.mq.acctMark = rt
	if delta <= 0 {
		return
	}
	t.mq.budget -= delta
	if t.mq.budget <= 0 && !t.mq.throttled {
		m.throttle(t)
	}
}

func (m *MicroQuanta) throttle(t *Thread) {
	t.mq.throttled = true
	m.disarmThrottle(t)
	refillAt := t.mq.periodStart + m.Period
	now := m.k.Now()
	if refillAt <= now {
		refillAt = now + 1
	}
	m.k.Tracef("mq: throttle %v until %v", t, refillAt)
	t.mq.refill = m.k.eng.AtCall(refillAt, m.refillFn, t)
	if t.state == StateRunning && t.cpu != nil {
		m.k.Resched(t.cpu.ID)
	} else if t.mq.onRq {
		m.removeQueued(t)
	}
}

// refillFire adapts refill to the engine's pre-bound callback shape.
func (m *MicroQuanta) refillFire(a any) { m.refill(a.(*Thread)) }

func (m *MicroQuanta) refill(t *Thread) {
	if t.state == StateDead || t.class != m {
		return
	}
	t.mq.budget = m.Quanta
	t.mq.periodStart = m.k.Now()
	if !t.mq.throttled {
		return
	}
	t.mq.throttled = false
	if t.state == StateRunnable && !t.mq.onRq {
		t.mq.onRq = true
		m.queue = append(m.queue, t)
		cpu := m.SelectCPU(t)
		t.targetCPU = cpu
		m.k.maybePreempt(m.k.cpus[cpu], t)
	}
}

func (m *MicroQuanta) removeQueued(t *Thread) {
	for i, q := range m.queue {
		if q == t {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			break
		}
	}
	t.mq.onRq = false
}

// Enqueue implements Class.
func (m *MicroQuanta) Enqueue(t *Thread, cpu hw.CPUID, r EnqueueReason) {
	if t.mq.onRq {
		return
	}
	if t.mq.throttled {
		return // held aside until refill
	}
	t.mq.onRq = true
	m.queue = append(m.queue, t)
}

// Dequeue implements Class.
func (m *MicroQuanta) Dequeue(t *Thread, r DequeueReason) {
	m.charge(t)
	if t.mq.onRq {
		m.removeQueued(t)
	}
}

// Queued implements Class.
func (m *MicroQuanta) Queued(c *CPU) bool {
	for _, t := range m.queue {
		if t.affinity.Has(c.ID) {
			return true
		}
	}
	return false
}

// Eligible implements Class: a throttled thread must vacate its CPU.
func (m *MicroQuanta) Eligible(c *CPU, running *Thread) bool {
	m.charge(running)
	return !running.mq.throttled
}

// PickNext implements Class.
func (m *MicroQuanta) PickNext(c *CPU, prev *Thread) *Thread {
	if prev != nil {
		// Run-to-throttle: MicroQuanta threads are not preempted by
		// their peers; throttling is handled via Eligible.
		return prev
	}
	for i, t := range m.queue {
		if t.affinity.Has(c.ID) {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			t.mq.onRq = false
			t.mq.acctMark = t.cpuTime
			m.armThrottle(t)
			return t
		}
	}
	return nil
}

// SelectCPU implements Class: nearest idle CPU, else least recently used.
func (m *MicroQuanta) SelectCPU(t *Thread) hw.CPUID {
	k := m.k
	last := t.lastCPU
	if last != hw.NoCPU && t.affinity.Has(last) && k.cpus[last].FreeForPlacement() {
		return last
	}
	var bestIdle, firstAllowed hw.CPUID = hw.NoCPU, hw.NoCPU
	bestDist := hw.DistRemote + 1
	t.affinity.ForEach(func(id hw.CPUID) bool {
		if firstAllowed == hw.NoCPU {
			firstAllowed = id
		}
		if k.cpus[id].FreeForPlacement() {
			d := hw.DistCCX
			if last != hw.NoCPU {
				d = k.topo.Dist(last, id)
			}
			if d < bestDist {
				bestDist = d
				bestIdle = id
			}
		}
		return true
	})
	if bestIdle != hw.NoCPU {
		return bestIdle
	}
	// No idle CPU: pick one running a lower-priority class if possible.
	var lower hw.CPUID = hw.NoCPU
	t.affinity.ForEach(func(id hw.CPUID) bool {
		cp := k.cpus[id]
		if cp.curr != nil && cp.curr.class.Priority() < m.Priority() {
			lower = id
			return false
		}
		return true
	})
	if lower != hw.NoCPU {
		return lower
	}
	return firstAllowed
}

// WantsPreempt implements Class.
func (m *MicroQuanta) WantsPreempt(c *CPU, curr, incoming *Thread) bool { return false }

// Tick implements Class: budget enforcement.
func (m *MicroQuanta) Tick(c *CPU, t *Thread) {
	m.charge(t)
}

// AffinityChanged implements Class.
func (m *MicroQuanta) AffinityChanged(t *Thread) {}
