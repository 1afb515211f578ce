package sim

// Deadline is a re-armable one-shot timer: Arm schedules a function at
// an absolute time, replacing any previously armed firing. It exists for
// recovery timeouts — the enclave's upgrade-attach fallback, fault
// windows — that are armed and disarmed as state changes.
//
// The callback is stored on the struct and dispatched through a
// package-level trampoline (rather than captured in a per-Arm closure),
// so Arm allocates no closure and a pending firing is identifiable by
// the deadline's Key. Snapshots refuse an armed deadline.
type Deadline struct {
	eng *Engine
	fn  func()
	ev  Event

	// Key is the deadline's stable identity across snapshot/restore; see
	// Ticker.Key.
	Key string
}

// deadlineFire dispatches an armed deadline (allocation-free AtCall path).
func deadlineFire(a any) {
	d := a.(*Deadline)
	if fn := d.fn; fn != nil {
		fn()
	}
}

// NewDeadline returns a disarmed deadline bound to eng.
func NewDeadline(eng *Engine) *Deadline { return &Deadline{eng: eng} }

// Arm schedules fn to run at t, cancelling any pending firing first.
// The generational Event handle goes stale once the deadline fires, so no
// explicit cleanup wrapper is needed around fn.
func (d *Deadline) Arm(t Time, fn func()) {
	d.ev.Cancel()
	d.fn = fn
	d.ev = d.eng.AtCall(t, deadlineFire, d)
}

// Cancel disarms the deadline; a no-op when nothing is pending.
func (d *Deadline) Cancel() { d.ev.Cancel() }

// Pending reports whether a firing is scheduled.
func (d *Deadline) Pending() bool { return d.ev.Pending() }
