package sim

// Ticker invokes a callback at a fixed period of simulated time. It is the
// building block for kernel timer ticks and statistics samplers.
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func(Time)
	ev      Event
	stopped bool

	// Key, when set, is the ticker's stable identity across
	// snapshot/restore: subsystems that own long-lived tickers assign a
	// unique key at construction, the snapshot records the pending firing
	// under that key, and restore re-links it to the reconstructed ticker.
	// An unkeyed ticker with a pending firing makes its machine
	// non-snapshottable (sim.ClassifyEvent).
	Key string
}

// tickerFire dispatches a ticker firing; package-level so re-arming goes
// through the engine's allocation-free AfterCall path.
func tickerFire(a any) {
	t := a.(*Ticker)
	if t.stopped {
		return
	}
	t.fn(t.engine.Now())
	if !t.stopped {
		t.arm()
	}
}

// NewTicker starts a ticker whose first fire is one period from now.
// The callback receives the fire time.
func NewTicker(e *Engine, period Duration, fn func(Time)) *Ticker {
	t := NewStoppedTicker(e, period, fn)
	t.arm()
	return t
}

// NewStoppedTicker creates a ticker without arming it; Start arms the
// first fire one period from the call. It exists so subsystems can build
// their ticker objects eagerly (giving snapshots a stable object to link
// pending firings to) while deferring the first fire.
func NewStoppedTicker(e *Engine, period Duration, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	return &Ticker{engine: e, period: period, fn: fn}
}

// Start arms an unarmed ticker; the first fire is one period from now.
func (t *Ticker) Start() {
	if t.stopped || t.ev.Pending() {
		return
	}
	t.arm()
}

func (t *Ticker) arm() {
	t.ev = t.engine.AfterCall(t.period, tickerFire, t)
}

// Stop halts the ticker; the callback will not fire again.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

// Period returns the ticker's current period.
func (t *Ticker) Period() Duration { return t.period }

// Stopped reports whether Stop has been called.
func (t *Ticker) Stopped() bool { return t.stopped }

// RestoreState overlays the ticker's serialized fields (restore path).
func (t *Ticker) RestoreState(period Duration, stopped bool) {
	if period > 0 {
		t.period = period
	}
	t.stopped = stopped
}

// RestoreEvent re-links a restored pending firing to the ticker so that a
// later Stop cancels it, exactly as in the original run.
func (t *Ticker) RestoreEvent(ev Event) { t.ev = ev }
