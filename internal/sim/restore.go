package sim

import (
	"fmt"
	"reflect"
	"sort"
)

// Snapshot/restore support (DESIGN.md §3j). The engine's pending-event
// structure is serialized as a flat (at, seq) ordered list; restore clears
// the live structure (Reset) and re-files each record with its original
// sequence number (RestoreEvent), so the restored dispatch order is the
// exact total order the original run would have produced. Only quiescent
// barriers are snapshot points: RunUntil has returned and no event is
// mid-dispatch.

// PendingEvent is one serializable pending event: its firing time, its
// schedule-time sequence number (the FIFO tie-break), and its callback in
// either form.
type PendingEvent struct {
	At  Time
	Seq uint64
	Fn  func()
	AFn func(any)
	Arg any
}

// Pending returns every live pending event in (at, seq) dispatch order.
func (e *Engine) Pending() []PendingEvent {
	var evs []PendingEvent
	add := func(ev *event) {
		evs = append(evs, PendingEvent{At: ev.at, Seq: ev.seq, Fn: ev.fn, AFn: ev.afn, Arg: ev.arg})
	}
	for i := range e.buckets {
		for _, ev := range e.buckets[i] {
			add(ev)
		}
	}
	for _, ev := range e.spill {
		add(ev)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		return evs[i].Seq < evs[j].Seq
	})
	return evs
}

// Reset drops every live event (recycling storage and invalidating
// outstanding handles) and primes the clock, sequence counter and
// diagnostic counters from a snapshot. Restored events are re-filed
// afterwards with RestoreEvent.
func (e *Engine) Reset(now Time, seq uint64, executed uint64, maxQueue int) {
	for i := range e.buckets {
		b := e.buckets[i]
		for j, ev := range b {
			ev.idx = -1
			e.recycle(ev)
			b[j] = nil
		}
		e.buckets[i] = b[:0]
	}
	for i := range e.occ {
		e.occ[i] = 0
	}
	e.nbucket = 0
	for i, ev := range e.spill {
		ev.idx = -1
		e.recycle(ev)
		e.spill[i] = nil
	}
	e.spill = e.spill[:0]
	e.minEv = nil
	e.now = now
	e.base = (now >> bucketShift) << bucketShift
	e.seq = seq
	e.Executed = executed
	e.MaxQueue = maxQueue
}

// Seq returns the engine's next-sequence counter (snapshot save).
func (e *Engine) Seq() uint64 { return e.seq }

// RestoreEvent re-files a serialized event with its original (at, seq)
// pair, bypassing the monotonic sequence draw. The caller must have Reset
// the engine with the snapshot's sequence counter so that later schedule
// calls draw sequence numbers above every restored event.
func (e *Engine) RestoreEvent(at Time, seq uint64, fn func(), afn func(any), arg any) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: restoring event at %v before now %v", at, e.now))
	}
	e.sync()
	ev := e.alloc()
	ev.at, ev.fn, ev.afn, ev.arg, ev.seq = at, fn, afn, arg, seq
	e.push(ev)
	return Event{e: ev, gen: ev.gen}
}

// SameFn reports whether two callback values point at the same function
// code. Method values made from the same method compare equal regardless
// of receiver — snapshot classifiers disambiguate via the event argument.
func SameFn(a, b func(any)) bool {
	return a != nil && b != nil && reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// ClassifyEvent recognizes the sim package's own pre-bound callbacks.
// Tickers and deadlines are serialized by their stable Key, assigned at
// construction by the owning subsystem; an unkeyed ticker or deadline is
// not snapshottable and makes ok false.
func ClassifyEvent(afn func(any), arg any) (kind, key string, ok bool) {
	switch v := arg.(type) {
	case *Ticker:
		if SameFn(afn, tickerFire) {
			return "sim.ticker", v.Key, v.Key != ""
		}
	case *Deadline:
		if SameFn(afn, deadlineFire) {
			return "sim.deadline", v.Key, v.Key != ""
		}
	}
	return "", "", false
}

// TickerFireFn exposes the ticker dispatch callback for event restore.
func TickerFireFn() func(any) { return tickerFire }

// DeadlineFireFn exposes the deadline dispatch callback for event restore.
func DeadlineFireFn() func(any) { return deadlineFire }
