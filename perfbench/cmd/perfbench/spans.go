package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ghost"
)

// spanID names one span kind; ids are interned per tracer.
type spanID uint16

// Structural span kinds, interned first by newTracer in this order.
const (
	spWindow   spanID = iota // the timed window: the root span of a run
	spSimRun                 // one Machine.Run call (engine, kernel, ghostcore, agentsdk)
	spEnvStep                // one Env.Step call on the measured environment
	spEnvFork                // one Env.Fork call (snapshot + restore)
	spSchedule               // GlobalPolicy.Schedule
	spOnMsg                  // GlobalPolicy.OnMessage
	spTxnFail                // GlobalPolicy.OnTxnFail
	spSubmit                 // the Poisson sink: WorkerPool.Submit
	spCalib                  // the benchmark's own calibration slice (calib.go)
)

var structuralNames = []string{
	"window", "sim.run", "env.step", "snap.fork",
	"policies.schedule", "policies.on_message", "policies.on_txn_fail",
	"workload.submit", "bench.calib",
}

// kept reports whether individual spans of a kind are kept: the window,
// sim.run, env.step and snap.fork kinds are. The others fire up to
// millions of times per run and are kept only as per-name aggregates;
// their durations still count against the parent's self time.
func kept(id spanID) bool { return id <= spEnvFork }

// spanAgg is the per-name aggregate of a run.
type spanAgg struct {
	Count uint64
	Total int64 // ns, sum of span durations
	Self  int64 // ns, Total minus the time covered by child spans
	Hist  ghost.Histogram
}

// spanRec is one kept span. Parent indexes the enclosing kept span in
// the same run, -1 for the root.
type spanRec struct {
	Name   spanID
	Run    int32
	Parent int32
	Start  int64 // ns since the tracer was created
	End    int64
}

type frame struct {
	id    spanID
	start int64
	child int64 // ns covered by completed child spans
	rec   int32 // index into recs, -1 when not kept
}

// tracer records spans at the boundaries the benchmark wraps. It is
// active only while a window (root span) is open, so set-up and
// teardown callbacks are neither timed nor counted. The simulator runs
// one goroutine at a time with channel handoffs between them, so the
// span stack needs no locking.
type tracer struct {
	base   time.Time
	names  []string
	byName map[string]spanID
	run    int32
	active bool
	stack  []frame
	aggs   []spanAgg
	recs   []spanRec
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), byName: map[string]spanID{}, run: -1}
	for _, n := range structuralNames {
		t.intern(n)
	}
	return t
}

func (t *tracer) intern(name string) spanID {
	if id, ok := t.byName[name]; ok {
		return id
	}
	id := spanID(len(t.names))
	t.names = append(t.names, name)
	t.byName[name] = id
	t.aggs = append(t.aggs, spanAgg{})
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// startRun opens the root span of a new run and clears the aggregates.
func (t *tracer) startRun() {
	if t == nil {
		return
	}
	t.run++
	for i := range t.aggs {
		t.aggs[i] = spanAgg{}
	}
	t.active = true
	t.begin(spWindow)
}

// endRun closes the root span and stops recording.
func (t *tracer) endRun() {
	if t == nil {
		return
	}
	t.end()
	t.active = false
}

// begin opens a span; a nil or inactive tracer records nothing.
func (t *tracer) begin(id spanID) {
	if t == nil || !t.active {
		return
	}
	f := frame{id: id, start: t.now(), rec: -1}
	if kept(id) {
		parent := int32(-1)
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i].rec >= 0 {
				parent = t.stack[i].rec
				break
			}
		}
		f.rec = int32(len(t.recs))
		t.recs = append(t.recs, spanRec{Name: id, Run: t.run, Parent: parent, Start: f.start})
	}
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	if t == nil || !t.active {
		return
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	end := t.now()
	d := end - f.start
	a := &t.aggs[f.id]
	a.Count++
	a.Total += d
	a.Self += d - f.child
	if id := f.id; id <= spSchedule {
		// Only the kinds whose percentiles are reported pay for the
		// histogram.
		a.Hist.Record(ghost.Duration(d))
	}
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	}
	if f.rec >= 0 {
		t.recs[f.rec].End = end
	}
}

// agg returns the current run's aggregate for the named span kind.
func (t *tracer) agg(name string) *spanAgg {
	id, ok := t.byName[name]
	if !ok {
		return &spanAgg{}
	}
	return &t.aggs[id]
}

// sumPrefix returns the summed count and self time of every span kind
// whose name has the given prefix ("" for all).
func (t *tracer) sumPrefix(prefix string) (count uint64, self int64) {
	for i, n := range t.names {
		if strings.HasPrefix(n, prefix) {
			count += t.aggs[i].Count
			self += t.aggs[i].Self
		}
	}
	return count, self
}

// runAggs copies the current run's aggregates, keyed by name, for the
// span file.
func (t *tracer) runAggs() []aggOut {
	var out []aggOut
	for i, n := range t.names {
		a := &t.aggs[i]
		if a.Count == 0 {
			continue
		}
		out = append(out, aggOut{Name: n, Count: a.Count, TotalNs: a.Total, SelfNs: a.Self,
			P50Ns: int64(a.Hist.P50()), P99Ns: int64(a.Hist.P99())})
	}
	return out
}

type aggOut struct {
	Name    string `json:"name"`
	Count   uint64 `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
	P50Ns   int64  `json:"p50_ns"`
	P99Ns   int64  `json:"p99_ns"`
}

type recOut struct {
	Name    string `json:"name"`
	Run     int32  `json:"run"`
	Parent  int32  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanFile is what a traced invocation writes when it ends.
type spanFile struct {
	Meta  meta       `json:"meta"`
	Runs  [][]aggOut `json:"runs"`
	Spans []recOut   `json:"spans"`
}

// write stores the kept spans and the per-run aggregates as JSON.
func (t *tracer) write(path string, m meta, runs [][]aggOut) error {
	f := spanFile{Meta: m, Runs: runs, Spans: make([]recOut, len(t.recs))}
	for i, r := range t.recs {
		f.Spans[i] = recOut{Name: t.names[r.Name], Run: r.Run, Parent: r.Parent, StartNs: r.Start, EndNs: r.End}
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
