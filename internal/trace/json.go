package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"ghost/internal/sim"
)

// args holds a trace event's argument dictionary. encoding/json
// serialises map keys in sorted order, so output is deterministic.
type args map[string]any

// event is one Chrome trace_event record. ts/dur are simulated
// nanoseconds; the writer converts them to the format's microsecond unit
// with fixed three-decimal precision so output is byte-stable.
type event struct {
	ph    string
	pid   int
	tid   int
	ts    sim.Time
	dur   sim.Duration
	name  string
	cat   string
	scope string
	args  args
}

// usec renders a nanosecond timestamp as fixed-point microseconds.
func usec(ns sim.Time) string {
	return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64)
}

func (e *event) writeTo(w *bufio.Writer) error {
	w.WriteString(`{"ph":`)
	w.WriteString(strconv.Quote(e.ph))
	if e.name != "" {
		w.WriteString(`,"name":`)
		w.WriteString(strconv.Quote(e.name))
	}
	if e.cat != "" {
		w.WriteString(`,"cat":`)
		w.WriteString(strconv.Quote(e.cat))
	}
	fmt.Fprintf(w, `,"pid":%d,"tid":%d`, e.pid, e.tid)
	w.WriteString(`,"ts":`)
	w.WriteString(usec(e.ts))
	if e.ph == "X" {
		w.WriteString(`,"dur":`)
		w.WriteString(usec(sim.Time(e.dur)))
	}
	if e.scope != "" {
		w.WriteString(`,"s":`)
		w.WriteString(strconv.Quote(e.scope))
	}
	if len(e.args) > 0 {
		enc, err := json.Marshal(e.args)
		if err != nil {
			return err
		}
		w.WriteString(`,"args":`)
		w.Write(enc)
	}
	_, err := w.WriteString("}")
	return err
}

// track identifies one (pid, tid) timeline in the output.
type track struct{ pid, tid int }

// trackNames produces the Perfetto process/thread labels.
func (tk track) names() (process, thread string) {
	switch tk.pid {
	case pidCPUs:
		return "cpus", fmt.Sprintf("cpu%d", tk.tid)
	case pidAgents:
		return "agents", fmt.Sprintf("agent@cpu%d", tk.tid)
	case pidEnclaves:
		return "enclaves", fmt.Sprintf("enclave%d", tk.tid)
	case pidFaults:
		return "faults", "injector"
	}
	return fmt.Sprintf("pid%d", tk.pid), fmt.Sprintf("tid%d", tk.tid)
}

// WriteJSON emits the recorded timeline as Chrome trace_event JSON,
// loadable in Perfetto or chrome://tracing. Track-name metadata records
// come first (sorted), then events in emission order, then "E" records
// closing any still-open per-CPU slices at the last recorded timestamp.
// Output is byte-identical across same-seed runs.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		t = &Tracer{}
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)

	// Collect the tracks referenced by any event.
	seen := map[track]bool{}
	for i := range t.evs {
		seen[track{t.evs[i].pid, t.evs[i].tid}] = true
	}
	tracks := make([]track, 0, len(seen))
	for tk := range seen {
		tracks = append(tracks, tk)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})

	first := true
	emit := func(e *event) error {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		return e.writeTo(bw)
	}

	// Metadata: process and thread names, plus sort indices so CPU
	// tracks appear in numeric order.
	procSeen := map[int]bool{}
	for _, tk := range tracks {
		proc, thr := tk.names()
		if !procSeen[tk.pid] {
			procSeen[tk.pid] = true
			if err := emit(&event{ph: "M", pid: tk.pid, tid: 0, name: "process_name",
				args: args{"name": proc}}); err != nil {
				return err
			}
			if err := emit(&event{ph: "M", pid: tk.pid, tid: 0, name: "process_sort_index",
				args: args{"sort_index": int64(tk.pid)}}); err != nil {
				return err
			}
		}
		if err := emit(&event{ph: "M", pid: tk.pid, tid: tk.tid, name: "thread_name",
			args: args{"name": thr}}); err != nil {
			return err
		}
		if err := emit(&event{ph: "M", pid: tk.pid, tid: tk.tid, name: "thread_sort_index",
			args: args{"sort_index": int64(tk.tid)}}); err != nil {
			return err
		}
	}

	for i := range t.evs {
		if err := emit(&t.evs[i]); err != nil {
			return err
		}
	}

	// Close slices still open at the end of the run.
	openCPUs := make([]int, 0, len(t.open))
	for c, tid := range t.open {
		if tid != 0 {
			openCPUs = append(openCPUs, c)
		}
	}
	sort.Ints(openCPUs)
	for _, c := range openCPUs {
		if err := emit(&event{ph: "E", pid: pidCPUs, tid: c, ts: t.lastTs}); err != nil {
			return err
		}
	}

	bw.WriteString("],\n")
	bw.WriteString(`"displayTimeUnit":"ns"}`)
	bw.WriteString("\n")
	return bw.Flush()
}
