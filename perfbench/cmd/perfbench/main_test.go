package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ghost"
)

// short returns the named workload with horizons small enough for a
// smoke run: a few simulated milliseconds, two forks in env-fork.
func short(t *testing.T, name string) *workloadDef {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	w.warm = ghost.Millisecond
	w.window = 2 * ghost.Millisecond
	return w
}

// benchmarkMetrics reads the metric lists from BENCHMARK.json at the
// repository root.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Fatalf("BENCHMARK.json lists workload %q, which the benchmark does not define", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmokePrintsEveryMetric runs every workload untraced and traced at
// a short horizon and checks the result line carries exactly the
// metrics BENCHMARK.json lists, each with its unit, and that the metric
// lines before it name them too.
func TestSmokePrintsEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			b := newBench(short(t, w.name), defaultSeed, trace, 0)
			var out, errs bytes.Buffer
			if code := b.run(filepath.Join(t.TempDir(), "spans.json"), &out, &errs); code != 0 {
				t.Fatalf("%s trace=%v: exit %d: %s", w.name, trace, code, errs.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Fatalf("%s: result keys: %s", w.name, lines[len(lines)-1])
			}
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			// The recorded digests are for the full horizons, so only the
			// digest comparison may fail here.
			for _, f := range b.failures {
				if !strings.Contains(f, "differs from the recorded") {
					t.Errorf("%s trace=%v: %s", w.name, trace, f)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, name, m, unit)
				}
				if !strings.Contains(out.String(), name+" ") {
					t.Errorf("%s trace=%v: no line for %s", w.name, trace, name)
				}
			}
			if !trace {
				for name := range want {
					if r.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, name, r.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestDigestStable runs every workload twice in one process, untraced
// and traced, and requires one digest; serve-oracles must match
// serve-shinjuku at the same horizon.
func TestDigestStable(t *testing.T) {
	digests := map[string]string{}
	for _, w := range workloads() {
		b := newBench(short(t, w.name), 7, true, 0)
		first := b.op(false)
		second := b.op(true)
		if first.digest == "" || first.digest != second.digest {
			t.Errorf("%s: untraced digest %q, traced %q", w.name, first.digest, second.digest)
		}
		if len(first.failures)+len(second.failures) > 0 {
			t.Errorf("%s: failures %v %v", w.name, first.failures, second.failures)
		}
		digests[w.name] = first.digest
	}
	if digests["serve-oracles"] != digests["serve-shinjuku"] {
		t.Errorf("serve-oracles digest %s != serve-shinjuku %s", digests["serve-oracles"], digests["serve-shinjuku"])
	}
}

// TestSelfTimesSumToWindow checks the span tree: the self times of all
// span kinds add up to the root span's duration, and the wrapped layers
// each workload should touch recorded spans.
func TestSelfTimesSumToWindow(t *testing.T) {
	layers := map[string][]string{
		"serve-shinjuku": {"sim.run", "policies.schedule", "workload.submit"},
		"search-rome":    {"sim.run", "policies.schedule"},
		"serve-oracles":  {"sim.run", "policies.schedule", "workload.submit", "check.status-word.SwitchIn"},
		"env-fork":       {"env.step", "snap.fork"},
	}
	for _, w := range workloads() {
		b := newBench(short(t, w.name), 3, true, 0)
		b.op(true)
		root := b.tr.agg("window")
		if root.Count != 1 {
			t.Fatalf("%s: %d root spans", w.name, root.Count)
		}
		if _, sum := b.tr.sumPrefix(""); sum != root.Total {
			t.Errorf("%s: self times sum to %d ns, root span lasted %d ns", w.name, sum, root.Total)
		}
		for _, name := range layers[w.name] {
			if b.tr.agg(name).Count == 0 {
				t.Errorf("%s: no %s spans", w.name, name)
			}
		}
		if _, check := b.tr.sumPrefix("check."); w.name != "serve-oracles" && check != 0 {
			t.Errorf("%s: check spans without oracles", w.name)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errs bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
