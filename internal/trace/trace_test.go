// End-to-end tests for the trace subsystem, driven through the public
// ghost API (an external test package, so importing the facade is not a
// cycle). They pin down the properties the trace format promises:
// same-seed determinism, Perfetto-loadable structure, and metrics
// consistent with the Table 3 cost model.
package trace_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ghost"
	"ghost/internal/hw"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// scenario runs a small deterministic machine — 4 CPUs, a centralized
// FIFO enclave on CPUs 1-3, plus one CFS and one MicroQuanta thread on
// CPU 0 — and returns the trace JSON and final metrics.
func scenario(t *testing.T) ([]byte, *ghost.Metrics) {
	t.Helper()
	return runScenario(t, ghost.WithTrace(ghost.NewTracer()))
}

// runScenario is scenario on a machine built with opts.
func runScenario(t *testing.T, opts ...ghost.MachineOption) ([]byte, *ghost.Metrics) {
	t.Helper()
	topo := ghost.NewTopology(ghost.TopologyConfig{
		Name: "tiny", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 4, SMTWidth: 1,
	})
	m := ghost.NewMachine(topo, opts...)
	defer m.Shutdown()

	enc := m.NewEnclave(ghost.MaskOf(1, 2, 3), ghost.WithWatchdog(50*ghost.Millisecond))
	m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())

	worker := ghost.Sequential(func(tc *ghost.SeqTask) {
		for i := 0; i < 40; i++ {
			tc.Run(5 * ghost.Microsecond)
			tc.Sleep(20 * ghost.Microsecond)
		}
	})
	for i := 0; i < 3; i++ {
		m.Spawn(ghost.ThreadOpts{Name: "gw", Class: ghost.Ghost(enc)}, worker)
	}
	m.Spawn(ghost.ThreadOpts{Name: "cfs", Affinity: ghost.MaskOf(0)}, worker)
	m.Spawn(ghost.ThreadOpts{Name: "mq", Affinity: ghost.MaskOf(0), Class: ghost.MicroQuanta}, worker)

	m.Run(2 * ghost.Millisecond)

	var buf bytes.Buffer
	if err := m.TraceTo(&buf); err != nil {
		t.Fatalf("TraceTo: %v", err)
	}
	return buf.Bytes(), m.Metrics()
}

// TestTraceDeterminism: two identical runs must produce byte-identical
// trace files — the foundation for golden files and for diffing traces
// across code changes.
func TestTraceDeterminism(t *testing.T) {
	a, _ := scenario(t)
	b, _ := scenario(t)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed runs produced different trace bytes")
	}
}

func TestTraceGolden(t *testing.T) {
	got, _ := scenario(t)
	golden := filepath.Join("testdata", "global_fifo.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/trace -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from golden %s (len got=%d want=%d); rerun with -update if the change is intended",
			golden, len(got), len(want))
	}
}

// faultScenario is scenario plus a fault plan exercising every window
// kind and a forced upgrade, so the golden file pins the fault track's
// byte-level format alongside the scheduling events.
func faultScenario(t *testing.T) ([]byte, *ghost.Metrics) {
	t.Helper()
	topo := ghost.NewTopology(ghost.TopologyConfig{
		Name: "tiny", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 4, SMTWidth: 1,
	})
	plan := ghost.NewFaultPlan(7)
	plan.Stall(200*ghost.Microsecond, 100*ghost.Microsecond)
	plan.DropMsgs(400*ghost.Microsecond, 200*ghost.Microsecond, 0.5)
	plan.DelayMsgs(700*ghost.Microsecond, 200*ghost.Microsecond, 30*ghost.Microsecond)
	plan.DelayIPIs(ghost.Time(ghost.Millisecond), 200*ghost.Microsecond, 20*ghost.Microsecond)
	plan.FailTxns(1300*ghost.Microsecond, 200*ghost.Microsecond, 0.5)
	plan.Upgrade(1600 * ghost.Microsecond)
	m := ghost.NewMachine(topo, ghost.WithTrace(ghost.NewTracer()), ghost.WithFaults(plan))
	defer m.Shutdown()

	enc := m.NewEnclave(ghost.MaskOf(1, 2, 3), ghost.WithWatchdog(50*ghost.Millisecond))
	m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global(),
		ghost.WithUpgradePolicy(func() any { return ghost.NewFIFOPolicy() }))

	worker := ghost.Sequential(func(tc *ghost.SeqTask) {
		for i := 0; i < 40; i++ {
			tc.Run(5 * ghost.Microsecond)
			tc.Sleep(20 * ghost.Microsecond)
		}
	})
	for i := 0; i < 3; i++ {
		m.Spawn(ghost.ThreadOpts{Name: "gw", Class: ghost.Ghost(enc)}, worker)
	}
	m.Run(2 * ghost.Millisecond)

	var buf bytes.Buffer
	if err := m.TraceTo(&buf); err != nil {
		t.Fatalf("TraceTo: %v", err)
	}
	return buf.Bytes(), m.Metrics()
}

// TestFaultTraceDeterminism: the same seed and plan must produce
// byte-identical traces — injected faults draw from the plan's own
// seeded stream, never from wall-clock or map-order state.
func TestFaultTraceDeterminism(t *testing.T) {
	a, _ := faultScenario(t)
	b, _ := faultScenario(t)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed+plan runs produced different trace bytes")
	}
}

func TestFaultTraceGolden(t *testing.T) {
	got, ms := faultScenario(t)
	golden := filepath.Join("testdata", "faults_fifo.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/trace -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fault trace differs from golden %s (len got=%d want=%d); rerun with -update if the change is intended",
			golden, len(got), len(want))
	}
	for _, kind := range []string{"stall", "upgrade"} {
		if ms.Faults[kind] == 0 {
			t.Errorf("fault kind %q not counted in metrics (have %v)", kind, ms.Faults)
		}
	}
}

// TestFaultTraceStructure: injected faults appear as instant events on
// their own named track, in the "fault" category.
func TestFaultTraceStructure(t *testing.T) {
	raw, _ := faultScenario(t)
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var faultEvents int
	var faultTrack bool
	for _, e := range tf.TraceEvents {
		if e.Cat == "fault" {
			faultEvents++
			if e.Pid != 4 {
				t.Errorf("fault event %q on pid %d, want 4", e.Name, e.Pid)
			}
		}
		if e.Ph == "M" && e.Name == "process_name" && e.Pid == 4 {
			faultTrack = true
		}
	}
	if faultEvents == 0 {
		t.Error("no fault events recorded")
	}
	if !faultTrack {
		t.Error("no named faults track (pid 4) in trace metadata")
	}
}

type traceFile struct {
	TraceEvents []struct {
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestTraceStructure: the output is valid Chrome trace_event JSON with
// the required categories and one named track per CPU.
func TestTraceStructure(t *testing.T) {
	raw, _ := scenario(t)
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", tf.DisplayTimeUnit)
	}

	cats := map[string]bool{}
	cpuTracks := map[int]bool{}
	for _, e := range tf.TraceEvents {
		if e.Cat != "" {
			cats[e.Cat] = true
		}
		if e.Ph == "M" && e.Name == "thread_name" && e.Pid == 1 {
			cpuTracks[e.Tid] = true
		}
	}
	for _, want := range []string{"ctxswitch", "message", "txn", "agent"} {
		if !cats[want] {
			t.Errorf("category %q missing from trace (have %v)", want, cats)
		}
	}
	for cpu := 0; cpu < 4; cpu++ {
		if !cpuTracks[cpu] {
			t.Errorf("no track for cpu%d", cpu)
		}
	}
}

// TestMetricsCostModel: latency medians in the metrics must match the
// Table 3 cost-model constants the simulator charges.
func TestMetricsCostModel(t *testing.T) {
	_, ms := scenario(t)
	em := ms.Enclaves[0]
	if em == nil {
		t.Fatal("no metrics for enclave 0")
	}
	if em.TxnsCommitted == 0 || em.MsgsDelivered == 0 || em.AgentSteps == 0 {
		t.Fatalf("empty metrics: %+v", em)
	}
	cm := hw.DefaultCostModel()
	// The centralized FIFO commits single remote transactions: the agent
	// pays RemoteCommitAgentCost(1) and the target CPU receives the IPI
	// after RemoteCommitTargetCost(1, sameSocket).
	want := cm.RemoteCommitAgentCost(1) + cm.RemoteCommitTargetCost(1, false)
	got := em.TxnCommit.P50()
	if diff := float64(got-want) / float64(want); diff > 0.05 || diff < -0.05 {
		t.Errorf("txn commit median = %v, want %v (±5%%)", got, want)
	}
	if em.CommitRate() < 0.9 {
		t.Errorf("commit rate = %.2f, want >= 0.9", em.CommitRate())
	}
}

// TestDisabledTracer: without WithTrace the machine still counts
// metrics but records no events, and the JSON export stays valid.
func TestDisabledTracer(t *testing.T) {
	topo := ghost.NewTopology(ghost.TopologyConfig{
		Name: "tiny", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 2, SMTWidth: 1,
	})
	m := ghost.NewMachine(topo)
	defer m.Shutdown()
	m.Spawn(ghost.ThreadOpts{Name: "w"}, ghost.Sequential(func(tc *ghost.SeqTask) {
		for i := 0; i < 10; i++ {
			tc.Run(5 * ghost.Microsecond)
			tc.Sleep(5 * ghost.Microsecond)
		}
	}))
	m.Run(ghost.Millisecond)

	if m.Tracer() != nil {
		t.Fatal("default machine should not record events")
	}
	if ms := m.Metrics(); ms.CtxSwitches == 0 {
		t.Error("untraced machine lost context-switch counts")
	}
	var buf bytes.Buffer
	if err := m.TraceTo(&buf); err != nil {
		t.Fatalf("TraceTo: %v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	for _, e := range tf.TraceEvents {
		if e.Ph != "M" {
			t.Fatalf("untraced machine's trace contains event %+v", e)
		}
	}
}

// servingMetrics builds a serving machine (a centralized FIFO enclave on
// CPUs 0-3, a worker pool fed by a Poisson source, a spinner), runs it
// 2 ms, snapshots it, restores the snapshot and runs the restored
// machine 2 ms more. It returns the metrics of both machines.
func servingMetrics(t *testing.T) (before, restored *ghost.Metrics) {
	t.Helper()
	m := ghost.NewMachine(ghost.XeonE5())
	defer m.Shutdown()
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3))
	m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
	pool := m.NewWorkerPool(3, &ghost.LatencyRecorder{}, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(enc)}, body)
	})
	m.AddSnapshotComponent("pool", pool)
	src := m.NewPoissonSource(ghost.NewRand(7), 40_000, ghost.ExponentialService(20*ghost.Microsecond),
		func(r *ghost.Request) { pool.Submit(r) })
	m.AddSnapshotComponent("src", src)
	m.SpawnSpinner(ghost.ThreadOpts{Name: "spin", Class: ghost.Ghost(enc)}, 15*ghost.Microsecond)
	m.Run(2 * ghost.Millisecond)

	s, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	r, err := ghost.Restore(s, ghost.WithRestoredComponent("src", func(m *ghost.Machine) (ghost.SnapshotComponent, error) {
		pool, ok := m.SnapshotComponent("pool").(*ghost.WorkerPool)
		if !ok {
			return nil, errors.New("pool not restored before src")
		}
		return m.NewPoissonShell(func(r *ghost.Request) { pool.Submit(r) }), nil
	}))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r.Shutdown()
	r.Run(2 * ghost.Millisecond)
	return m.Metrics(), r.Metrics()
}

// TestMetricsGolden pins the Metrics report of the trace scenarios, of
// the untraced scenario (which must count exactly what the traced one
// counts) and of a serving machine before and after a snapshot restore,
// so a change to where statistics are counted proves itself against
// these bytes.
func TestMetricsGolden(t *testing.T) {
	_, traced := scenario(t)
	_, untraced := runScenario(t)
	if traced.String() != untraced.String() {
		t.Errorf("untraced scenario metrics differ from traced:\n%s\nwant:\n%s", untraced, traced)
	}
	_, faulted := faultScenario(t)
	before, restored := servingMetrics(t)
	var b bytes.Buffer
	for _, sec := range []struct {
		name string
		m    *ghost.Metrics
	}{
		{"scenario", traced},
		{"faultScenario", faulted},
		{"serving at 2ms", before},
		{"serving restored at 2ms, run to 4ms", restored},
	} {
		b.WriteString("== " + sec.name + "\n")
		b.WriteString(sec.m.String())
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/trace -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("metrics differ from golden %s; rerun with -update if the change is intended\ngot:\n%s", golden, b.Bytes())
	}
}
