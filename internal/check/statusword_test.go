package check

import (
	"ghost/internal/sequential"
	"reflect"
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
)

// swFixture is a bare machine for driving the status-word oracle by
// hand: a kernel, the ghOSt class, a checker with only that oracle, and
// the enclaves the test builds. No agent runs, so status words change
// only when the test forges them.
type swFixture struct {
	eng *sim.Engine
	k   *kernel.Kernel
	ac  *kernel.AgentClass
	cfs *kernel.CFS
	g   *ghostcore.Class
	c   *Checker
	o   *statusWordOracle
}

func newSWFixture(tb testing.TB, cpus int) *swFixture {
	tb.Helper()
	topo := hw.NewTopology(hw.Config{Name: "sw", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: cpus, SMTWidth: 1})
	eng := sim.NewEngine()
	k := kernel.New(eng, topo, hw.DefaultCostModel())
	ac := kernel.NewAgentClass(k)
	cfs := kernel.NewCFS(k)
	g := ghostcore.NewClass(k, cfs)
	o := newStatusWordOracle()
	c := Attach(k, g, o)
	tb.Cleanup(k.Shutdown)
	return &swFixture{eng: eng, k: k, ac: ac, cfs: cfs, g: g, c: c, o: o}
}

// blocked spawns n CFS threads that block at once, lets them block, and
// moves them into enc, so they are managed and in state Blocked.
func (f *swFixture) blocked(enc *ghostcore.Enclave, n int) []*kernel.Thread {
	out := make([]*kernel.Thread, n)
	for i := range out {
		out[i] = f.k.Spawn(kernel.SpawnOpts{Name: "b", Class: f.cfs}, sequential.Body(func(tc *sequential.Task) {
			for {
				tc.Block()
			}
		}))
	}
	f.eng.RunFor(sim.Millisecond)
	for _, t := range out {
		enc.AddThread(t)
	}
	return out
}

// runnable spawns n threads straight into enc; with no agent they stay
// Runnable and their status words never claim a CPU.
func (f *swFixture) runnable(enc *ghostcore.Enclave, n int) []*kernel.Thread {
	out := make([]*kernel.Thread, n)
	for i := range out {
		out[i] = enc.SpawnThread(kernel.SpawnOpts{Name: "r"}, sequential.Body(func(tc *sequential.Task) {
			tc.Run(sim.Millisecond)
		}))
	}
	return out
}

func forgeOnCPU(enc *ghostcore.Enclave, t *kernel.Thread, cpu hw.CPUID) {
	sw := enc.StatusWord(t)
	sw.OnCPU = true
	sw.CPU = cpu
}

func (f *swFixture) messages() []string {
	var out []string
	for _, v := range f.c.Violations() {
		out = append(out, v.Msg)
	}
	return out
}

// TestStatusWordReportText pins the oracle's report text and order: the
// per-thread state reports come in TID order within an enclave, then the
// duplicate-claim reports in CPU order, enclave by enclave.
func TestStatusWordReportText(t *testing.T) {
	t.Run("OnCpuWhileBlocked", func(t *testing.T) {
		f := newSWFixture(t, 2)
		enc := ghostcore.NewEnclave(f.g, kernel.MaskAll(2))
		ths := f.blocked(enc, 3)
		forgeOnCPU(enc, ths[1], 1)
		f.o.SwitchIn(f.c, f.k.CPU(0), nil)
		want := []string{
			"enc0 thread 2 status word claims OnCpu (cpu1) but state is blocked",
		}
		if got := f.messages(); !reflect.DeepEqual(got, want) {
			t.Fatalf("reports:\n got %q\nwant %q", got, want)
		}
	})
	t.Run("DuplicateClaimTwoEnclaves", func(t *testing.T) {
		f := newSWFixture(t, 8)
		encA := ghostcore.NewEnclave(f.g, kernel.MaskOf(0, 1, 2, 3))
		encB := ghostcore.NewEnclave(f.g, kernel.MaskOf(4, 5, 6, 7))
		a := f.blocked(encA, 5)
		f.runnable(encA, 2)
		b := f.blocked(encB, 4)
		// Enclave A: cpu3 claimed twice, then cpu1 claimed twice by
		// higher TIDs, so CPU order differs from first-claim order.
		forgeOnCPU(encA, a[0], 3)
		forgeOnCPU(encA, a[1], 3)
		forgeOnCPU(encA, a[2], 1)
		forgeOnCPU(encA, a[4], 1)
		// Enclave B: two threads on cpu5, one alone on cpu6.
		forgeOnCPU(encB, b[3], 5)
		forgeOnCPU(encB, b[1], 5)
		forgeOnCPU(encB, b[2], 6)
		f.o.SwitchIn(f.c, f.k.CPU(0), nil)
		want := []string{
			"enc0 thread 1 status word claims OnCpu (cpu3) but state is blocked",
			"enc0 thread 2 status word claims OnCpu (cpu3) but state is blocked",
			"enc0 thread 3 status word claims OnCpu (cpu1) but state is blocked",
			"enc0 thread 5 status word claims OnCpu (cpu1) but state is blocked",
			"enc0: 2 threads claim OnCpu for cpu1: [3 5]",
			"enc0: 2 threads claim OnCpu for cpu3: [1 2]",
			"enc1 thread 9 status word claims OnCpu (cpu5) but state is blocked",
			"enc1 thread 10 status word claims OnCpu (cpu6) but state is blocked",
			"enc1 thread 11 status word claims OnCpu (cpu5) but state is blocked",
			"enc1: 2 threads claim OnCpu for cpu5: [9 11]",
		}
		if got := f.messages(); !reflect.DeepEqual(got, want) {
			t.Fatalf("reports:\n got %q\nwant %q", got, want)
		}
	})
}

// newBusyFixture builds the oracle's steady state at serving scale: a
// 21-CPU enclave whose Shinjuku global agent keeps 20 CPUs busy with
// threads that never block, out of n managed threads.
func newBusyFixture(tb testing.TB, n int) *swFixture {
	tb.Helper()
	f := newSWFixture(tb, 21)
	enc := ghostcore.NewEnclave(f.g, kernel.MaskAll(21))
	agentsdk.Start(f.k, enc, f.ac, policies.NewShinjuku(), agentsdk.Global())
	for i := 0; i < n; i++ {
		enc.SpawnThread(kernel.SpawnOpts{Name: "w"}, sequential.Body(func(tc *sequential.Task) {
			for {
				tc.Run(100 * sim.Microsecond)
			}
		}))
	}
	f.eng.RunFor(2 * sim.Millisecond)
	onCPU := 0
	for _, t := range enc.Threads() {
		if enc.StatusWord(t).OnCPU {
			onCPU++
		}
	}
	if onCPU == 0 {
		tb.Fatal("no thread claims a CPU; the fixture is not busy")
	}
	return f
}

// TestStatusWordSwitchInAllocFree pins that the oracle's per-switch scan
// allocates nothing when every claim is consistent, so leaving the
// oracles on stays cheap.
func TestStatusWordSwitchInAllocFree(t *testing.T) {
	f := newBusyFixture(t, 200)
	cpu := f.k.CPU(1)
	allocs := testing.AllocsPerRun(100, func() { f.o.SwitchIn(f.c, cpu, cpu.Curr()) })
	if allocs != 0 {
		t.Fatalf("SwitchIn allocates %.1f times per call on the no-violation path, want 0", allocs)
	}
	if f.c.Failed() {
		t.Fatalf("unexpected violations: %v", f.c.Violations())
	}
}

// BenchmarkStatusWordSwitchIn times one status-word scan over 200
// managed threads, 20 of them on a CPU.
func BenchmarkStatusWordSwitchIn(b *testing.B) {
	f := newBusyFixture(b, 200)
	cpu := f.k.CPU(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.o.SwitchIn(f.c, cpu, cpu.Curr())
	}
}
