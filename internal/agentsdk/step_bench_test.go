package agentsdk_test

import (
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
)

// BenchmarkGlobalAgentStep measures the agent-step seam: the spinning
// global agent is poked by a THREAD_WAKEUP message, drains it, calls the
// policy's Schedule, commits one transaction, charges the step's cost
// and goes back to spinning. The machine has two CPUs without SMT, the
// agent on cpu0 and one ghOSt thread that the transaction installs on
// cpu1, where it runs 1 µs and blocks. Each op is that whole round. It
// takes four agent steps, reported as steps/op: the committing one, and
// the re-steps for the idle-CPU pokes and THREAD_BLOCKED.
func BenchmarkGlobalAgentStep(b *testing.B) {
	topo := hw.NewTopology(hw.Config{Name: "bench", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 2, SMTWidth: 1})
	eng := sim.NewEngine()
	k := kernel.New(eng, topo, hw.DefaultCostModel())
	ac := kernel.NewAgentClass(k)
	cfs := kernel.NewCFS(k)
	g := ghostcore.NewClass(k, cfs)
	enc := ghostcore.NewEnclave(g, kernel.MaskAll(2))
	defer k.Shutdown()
	set := agentsdk.Start(k, enc, ac, policies.NewCentralFIFO(), agentsdk.Global())

	// The thread blocks, runs 1 µs when woken, and blocks again.
	blocked := false
	th := enc.SpawnThread(kernel.SpawnOpts{Name: "worker"}, func(tc *kernel.TaskContext) kernel.Op {
		blocked = !blocked
		if blocked {
			return tc.Block()
		}
		return tc.Run(sim.Microsecond)
	})
	round := func() {
		if th.State() != kernel.StateBlocked {
			b.Fatalf("worker %v not blocked at the start of a round", th)
		}
		k.Wake(th)
		eng.RunFor(20 * sim.Microsecond)
	}
	for i := 0; i < 1000; i++ {
		round()
	}
	steps, txns := set.StepsExecuted, set.TxnsCommitted
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if got := set.TxnsCommitted - txns; got != uint64(b.N) {
		b.Fatalf("%d transactions committed in %d rounds", got, b.N)
	}
	b.ReportMetric(float64(set.StepsExecuted-steps)/float64(b.N), "steps/op")
}
