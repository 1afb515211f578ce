package policies_test

import (
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

// haltOnIdleRound forwards to Shinjuku and, while halt is set, stops
// the engine after the first scheduling round that decides nothing. The
// machine is then frozen in a state where replaying Schedule is a pure
// read: no CPU to fill, no slice to expire.
type haltOnIdleRound struct {
	*policies.Shinjuku
	eng    *sim.Engine
	halt   bool
	halted bool
}

func (h *haltOnIdleRound) Schedule(ctx *agentsdk.Context) []agentsdk.Assignment {
	out := h.Shinjuku.Schedule(ctx)
	if h.halt && len(out) == 0 {
		h.halted = true
		h.eng.Stop()
	}
	return out
}

// BenchmarkShinjukuSchedule times one Shinjuku scheduling round at
// serving scale: XeonE5, a global agent on CPU 0 over 20 worker CPUs,
// 200 workers fed RocksDB requests at 280k req/s. Every 256 rounds the
// machine advances to its next decision-free round, so each timed call
// sees steady-state queues and placements.
func BenchmarkShinjukuSchedule(b *testing.B) {
	eng := sim.NewEngine()
	k := kernel.New(eng, hw.XeonE5(), hw.DefaultCostModel())
	ac := kernel.NewAgentClass(k)
	g := ghostcore.NewClass(k, kernel.NewCFS(k))
	enc := ghostcore.NewEnclave(g, kernel.MaskAll(21))
	b.Cleanup(k.Shutdown)
	pol := &haltOnIdleRound{Shinjuku: policies.NewShinjuku(), eng: eng}
	ctx := agentsdk.Start(k, enc, ac, pol, agentsdk.Global()).Ctx()
	pool := workload.NewWorkerPool(k, 200, &workload.LatencyRecorder{}, func(name string, body kernel.ThreadFunc) *kernel.Thread {
		return enc.SpawnThread(kernel.SpawnOpts{Name: name}, body)
	})
	workload.NewPoissonSource(k.Scheduler(), sim.NewRand(1), 280_000, workload.RocksDBService(), pool.Submit)
	eng.RunFor(20 * sim.Millisecond)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			b.StopTimer()
			pol.halt, pol.halted = true, false
			for !pol.halted {
				eng.RunFor(sim.Millisecond)
			}
			pol.halt = false
			b.StartTimer()
		}
		if out := pol.Shinjuku.Schedule(ctx); len(out) != 0 {
			b.Fatalf("replayed round at %v decided %d assignments; the frozen state moved", eng.Now(), len(out))
		}
	}
}
