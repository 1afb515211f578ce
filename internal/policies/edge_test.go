package policies_test

import (
	"ghost/internal/sequential"
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

func TestShinjukuDispersiveTail(t *testing.T) {
	// End-to-end §4.2 miniature: bimodal load on few CPUs; the policy
	// must keep short-request p99 orders of magnitude under the 10ms
	// monsters.
	topo := hw.XeonE5()
	e := newEnv(t, topo, kernel.MaskOf(0, 1, 2, 3, 4))
	agentsdk.Start(e.k, e.enc, e.ac, policies.NewShinjuku(), agentsdk.Global())
	rec := &workload.LatencyRecorder{WarmupUntil: 20 * sim.Millisecond}
	short := &workload.LatencyRecorder{WarmupUntil: 20 * sim.Millisecond}
	pool := workload.NewWorkerPool(e.k, 50, rec, func(name string, body kernel.ThreadFunc) *kernel.Thread {
		return e.enc.SpawnThread(kernel.SpawnOpts{Name: name}, body)
	})
	workload.NewPoissonSource(e.eng, sim.NewRand(5), 50000, workload.RocksDBService(),
		func(r *workload.Request) {
			if r.Service < sim.Millisecond {
				r.Done = func(r *workload.Request, at sim.Time) { short.Record(r, at) }
			}
			pool.Submit(r)
		})
	e.eng.RunFor(300 * sim.Millisecond)
	if short.Completed < 5000 {
		t.Fatalf("short completed = %d", short.Completed)
	}
	if p99 := short.Hist.P99(); p99 > 500*sim.Microsecond {
		t.Fatalf("short p99 = %v under Shinjuku", p99)
	}
}

func TestSearchHoldForCCX(t *testing.T) {
	// With HoldForCCX, a thread whose preferred CCX is busy waits
	// briefly instead of migrating; it must still run eventually.
	topo := hw.NewTopology(hw.Config{Name: "h", Sockets: 1, CCXsPerSocket: 2, CoresPerCCX: 2, SMTWidth: 2})
	e := newEnv(t, topo, kernel.MaskAll(8))
	pol := policies.NewSearch()
	pol.HoldForCCX = 100 * sim.Microsecond
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())

	// Fill CCX 0 (CPUs 0,1,4,5) with long runners; agent is on CPU 0.
	for i := 0; i < 3; i++ {
		e.enc.SpawnThread(kernel.SpawnOpts{Name: "hog"}, sequential.Body(func(tc *sequential.Task) {
			tc.Run(2 * sim.Millisecond)
		}))
	}
	e.eng.RunFor(100 * sim.Microsecond)
	// A thread with history in CCX 0 wakes; its CCX is busy.
	w := e.enc.SpawnThread(kernel.SpawnOpts{Name: "w"}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(10 * sim.Microsecond)
		tc.Block()
		tc.Run(10 * sim.Microsecond)
	}))
	e.eng.RunFor(sim.Millisecond)
	e.k.Wake(w)
	e.eng.RunFor(5 * sim.Millisecond)
	if w.State() != kernel.StateDead {
		t.Fatalf("held thread never ran: %v", w.State())
	}
}

func TestCentralFIFOAffinityRespected(t *testing.T) {
	e := newEnv(t, topo8(), kernel.MaskAll(8))
	agentsdk.Start(e.k, e.enc, e.ac, policies.NewCentralFIFO(), agentsdk.Global())
	th := e.enc.SpawnThread(kernel.SpawnOpts{Name: "w", Affinity: kernel.MaskOf(3)},
		sequential.Body(func(tc *sequential.Task) {
			for i := 0; i < 20; i++ {
				tc.Run(20 * sim.Microsecond)
				tc.Yield()
			}
		}))
	e.eng.RunFor(10 * sim.Millisecond)
	if th.State() != kernel.StateDead {
		t.Fatalf("state = %v", th.State())
	}
	if th.LastCPU() != 3 {
		t.Fatalf("affined thread ran on %d", th.LastCPU())
	}
}

func TestCoreSchedWithCFSInterference(t *testing.T) {
	// A CFS daemon grabs a CPU inside the enclave: the policy must keep
	// isolation and keep making progress around it.
	e := newEnv(t, topo8(), kernel.MaskAll(8))
	pol := policies.NewCoreSched(vmOf)
	pol.Quantum = 300 * sim.Microsecond
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())
	ic := workload.NewIsolationChecker(e.k, 50*sim.Microsecond)
	set := workload.NewVMSet(e.k, 2, 4, 3*sim.Millisecond, 100*sim.Microsecond,
		func(name string, tag any, body kernel.ThreadFunc) *kernel.Thread {
			return e.enc.SpawnThread(kernel.SpawnOpts{Name: name, Tag: tag}, body)
		})
	// CFS daemon wakes periodically on CPU 2.
	daemon := e.k.Spawn(kernel.SpawnOpts{Name: "daemon", Class: e.cfs, Affinity: kernel.MaskOf(2)},
		sequential.Body(func(tc *sequential.Task) {
			for i := 0; i < 100; i++ {
				tc.Run(50 * sim.Microsecond)
				tc.Sleep(200 * sim.Microsecond)
			}
		}))
	e.eng.RunFor(40 * sim.Millisecond)
	if ic.Violations != 0 {
		t.Fatalf("violations = %d", ic.Violations)
	}
	if set.Finished != 8 {
		t.Fatalf("finished = %d/8", set.Finished)
	}
	if daemon.CPUTime() == 0 {
		t.Fatal("CFS daemon starved by ghOSt policy")
	}
}

func TestShinjukuQueueAccounting(t *testing.T) {
	e := newEnv(t, topo8(), kernel.MaskOf(0, 1))
	pol := policies.NewShinjuku()
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())
	var ths []*kernel.Thread
	for i := 0; i < 5; i++ {
		ths = append(ths, e.enc.SpawnThread(kernel.SpawnOpts{Name: "w"}, sequential.Body(func(tc *sequential.Task) {
			tc.Run(100 * sim.Microsecond)
		})))
	}
	e.eng.RunFor(20 * sim.Millisecond)
	for i, th := range ths {
		if th.State() != kernel.StateDead {
			t.Fatalf("thread %d: %v", i, th.State())
		}
	}
	lat, batch := pol.QueueLens()
	if lat != 0 || batch != 0 {
		t.Fatalf("queues not drained: %d/%d", lat, batch)
	}
}
