package agentsdk_test

import (
	"ghost/internal/sequential"
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/ghostcore"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
)

// TestMultipleEnclaves reproduces Fig 2: one enclave running the per-CPU
// model and a second running the centralized model, concurrently, each
// with its own policy — and verifies full isolation (threads only run on
// their enclave's CPUs; destroying one enclave leaves the other intact).
func TestMultipleEnclaves(t *testing.T) {
	topo := hw.NewTopology(hw.Config{Name: "m", Sockets: 2, CCXsPerSocket: 1, CoresPerCCX: 4, SMTWidth: 2})
	eng := sim.NewEngine()
	k := kernel.New(eng, topo, hw.DefaultCostModel())
	ac := kernel.NewAgentClass(k)
	cfs := kernel.NewCFS(k)
	g := ghostcore.NewClass(k, cfs)
	defer k.Shutdown()

	// Enclave 0: per-CPU scheduling on socket 0 (CPUs 0-3, 8-11).
	mask0 := kernel.MaskOf(topo.CPUsOfSocket(0)...)
	enc0 := ghostcore.NewEnclave(g, mask0)
	set0 := agentsdk.Start(k, enc0, ac, policies.NewPerCPUFIFO(), agentsdk.PerCPU())

	// Enclave 1: centralized scheduling on socket 1.
	mask1 := kernel.MaskOf(topo.CPUsOfSocket(1)...)
	enc1 := ghostcore.NewEnclave(g, mask1)
	set1 := agentsdk.Start(k, enc1, ac, policies.NewCentralFIFO(), agentsdk.Global())

	spawn := func(enc *ghostcore.Enclave, n int) []*kernel.Thread {
		var out []*kernel.Thread
		for i := 0; i < n; i++ {
			out = append(out, enc.SpawnThread(kernel.SpawnOpts{Name: "w"}, sequential.Body(func(tc *sequential.Task) {
				for j := 0; j < 10; j++ {
					tc.Run(20 * sim.Microsecond)
					tc.Sleep(30 * sim.Microsecond)
				}
			})))
		}
		return out
	}
	ths0 := spawn(enc0, 6)
	ths1 := spawn(enc1, 6)
	eng.RunFor(10 * sim.Millisecond)

	for i, th := range ths0 {
		if th.State() != kernel.StateDead {
			t.Fatalf("enclave0 thread %d: %v", i, th.State())
		}
		if !mask0.Has(th.LastCPU()) {
			t.Fatalf("enclave0 thread ran on cpu %d outside its enclave", th.LastCPU())
		}
	}
	for i, th := range ths1 {
		if th.State() != kernel.StateDead {
			t.Fatalf("enclave1 thread %d: %v", i, th.State())
		}
		if !mask1.Has(th.LastCPU()) {
			t.Fatalf("enclave1 thread ran on cpu %d outside its enclave", th.LastCPU())
		}
	}
	if set0.TxnsCommitted == 0 || set1.TxnsCommitted == 0 {
		t.Fatalf("txns: %d / %d", set0.TxnsCommitted, set1.TxnsCommitted)
	}

	// Fault isolation (§3): crashing enclave 0's agents must not disturb
	// enclave 1.
	more1 := spawn(enc1, 3)
	set0.Crash()
	if !enc0.Destroyed() || enc1.Destroyed() {
		t.Fatalf("isolation broken: enc0=%v enc1=%v", enc0.Destroyed(), enc1.Destroyed())
	}
	eng.RunFor(10 * sim.Millisecond)
	for i, th := range more1 {
		if th.State() != kernel.StateDead {
			t.Fatalf("enclave1 thread %d stalled after enclave0 crash: %v", i, th.State())
		}
	}
}

// TestEnclaveDoesNotTouchForeignCPUs: a centralized policy must never
// receive idle pokes for CPUs outside its enclave, and its commits to
// foreign CPUs fail.
func TestEnclaveForeignCPUCommit(t *testing.T) {
	topo := hw.NewTopology(hw.Config{Name: "f", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 4, SMTWidth: 1})
	eng := sim.NewEngine()
	k := kernel.New(eng, topo, hw.DefaultCostModel())
	kernel.NewAgentClass(k)
	cfs := kernel.NewCFS(k)
	g := ghostcore.NewClass(k, cfs)
	defer k.Shutdown()
	enc := ghostcore.NewEnclave(g, kernel.MaskOf(0, 1))
	th := enc.SpawnThread(kernel.SpawnOpts{Name: "w"}, sequential.Body(func(tc *sequential.Task) {
		tc.Run(10 * sim.Microsecond)
	}))
	txn := enc.TxnCreate(th.TID(), 3) // CPU 3 not in the enclave
	enc.TxnsCommit(nil, []*ghostcore.Txn{txn})
	if txn.Status != ghostcore.TxnCPUNotAvail {
		t.Fatalf("foreign-CPU commit: %v", txn.Status)
	}
}
