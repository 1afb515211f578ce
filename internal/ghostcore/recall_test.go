package ghostcore

import (
	"ghost/internal/hw"
	"ghost/internal/sequential"
	"testing"

	"ghost/internal/kernel"
	"ghost/internal/sim"
)

func TestTxnsRecallBeforeInstall(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 50*sim.Microsecond, 1)
	txn := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn})
	if txn.Status != TxnCommitted {
		t.Fatalf("status = %v", txn.Status)
	}
	// Recall before the install event fires (install delay ~1µs).
	if n := env.enc.TxnsRecall([]*Txn{txn}); n != 1 {
		t.Fatalf("recalled = %d", n)
	}
	if txn.Status != TxnRecalled {
		t.Fatalf("status = %v, want RECALLED", txn.Status)
	}
	env.eng.RunFor(sim.Millisecond)
	if th.CPUTime() != 0 {
		t.Fatal("recalled thread still ran")
	}
	// The thread is schedulable again.
	txn2 := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn2})
	if txn2.Status != TxnCommitted {
		t.Fatalf("recommit: %v", txn2.Status)
	}
	env.eng.RunFor(sim.Millisecond)
	if th.State() != kernel.StateDead {
		t.Fatalf("thread state = %v after recommit", th.State())
	}
}

func TestTxnsRecallTooLate(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 500*sim.Microsecond, 1)
	txn := env.enc.TxnCreate(th.TID(), 1)
	env.enc.TxnsCommit(nil, []*Txn{txn})
	env.eng.RunFor(100 * sim.Microsecond) // installed and running
	if th.State() != kernel.StateRunning {
		t.Fatalf("state = %v", th.State())
	}
	if n := env.enc.TxnsRecall([]*Txn{txn}); n != 0 {
		t.Fatalf("recalled a running thread: %d", n)
	}
	if txn.Status != TxnCommitted {
		t.Fatalf("status mutated: %v", txn.Status)
	}
}

func TestTxnsRecallIgnoresFailed(t *testing.T) {
	env := newGhostEnv(t)
	bad := env.enc.TxnCreate(kernel.TID(999), 1)
	env.enc.TxnsCommit(nil, []*Txn{bad})
	if n := env.enc.TxnsRecall([]*Txn{bad}); n != 0 {
		t.Fatalf("recalled failed txn: %d", n)
	}
}

func TestSchedulingHints(t *testing.T) {
	env := newGhostEnv(t)
	th := env.spawnGhost("w", 10*sim.Microsecond, 1)
	if h := env.enc.Hint(th); h != nil {
		t.Fatalf("hint = %v before set", h)
	}
	env.enc.SetHint(th, "latency-critical")
	if h := env.enc.Hint(th); h != "latency-critical" {
		t.Fatalf("hint = %v", h)
	}
	// Hints on foreign threads are rejected silently.
	other := env.k.Spawn(kernel.SpawnOpts{Name: "cfs", Class: env.cfs},
		sequential.Body(func(tc *sequential.Task) { tc.Run(sim.Microsecond) }))
	env.enc.SetHint(other, "x")
	if env.enc.Hint(other) != nil {
		t.Fatal("hint set on non-enclave thread")
	}
}

func TestEnclaveTicklessLifecycle(t *testing.T) {
	env := newGhostEnv(t)
	env.enc.SetTickless(true)
	env.enc.CPUs().ForEach(func(c hw.CPUID) bool {
		if !env.k.Tickless(c) {
			t.Fatalf("cpu %d not tickless", c)
		}
		return true
	})
	// Destroying the enclave restores ticks (CFS needs them).
	env.enc.Destroy()
	env.enc.CPUs().ForEach(func(c hw.CPUID) bool {
		if env.k.Tickless(c) {
			t.Fatalf("cpu %d still tickless after destroy", c)
		}
		return true
	})
}
