package ghost_test

import (
	"fmt"
	"strings"
	"testing"

	"ghost"
)

// shardedRun drives a deliberately cross-domain workload: a centralized
// FIFO agent (pinned with the enclave to low CPUs, domain 0 under
// WithShards(2)) committing remote transactions — each an IPI plus a
// target install after exactly the minimum cross-CPU latency, i.e.
// landing precisely on the lookahead window edge — onto high CPUs that
// shard into domain 1. It returns a byte-stable digest of everything the
// run produced plus the machine's shard counters.
func shardedRun(t *testing.T, shards int) (string, ghost.ShardStats) {
	t.Helper()
	m := ghost.NewMachine(ghost.XeonE5(), ghost.WithShards(shards))
	defer m.Shutdown()
	enc := m.NewEnclave(ghost.MaskOf(0, 1, 24, 25, 26, 27))
	set := m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())

	var total ghost.Duration
	for i := 0; i < 24; i++ {
		m.Spawn(ghost.ThreadOpts{
			Name:     fmt.Sprintf("w%d", i),
			Class:    ghost.Ghost(enc),
			Affinity: ghost.MaskOf(24, 25, 26, 27),
		}, ghost.Sequential(func(tc *ghost.SeqTask) {
			for j := 0; j < 4; j++ {
				tc.Run(20 * ghost.Microsecond)
				tc.Yield()
			}
			total += tc.Now()
		}))
	}
	m.Run(10 * ghost.Millisecond)

	var b strings.Builder
	fmt.Fprintf(&b, "txns=%d total=%v\n", set.TxnsCommitted, total)
	b.WriteString(m.Kernel().Usage().String())
	ms := m.Metrics()
	fmt.Fprintf(&b, "switches=%d wakeups=%d ipis=%d events=%d maxqueue=%d\n",
		ms.CtxSwitches, ms.Wakeups, ms.IPIs, ms.EngineEvents, ms.EngineMaxQueue)
	return b.String(), m.ShardStats()
}

// TestShardedReportMatchesSingleQueue is the facade-level window-edge
// gate: remote transactions and their IPIs cross the shard boundary at
// exactly the lookahead edge, and every observable byte of the run must
// match the single-queue machine.
func TestShardedReportMatchesSingleQueue(t *testing.T) {
	want, base := shardedRun(t, 1)
	if base.Domains != 1 {
		t.Fatalf("unsharded Domains = %d, want 1", base.Domains)
	}
	for _, n := range []int{2, 3, 8} {
		got, st := shardedRun(t, n)
		if got != want {
			t.Errorf("shards=%d digest differs from single queue:\n--- shards=1 ---\n%s--- shards=%d ---\n%s", n, want, n, got)
		}
		if st.Domains != n {
			t.Errorf("shards=%d: Domains = %d", n, st.Domains)
		}
		if st.Windows == 0 {
			t.Errorf("shards=%d: no synchronization windows ran", n)
		}
		// The remote-install delay equals the lookahead exactly, so the
		// cross-domain txn installs must have gone through the mailbox.
		if st.Mailboxed == 0 {
			t.Errorf("shards=%d: no cross-domain posts were mailboxed", n)
		}
	}
}

// TestClusterRunIdentical couples several machines into a Cluster and
// checks the coupled, possibly-parallel execution produces exactly the
// per-machine results of standalone serial runs, at any worker count.
func TestClusterRunIdentical(t *testing.T) {
	run := func(workers int) []string {
		cl := ghost.NewCluster(workers)
		type mrec struct {
			m   *ghost.Machine
			set *ghost.AgentSet
		}
		var ms []mrec
		for i := 0; i < 4; i++ {
			var opts []ghost.MachineOption
			opts = append(opts, ghost.InCluster(cl))
			if i%2 == 1 {
				opts = append(opts, ghost.WithShards(2))
			}
			m := ghost.NewMachine(ghost.XeonE5(), opts...)
			enc := m.NewEnclave(ghost.MaskOf(0, 1, 2, 3))
			set := m.StartAgents(enc, ghost.NewFIFOPolicy(), ghost.Global())
			for w := 0; w < 4+i; w++ {
				m.Spawn(ghost.ThreadOpts{Name: "w", Class: ghost.Ghost(enc)}, ghost.Sequential(func(tc *ghost.SeqTask) {
					tc.Run(ghost.Duration(10+i) * ghost.Microsecond)
				}))
			}
			ms = append(ms, mrec{m, set})
		}
		cl.Run(5 * ghost.Millisecond)
		var out []string
		for _, r := range ms {
			out = append(out, fmt.Sprintf("txns=%d now=%v\n%s",
				r.set.TxnsCommitted, r.m.Now(), r.m.Kernel().Usage().String()))
			r.m.Shutdown()
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Errorf("machine %d differs between workers=1 and workers=%d:\n--- serial ---\n%s--- parallel ---\n%s",
					i, workers, serial[i], got[i])
			}
		}
	}
}
