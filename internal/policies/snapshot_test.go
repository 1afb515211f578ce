package policies_test

import (
	"bytes"
	"flag"
	"ghost/internal/sequential"
	"os"
	"path/filepath"
	"testing"

	"ghost/internal/agentsdk"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current source")

// midRunState runs pol as the global agent of a 4-CPU enclave (agent on
// one CPU, three worker CPUs) over twelve threads with staggered
// run/sleep loops, stops mid-run, and returns the policy's snapshot
// bytes. The load keeps the policy's queues and its per-CPU placements
// non-empty at the stop.
func midRunState(t *testing.T, pol agentsdk.PolicySnapshotter) []byte {
	t.Helper()
	e := newEnv(t, topo8(), kernel.MaskOf(0, 1, 2, 3))
	agentsdk.Start(e.k, e.enc, e.ac, pol, agentsdk.Global())
	for i := 0; i < 12; i++ {
		run := sim.Duration(20+7*i) * sim.Microsecond
		sleep := sim.Duration(15*(i%4+1)) * sim.Microsecond
		e.enc.SpawnThread(kernel.SpawnOpts{Name: "w"}, sequential.Body(func(tc *sequential.Task) {
			for {
				tc.Run(run)
				tc.Sleep(sleep)
			}
		}))
	}
	e.eng.RunFor(1234 * sim.Microsecond)
	data, err := pol.SnapshotSave()
	if err != nil {
		t.Fatalf("SnapshotSave: %v", err)
	}
	return data
}

// TestPolicySnapshotGolden pins the SnapshotSave bytes of a mid-run
// Shinjuku and a mid-run round-robin CentralFIFO, placements included,
// so a change of the policies' internal containers cannot change the
// serialised form. Re-record with -update only when the format is meant
// to change.
func TestPolicySnapshotGolden(t *testing.T) {
	rr := policies.NewCentralFIFO()
	rr.Quantum = 50 * sim.Microsecond
	for _, tc := range []struct {
		name string
		pol  agentsdk.PolicySnapshotter
	}{
		{"shinjuku", policies.NewShinjuku()},
		{"central-fifo", rr},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := midRunState(t, tc.pol)
			if !bytes.Contains(got, []byte(`"running":[[`)) {
				t.Fatalf("no placements at the stop; the golden would not cover them:\n%s", got)
			}
			path := filepath.Join("testdata", tc.name+".snapshot.golden")
			if *updateGolden {
				if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if !bytes.Equal(append(got, '\n'), want) {
				t.Fatalf("SnapshotSave bytes differ from %s:\n got %s\nwant %s", path, got, want)
			}
		})
	}
}
