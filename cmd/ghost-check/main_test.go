package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ghost-check.golden from the current source")

// rewindRepro is the directed regression of the verify.sh rewind smoke.
const rewindRepro = "seed=3 policy=central-fifo cpus=4 threads=9 horizon=25.000ms"

// TestGoldenOutput pins what ghost-check prints: the verdict and repro
// string of every seed of a quick scan, plain and under each seeded
// mutation (with the first failure's shrink), the checkpoint rewind of
// the directed regression, and two -restore runs: one from the
// checkpoint that rewind just wrote, one from a checkpoint file written
// by an earlier build (testdata/rewind-seed3.ghostsnp), so old .snap files
// keep reproducing.
func TestGoldenOutput(t *testing.T) {
	golden, err := filepath.Abs(filepath.Join("testdata", "ghost-check.golden"))
	if err != nil {
		t.Fatal(err)
	}
	oldSnap, err := os.ReadFile(filepath.Join("testdata", "rewind-seed3.ghostsnp"))
	if err != nil {
		t.Fatal(err)
	}
	// The rewind writes its checkpoint to the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := os.WriteFile("old-rewind-seed3.snap", oldSnap, 0o644); err != nil {
		t.Fatal(err)
	}

	runs := [][]string{
		{"-quick", "-seeds", "200", "-parallel", "2", "-v"},
		{"-quick", "-seeds", "200", "-parallel", "2", "-v", "-mutate", "skip-tseq"},
		{"-quick", "-seeds", "200", "-parallel", "2", "-v", "-mutate", "drop-wakeup"},
		{"-quick", "-seeds", "200", "-parallel", "2", "-v", "-mutate", "double-latch"},
		{"-repro", rewindRepro, "-mutate", "drop-wakeup", "-snapshot-every", "3ms"},
		{"-repro", rewindRepro, "-mutate", "drop-wakeup", "-restore", "ghost-check-rewind-seed3.snap"},
		{"-repro", rewindRepro, "-mutate", "drop-wakeup", "-restore", "old-rewind-seed3.snap"},
	}
	var got bytes.Buffer
	for _, args := range runs {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		fmt.Fprintf(&got, "$ ghost-check %s\n", strings.Join(args, " "))
		got.Write(stdout.Bytes())
		for _, line := range strings.SplitAfter(stderr.String(), "\n") {
			if line != "" {
				fmt.Fprintf(&got, "stderr: %s", line)
			}
		}
		fmt.Fprintf(&got, "exit %d\n\n", code)
	}

	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\ngot:  %s\nwant: %s\n(re-record with -update only for an intended change)",
					golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output differs from %s in length: %d lines, want %d", golden, len(gl), len(wl))
	}
}
