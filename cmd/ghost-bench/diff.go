package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchFile is one scripts/bench.sh recording: benchmark name -> metric
// name -> value, plus the "_"-prefixed host metadata keys.
type benchFile struct {
	benches map[string]map[string]float64
	cpus    float64
	wall    float64
}

func loadBench(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	names := make([]string, 0, len(raw))
	for name := range raw {
		names = append(names, name)
	}
	sort.Strings(names)
	bf := &benchFile{benches: make(map[string]map[string]float64)}
	for _, name := range names {
		msg := raw[name]
		if name == "_cpus" {
			json.Unmarshal(msg, &bf.cpus)
			continue
		}
		if name == "_wall_seconds" {
			json.Unmarshal(msg, &bf.wall)
			continue
		}
		if len(name) > 0 && name[0] == '_' {
			continue
		}
		var metrics map[string]float64
		if err := json.Unmarshal(msg, &metrics); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", path, name, err)
		}
		bf.benches[name] = metrics
	}
	return bf, nil
}

// Regression thresholds. One benchtime=1x sample per side is noisy, so
// a regression must clear both a generous ratio and an absolute floor.
// The floor is deliberately high: single-invocation noise is
// multiplicative, not additive — the same binary on the same idle host
// was observed swinging 3.7–6.7ms across runs of a ~4ms benchmark — so
// ns/op only gates the second-scale figure sweeps, where one sample is
// representative and a 1.6x growth dwarfs the floor. Millisecond-scale
// probes are guarded by their deterministic reported metrics and the
// exact allocs/op gate instead (an alloc-free path that starts
// allocating always fails).
const (
	nsRatio    = 1.60       // ns/op may grow up to 60%...
	nsFloorNS  = 10_000_000 // ...but absolute drift under 10ms never fails
	allocRatio = 1.50
	allocFloor = 64
)

// runDiff compares two bench.sh recordings over their common benchmarks
// and returns the exit status: 1 if any regression clears the
// thresholds, 0 otherwise.
func runDiff(oldPath, newPath string) int {
	oldBF, err := loadBench(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghost-bench -diff:", err)
		return 2
	}
	newBF, err := loadBench(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghost-bench -diff:", err)
		return 2
	}

	var names []string
	for name := range newBF.benches {
		if _, ok := oldBF.benches[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "ghost-bench -diff: no common benchmarks between %s and %s\n", oldPath, newPath)
		return 2
	}

	regressions := 0
	for _, name := range names {
		o, n := oldBF.benches[name], newBF.benches[name]
		if ov, nv, ok := metricPair(o, n, "ns/op"); ok {
			fmt.Printf("%-40s ns/op %14.0f -> %14.0f  (%s)\n", name, ov, nv, ratioStr(nv, ov))
			if nv > ov*nsRatio && nv-ov > nsFloorNS {
				fmt.Printf("  REGRESSION: ns/op grew %s (threshold %.2fx)\n", ratioStr(nv, ov), nsRatio)
				regressions++
			}
		}
		if ov, nv, ok := metricPair(o, n, "allocs/op"); ok && nv > ov {
			switch {
			case ov == 0:
				fmt.Printf("  REGRESSION: %s allocs/op went 0 -> %.0f (alloc-free path now allocates)\n", name, nv)
				regressions++
			case nv > ov*allocRatio && nv-ov > allocFloor:
				fmt.Printf("  REGRESSION: %s allocs/op %.0f -> %.0f\n", name, ov, nv)
				regressions++
			}
		}
	}

	if oldBF.wall > 0 && newBF.wall > 0 {
		fmt.Printf("wall: %.0fs -> %.0fs (old host %v cpus, new host %v cpus)\n",
			oldBF.wall, newBF.wall, oldBF.cpus, newBF.cpus)
	}
	if regressions > 0 {
		fmt.Printf("ghost-bench -diff: %d regression(s)\n", regressions)
		return 1
	}
	fmt.Printf("ghost-bench -diff: OK (%d common benchmarks)\n", len(names))
	return 0
}

func metricPair(o, n map[string]float64, key string) (ov, nv float64, ok bool) {
	ov, ook := o[key]
	nv, nok := n[key]
	return ov, nv, ook && nok
}

func ratioStr(n, o float64) string {
	if o == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", n/o)
}
