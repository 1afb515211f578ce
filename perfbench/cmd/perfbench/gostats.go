package main

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// Go runtime samples read around each timed window.
var goSampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

// goDelta is the Go runtime's work over one timed window.
type goDelta struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64
	goroutines                   int
	latBuckets                   []float64
	latCounts                    []uint64
}

func readGo() goDelta {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	d := goDelta{goroutines: runtime.NumGoroutine()}
	d.allocs = uint64Value(s[0])
	d.allocBytes = uint64Value(s[1])
	d.gcCycles = uint64Value(s[2])
	d.gcCPU = floatValue(s[3])
	d.totalCPU = floatValue(s[4])
	if s[5].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[5].Value.Float64Histogram()
		d.latBuckets = h.Buckets
		d.latCounts = append([]uint64(nil), h.Counts...)
	}
	return d
}

func uint64Value(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func floatValue(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// sub returns the window's delta; goroutines is the count at its end.
func (d goDelta) sub(before goDelta) goDelta {
	out := goDelta{
		allocs:     d.allocs - before.allocs,
		allocBytes: d.allocBytes - before.allocBytes,
		gcCycles:   d.gcCycles - before.gcCycles,
		gcCPU:      d.gcCPU - before.gcCPU,
		totalCPU:   d.totalCPU - before.totalCPU,
		goroutines: d.goroutines,
		latBuckets: d.latBuckets,
	}
	if len(d.latCounts) == len(before.latCounts) {
		out.latCounts = make([]uint64, len(d.latCounts))
		for i := range d.latCounts {
			out.latCounts[i] = d.latCounts[i] - before.latCounts[i]
		}
	}
	return out
}

func (d goDelta) gcCPUFrac() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

// schedLatency returns the q-quantile, in seconds, of the time
// goroutines spent runnable before running during the window: the
// upper bound of the bucket holding it.
func (d goDelta) schedLatency(q float64) float64 {
	var total uint64
	for _, c := range d.latCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range d.latCounts {
		seen += c
		if seen >= want {
			hi := d.latBuckets[i+1]
			if math.IsInf(hi, 1) {
				hi = d.latBuckets[i]
			}
			return hi
		}
	}
	return d.latBuckets[len(d.latBuckets)-1]
}

// settle yields until the goroutines of simulations already shut down
// have exited: until their count has not dropped for settleYields
// yields in a row. Shutdown only closes their channels, and with one P
// they would otherwise exit during whatever is timed next.
func settle() {
	n := runtime.NumGoroutine()
	for still := 0; still < settleYields; {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m < n {
			n, still = m, 0
		} else {
			still++
		}
	}
}

const settleYields = 10

// liveMem forces a collection and returns the live heap plus the
// goroutine stack bytes that collection scanned, in bytes: the memory
// the simulation holds at this point. Stack memory reserved but not in
// use is left out; its size follows how many goroutines exited recently.
// liveMem settles first, so a simulation shut down just before (env-fork
// closes a fork on the window's last step) is not counted, and collects
// twice, so objects parked in a sync.Pool's victim cache are not either.
func liveMem() uint64 {
	settle()
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/scan/stack:bytes"},
	}
	metrics.Read(s)
	return uint64Value(s[0]) + uint64Value(s[1])
}
