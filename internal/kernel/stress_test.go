package kernel_test

import (
	. "ghost/internal/kernel"
	"ghost/internal/sequential"
	"testing"

	"ghost/internal/hw"
	"ghost/internal/sim"
)

// TestKernelStressInvariants runs a randomized mixed workload (CFS +
// MicroQuanta threads with random run/sleep/yield/affinity behaviour)
// and checks global invariants at every tick:
//
//   - a thread is running on at most one CPU, and that CPU's Curr is it
//   - every running thread is on a CPU its affinity allows
//   - CPU busy accounting never exceeds wall time
//   - no runnable thread starves for more than a balance period + slack
func TestKernelStressInvariants(t *testing.T) {
	topo := hw.NewTopology(hw.Config{Name: "s", Sockets: 2, CCXsPerSocket: 2, CoresPerCCX: 2, SMTWidth: 2})
	eng := sim.NewEngine()
	k := New(eng, topo, hw.DefaultCostModel())
	mq := NewMicroQuanta(k)
	cfs := NewCFS(k)
	defer k.Shutdown()
	r := sim.NewRand(1234)

	var threads []*Thread
	for i := 0; i < 40; i++ {
		cls := Class(cfs)
		if i%7 == 0 {
			cls = mq
		}
		var aff Mask
		if i%5 == 0 {
			// Random restricted affinity of 3 CPUs.
			for j := 0; j < 3; j++ {
				aff.Set(hw.CPUID(r.Intn(topo.NumCPUs())))
			}
		}
		th := k.Spawn(SpawnOpts{Name: "w", Class: cls, Affinity: aff, Nice: r.Intn(10) - 5},
			sequential.Body(func(tc *sequential.Task) {
				lr := sim.NewRand(uint64(tc.TID()))
				for it := 0; it < 300; it++ {
					switch lr.Intn(4) {
					case 0:
						tc.Run(sim.Duration(1+lr.Intn(200)) * sim.Microsecond)
					case 1:
						tc.Sleep(sim.Duration(1+lr.Intn(100)) * sim.Microsecond)
					case 2:
						tc.Run(sim.Duration(1+lr.Intn(20)) * sim.Microsecond)
						tc.Yield()
					case 3:
						var m Mask
						for j := 0; j < 4; j++ {
							m.Set(hw.CPUID(lr.Intn(16)))
						}
						tc.SetAffinity(m)
						tc.Run(sim.Duration(1+lr.Intn(50)) * sim.Microsecond)
					}
				}
			}))
		threads = append(threads, th)
	}

	violations := 0
	check := func(now sim.Time) {
		onCPU := map[TID]hw.CPUID{}
		for i := 0; i < k.NumCPUs(); i++ {
			c := k.CPU(hw.CPUID(i))
			cur := c.Curr()
			if cur == nil {
				continue
			}
			if prev, dup := onCPU[cur.TID()]; dup {
				t.Errorf("t=%v: %v on cpus %d and %d", now, cur, prev, i)
				violations++
			}
			onCPU[cur.TID()] = hw.CPUID(i)
			if cur.OnCPU() != hw.CPUID(i) {
				t.Errorf("t=%v: cpu%d.Curr=%v but thread.OnCPU=%d", now, i, cur, cur.OnCPU())
				violations++
			}
			if !cur.Affinity().Has(hw.CPUID(i)) {
				t.Errorf("t=%v: %v running outside affinity on cpu%d", now, cur, i)
				violations++
			}
			if c.BusyTime() > now+sim.Microsecond {
				t.Errorf("t=%v: cpu%d busy %v exceeds wall", now, i, c.BusyTime())
				violations++
			}
		}
		for _, th := range threads {
			if th.State() == StateRunnable && now-th.WakeTime() > 50*sim.Millisecond {
				t.Errorf("t=%v: %v runnable for %v", now, th, now-th.WakeTime())
				violations++
			}
		}
	}
	sim.NewTicker(eng, 250*sim.Microsecond, func(now sim.Time) {
		if violations < 10 {
			check(now)
		}
	})
	eng.RunFor(150 * sim.Millisecond)
	done := 0
	for _, th := range threads {
		if th.State() == StateDead {
			done++
		}
	}
	if done < 35 {
		t.Fatalf("only %d/40 threads finished", done)
	}
}

// TestKernelStressDeterminism reruns a prefix of the stress workload and
// demands bit-identical scheduling outcomes.
func TestKernelStressDeterminism(t *testing.T) {
	run := func() (uint64, sim.Duration) {
		topo := hw.NewTopology(hw.Config{Name: "d", Sockets: 1, CCXsPerSocket: 2, CoresPerCCX: 2, SMTWidth: 2})
		eng := sim.NewEngine()
		k := New(eng, topo, hw.DefaultCostModel())
		cfs := NewCFS(k)
		defer k.Shutdown()
		var total sim.Duration
		var ths []*Thread
		for i := 0; i < 12; i++ {
			ths = append(ths, k.Spawn(SpawnOpts{Name: "w", Class: cfs}, sequential.Body(func(tc *sequential.Task) {
				lr := sim.NewRand(uint64(tc.TID()) * 31)
				for it := 0; it < 100; it++ {
					tc.Run(sim.Duration(1+lr.Intn(100)) * sim.Microsecond)
					if lr.Intn(3) == 0 {
						tc.Sleep(sim.Duration(lr.Intn(50)) * sim.Microsecond)
					}
				}
			})))
		}
		eng.RunFor(40 * sim.Millisecond)
		for _, th := range ths {
			total += th.CPUTime()
		}
		return eng.Executed, total
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", e1, t1, e2, t2)
	}
}

// TestCPUTimeConservation: the sum of all thread CPU time cannot exceed
// total CPU capacity, and a saturated machine should be near 100% busy.
func TestCPUTimeConservation(t *testing.T) {
	topo := hw.NewTopology(hw.Config{Name: "c", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 2, SMTWidth: 1})
	eng := sim.NewEngine()
	k := New(eng, topo, hw.DefaultCostModel())
	cfs := NewCFS(k)
	defer k.Shutdown()
	var ths []*Thread
	for i := 0; i < 6; i++ {
		ths = append(ths, k.Spawn(SpawnOpts{Name: "w", Class: cfs}, sequential.Body(func(tc *sequential.Task) {
			for {
				tc.Run(100 * sim.Microsecond)
			}
		})))
	}
	const dur = 50 * sim.Millisecond
	eng.RunFor(dur)
	var total sim.Duration
	for _, th := range ths {
		total += th.CPUTime()
	}
	capacity := 2 * dur
	if total > capacity {
		t.Fatalf("cpu time %v exceeds capacity %v", total, capacity)
	}
	if float64(total) < 0.95*float64(capacity) {
		t.Fatalf("saturated machine only %.0f%% utilized", 100*float64(total)/float64(capacity))
	}
}

func TestUsageReport(t *testing.T) {
	topo := hw.NewTopology(hw.Config{Name: "u", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 2, SMTWidth: 1})
	eng := sim.NewEngine()
	k := New(eng, topo, hw.DefaultCostModel())
	cfs := NewCFS(k)
	defer k.Shutdown()
	k.Spawn(SpawnOpts{Name: "spin-a", Class: cfs, Affinity: MaskOf(0)}, sequential.Body(func(tc *sequential.Task) {
		for {
			tc.Run(100 * sim.Microsecond)
		}
	}))
	eng.RunFor(10 * sim.Millisecond)
	r := k.Usage()
	if r.CPUBusy[0] < 0.95 {
		t.Fatalf("cpu0 busy = %.2f", r.CPUBusy[0])
	}
	if r.CPUBusy[1] > 0.05 {
		t.Fatalf("cpu1 busy = %.2f", r.CPUBusy[1])
	}
	if r.ClassTime["cfs"] < 9*sim.Millisecond {
		t.Fatalf("cfs class time = %v", r.ClassTime["cfs"])
	}
	if r.Threads["spin"] == 0 {
		t.Fatal("thread grouping missing")
	}
	if r.String() == "" {
		t.Fatal("empty render")
	}
}
