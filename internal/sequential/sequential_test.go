package sequential_test

import (
	"runtime"
	"testing"
	"time"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sequential"
	"ghost/internal/sim"
)

// waitGoroutines polls until the goroutine count is back to want; an
// unwound goroutine may take a moment to be reaped after it signalled.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want the baseline %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestSequentialBody covers the adapter: a straight-line body runs its
// Run(0), Sleep, Yield and Run in order, returning exits the thread, and
// bodies parked in Run or in Block when their thread is killed, or when
// the kernel shuts down, are unwound so no goroutine outlives them.
func TestSequentialBody(t *testing.T) {
	base := runtime.NumGoroutine()
	topo := hw.NewTopology(hw.Config{Name: "seq", Sockets: 1, CCXsPerSocket: 1, CoresPerCCX: 2, SMTWidth: 1})
	eng := sim.NewEngine()
	k := kernel.New(eng, topo, hw.DefaultCostModel())
	cfs := kernel.NewCFS(k)
	spawn := func(name string, fn func(tc *sequential.Task)) *kernel.Thread {
		return k.Spawn(kernel.SpawnOpts{Name: name, Class: cfs}, sequential.Body(fn))
	}

	var steps []sim.Time
	done := spawn("straight", func(tc *sequential.Task) {
		tc.Run(0)
		steps = append(steps, tc.Now())
		tc.Sleep(2 * sim.Millisecond)
		steps = append(steps, tc.Now())
		tc.Yield()
		tc.Run(sim.Microsecond)
		steps = append(steps, tc.Now())
	})
	unwound := 0
	parked := func(tc *sequential.Task, park func()) {
		defer func() { unwound++ }()
		for {
			park()
		}
	}
	killRun := spawn("kill-run", func(tc *sequential.Task) { parked(tc, func() { tc.Run(sim.Second) }) })
	killBlock := spawn("kill-block", func(tc *sequential.Task) { parked(tc, tc.Block) })
	spawn("shutdown-run", func(tc *sequential.Task) { parked(tc, func() { tc.Run(sim.Second) }) })
	spawn("shutdown-block", func(tc *sequential.Task) { parked(tc, tc.Block) })
	if got := runtime.NumGoroutine(); got != base+5 {
		t.Fatalf("goroutines after 5 spawns = %d, want %d", got, base+5)
	}

	eng.RunFor(5 * sim.Millisecond)
	if len(steps) != 3 || steps[0] != 0 || steps[1] != 2*sim.Millisecond || steps[2] < steps[1]+sim.Microsecond {
		t.Fatalf("straight-line body steps at %v, want [0 2ms >=2.001ms]", steps)
	}
	if done.State() != kernel.StateDead {
		t.Fatalf("body returned but its thread is %v, want dead", done.State())
	}
	if killRun.State() != kernel.StateRunning && killRun.State() != kernel.StateRunnable {
		t.Fatalf("kill-run is %v, want parked in its Run", killRun.State())
	}
	if killBlock.State() != kernel.StateBlocked {
		t.Fatalf("kill-block is %v, want parked in its Block", killBlock.State())
	}
	k.Kill(killRun)
	k.Kill(killBlock)
	if unwound != 2 {
		t.Fatalf("%d bodies unwound after two kills, want 2", unwound)
	}
	k.Shutdown()
	if unwound != 4 {
		t.Fatalf("%d bodies unwound after Shutdown, want 4", unwound)
	}
	waitGoroutines(t, base)
}
