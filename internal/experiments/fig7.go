package experiments

import (
	"fmt"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

func init() {
	register(Experiment{ID: "fig7a", Title: "Snap RTT percentiles, quiet mode (Fig 7a)",
		Run: func(o Options) *Report { return runFig7(o, false) }})
	register(Experiment{ID: "fig7b", Title: "Snap RTT percentiles, loaded mode (Fig 7b)",
		Run: func(o Options) *Report { return runFig7(o, true) }})
}

// runFig7 reproduces Fig 7: Snap worker threads scheduled by MicroQuanta
// (the production soft-realtime scheduler) versus a simple centralized
// ghOSt FIFO policy that gives Snap workers strict priority over
// antagonists. Quiet mode runs only the networking load; loaded mode
// adds 40 batch antagonist threads.
func runFig7(o Options, loaded bool) *Report {
	id := "fig7a"
	mode := "quiet"
	if loaded {
		id = "fig7b"
		mode = "loaded"
	}
	rep := &Report{
		ID: id, Title: "Snap round-trip latency (" + mode + " mode)",
		Header: []string{"scheduler", "size", "p50(us)", "p90(us)", "p99(us)", "p99.9(us)", "p99.99(us)"},
	}
	schedulers := []string{"microquanta", "ghost"}
	type fig7Out struct {
		b, kb *workload.LatencyRecorder
	}
	outs := sweep(o, len(schedulers), func(i int) fig7Out {
		b, kb := fig7Run(schedulers[i], loaded, o)
		return fig7Out{b, kb}
	})
	for i, scheduler := range schedulers {
		row := func(name string, h interface {
			Quantile(float64) sim.Duration
		}) {
			rep.AddRow(scheduler, name,
				us(h.Quantile(0.50)), us(h.Quantile(0.90)), us(h.Quantile(0.99)),
				us(h.Quantile(0.999)), us(h.Quantile(0.9999)))
		}
		row("64B", &outs[i].b.Hist)
		row("64kB", &outs[i].kb.Hist)
	}
	rep.Notef("expected shape (§4.3): similar medians; for 64kB tails ghOSt is 5-30%% " +
		"better (it relocates workers instead of waiting out MicroQuanta blackouts); " +
		"for 64B extreme tails MicroQuanta can win (ghOSt pays per-event scheduling)")
	return rep
}

// fig7Run runs the Snap workload under one scheduler and returns the
// 64B and 64kB recorders.
func fig7Run(scheduler string, loaded bool, o Options) (*workload.LatencyRecorder, *workload.LatencyRecorder) {
	topo := hw.SkylakeDefault() // §4.3 machine, one socket used
	var cpus []hw.CPUID
	for i := 0; i < 28; i++ { // socket-0 physical cores
		cpus = append(cpus, hw.CPUID(i))
	}
	for i := 56; i < 84; i++ { // their SMT siblings
		cpus = append(cpus, hw.CPUID(i))
	}
	mask := kernel.MaskOf(cpus...)

	dur := 4 * sim.Second
	warm := 300 * sim.Millisecond
	if o.Quick {
		dur = sim.Second
		warm = 100 * sim.Millisecond
	}

	useGhost := scheduler == "ghost"
	m := newMachine(machineOpts{topo: topo, mq: !useGhost})
	defer m.k.Shutdown()

	cfg := workload.DefaultSnapConfig()
	cfg.Seed = o.Seed + 7
	cfg.ServerMask = mask

	var antagonists []*kernel.Thread
	spawnServer := func(name string, body kernel.ThreadFunc) *kernel.Thread {
		return m.k.Spawn(kernel.SpawnOpts{Name: name, Class: m.cfs, Affinity: mask}, body)
	}

	var snap *workload.Snap
	if useGhost {
		enc := m.enclaveOn(cpus...)
		pol := policies.NewCentralFIFO()
		pol.NumBands = 2
		pol.PreemptLower = true
		pol.Band = func(t *kernel.Thread) int {
			if t.Name() == "antagonist" {
				return 1
			}
			return 0
		}
		m.startCentral(enc, pol)
		snap = workload.NewSnap(m.k, cfg, func(name string, body kernel.ThreadFunc) *kernel.Thread {
			return enc.SpawnThread(kernel.SpawnOpts{Name: name}, body)
		}, spawnServer)
		if loaded {
			for i := 0; i < 40; i++ {
				antagonists = append(antagonists, enc.SpawnThread(
					kernel.SpawnOpts{Name: "antagonist"}, workload.Spinner(100*sim.Microsecond)))
			}
		}
	} else {
		snap = workload.NewSnap(m.k, cfg, func(name string, body kernel.ThreadFunc) *kernel.Thread {
			return m.k.Spawn(kernel.SpawnOpts{Name: name, Class: m.mq, Affinity: mask}, body)
		}, spawnServer)
		if loaded {
			for i := 0; i < 40; i++ {
				antagonists = append(antagonists, m.k.Spawn(kernel.SpawnOpts{
					Name: "antagonist", Class: m.cfs, Affinity: mask, Nice: 19,
				}, workload.Spinner(100*sim.Microsecond)))
			}
		}
	}
	_ = antagonists
	snap.SetWarmup(warm)
	m.m.Run(dur)
	return &snap.Rec64B, &snap.Rec64K
}

// fmtShare renders a fraction as a percentage.
func fmtShare(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
