package experiments

import (
	"fmt"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig5",
		Title: "Global agent scalability (Fig 5)",
		Run:   runFig5,
	})
}

// runFig5 reproduces Fig 5: a round-robin global agent schedules yield-
// looping threads onto an increasing number of CPUs; the committed-
// transactions-per-second curve shows the ramp (more CPUs consume more
// transactions), the dip when workers reach the agent's SMT sibling, and
// the droop when scheduling crosses the NUMA interconnect.
//
// CPUs are added in the paper's order: socket-0 physical cores first,
// then socket-0 hyperthread siblings (the agent's own sibling last in
// that group), then socket 1.
func runFig5(o Options) *Report {
	rep := &Report{
		ID: "fig5", Title: "Global agent scalability",
		Header: []string{"machine", "CPUs", "Mtxns/s"},
	}
	machines := []struct {
		name string
		topo func() *hw.Topology
	}{
		{"skylake", hw.SkylakeDefault},
		{"haswell", hw.Haswell},
	}
	// Flatten the (machine, CPU count) sweep into independent jobs, then
	// render in submission order so the report matches serial output.
	type point struct {
		machine string
		topo    func() *hw.Topology
		order   []hw.CPUID
		n       int
	}
	var pts []point
	for _, mc := range machines {
		order := fig5CPUOrder(mc.topo())
		for _, n := range fig5Sweep(len(order), o.Quick) {
			pts = append(pts, point{mc.name, mc.topo, order, n})
		}
		if o.Quick && mc.name == "haswell" {
			break
		}
	}
	rates := sweep(o, len(pts), func(i int) float64 {
		p := pts[i]
		return fig5Point(p.topo(), p.order[:p.n], o)
	})
	var series *stats.TimeSeries
	for i, p := range pts {
		if series == nil || series.Name != "fig5-"+p.machine {
			series = &stats.TimeSeries{Name: "fig5-" + p.machine}
			rep.Series = append(rep.Series, series)
		}
		series.Add(sim.Time(p.n), rates[i])
		rep.AddRow(p.machine, itoa(p.n), fmt.Sprintf("%.3f", rates[i]/1e6))
	}
	rep.Notef("expected shape: ramp while CPUs are added, dip when the agent's SMT " +
		"sibling gets workers, degradation on the remote socket (paper Fig 5)")
	if o.SnapshotEvery > 0 {
		rep.Notef("snapshot smoke: every point snapshot->restore digest-verified (restore transparent)")
	}
	return rep
}

// fig5CPUOrder lists schedulable CPUs: socket-0 cores (sans agent cpu),
// agent's sibling placed at the end of the socket-0 sibling group, then
// socket 1.
func fig5CPUOrder(topo *hw.Topology) []hw.CPUID {
	agent := hw.CPUID(0)
	agentSib := topo.CPU(agent).Sibling()
	var s0cores, s0sibs, s1 []hw.CPUID
	ncores := topo.NumCores()
	for i := 0; i < topo.NumCPUs(); i++ {
		id := hw.CPUID(i)
		if id == agent || id == agentSib {
			continue
		}
		info := topo.CPU(id)
		switch {
		case info.Socket == 0 && int(id) < ncores:
			s0cores = append(s0cores, id)
		case info.Socket == 0:
			s0sibs = append(s0sibs, id)
		default:
			s1 = append(s1, id)
		}
	}
	out := append(s0cores, s0sibs...)
	if agentSib != hw.NoCPU {
		out = append(out, agentSib) // co-location point: the Fig 5 dip
	}
	return append(out, s1...)
}

// fig5Sweep picks the CPU counts to sample.
func fig5Sweep(max int, quick bool) []int {
	stride := 4
	if quick {
		stride = 16
	}
	var out []int
	for n := 1; n <= max; n += stride {
		out = append(out, n)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// fig5Point measures committed txns/s for one CPU count.
func fig5Point(topo *hw.Topology, cpus []hw.CPUID, o Options) float64 {
	m := newMachine(machineOpts{topo: topo})
	defer m.k.Shutdown()
	encCPUs := append([]hw.CPUID{0}, cpus...)
	enc := m.enclaveOn(encCPUs...)
	set := m.startCentral(enc, policies.NewCentralFIFO())

	// Yield-loopers: each completed transaction is ~work + a yield, so
	// every CPU consumes transactions at ~1/work per second until the
	// agent saturates.
	const work = 15 * sim.Microsecond
	nThreads := 2 * len(cpus)
	for i := 0; i < nThreads; i++ {
		th := enc.SpawnThread(kernel.SpawnOpts{Name: "looper"}, fig5Looper(work, false))
		th.SetBodyDesc(&kernel.BodyDesc{Kind: "experiments.fig5-looper", Args: []int64{int64(work)}})
	}
	warm := 5 * sim.Millisecond
	window := 50 * sim.Millisecond
	if o.Quick {
		window = 20 * sim.Millisecond
	}
	m.m.Run(warm)
	base := set.TxnsCommitted
	if o.SnapshotEvery > 0 {
		// Restore-transparency smoke: snapshot here, run the window on
		// both the original and the restored machine, compare digests.
		fig5SnapshotSmoke(m, sim.Time(warm+window))
	} else {
		m.m.Run(window)
	}
	return float64(set.TxnsCommitted-base) / window.Seconds()
}
