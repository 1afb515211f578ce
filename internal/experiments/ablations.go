package experiments

import (
	"fmt"

	"ghost"
	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/policies"
	"ghost/internal/sim"
	"ghost/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "group-commit",
		Title: "Group commit amortization sweep (§3.2, Table 3 lines 4-9)",
		Run:   runGroupCommit,
	})
	register(Experiment{
		ID:    "bpf-fastpath",
		Title: "BPF pick_next_task fastpath on/off (§3.2, §5)",
		Run:   runBPFFastpath,
	})
}

// runGroupCommit sweeps the transaction group size and reports the
// agent-side cost per transaction and the implied scheduling throughput
// ceiling — the amortization argument of §3.2.
func runGroupCommit(o Options) *Report {
	rep := &Report{
		ID: "group-commit", Title: "Group commit amortization",
		Header: []string{"group size", "agent cost(ns)", "per txn(ns)", "max Mtxns/s", "measured e2e(ns)"},
	}
	cm := hw.DefaultCostModel()
	sizes := []int{1, 2, 5, 10, 20, 50}
	e2es := sweep(o, len(sizes), func(i int) sim.Duration {
		return measureRemoteE2E(o, sizes[i])
	})
	for i, n := range sizes {
		total := cm.RemoteCommitAgentCost(n)
		per := total / sim.Duration(n)
		rep.AddRow(itoa(n), ns(total), ns(per),
			fmt.Sprintf("%.2f", float64(n)/float64(total)*1000), ns(e2es[i]))
	}
	rep.Notef("per-transaction agent cost falls from 668 ns to the ~366 ns marginal " +
		"cost as the syscall and IPI batch overheads amortize (paper: 1.5M -> 2.52M txns/s)")
	return rep
}

// runBPFFastpath compares a centralized FIFO policy with and without the
// enclave BPF program that picks a thread the moment a CPU idles,
// closing the agent's scheduling gap (§3.2, §5).
func runBPFFastpath(o Options) *Report {
	rep := &Report{
		ID: "bpf-fastpath", Title: "BPF idle fastpath",
		Header: []string{"variant", "p50(us)", "p99(us)", "throughput(kreq/s)", "BPF commits"},
	}
	type bpfOut struct {
		p50, p99 sim.Duration
		thr      float64
		commits  uint64
	}
	outs := sweep(o, 2, func(i int) bpfOut {
		p50, p99, thr, commits := bpfRun(i == 1, o)
		return bpfOut{p50, p99, thr, commits}
	})
	for i, out := range outs {
		name := "agent-only"
		if i == 1 {
			name = "agent+bpf"
		}
		rep.AddRow(name, us(out.p50), us(out.p99), fmt.Sprintf("%.0f", out.thr/1000), fmt.Sprintf("%d", out.commits))
	}
	rep.Notef("the BPF program commits locally when a CPU idles before the agent's " +
		"next loop, recovering the scheduling-gap time (§5)")
	return rep
}

// bpfQueue adapts the CentralFIFO policy runqueue into a BPF program: a
// shared ring the in-kernel hook pops when a CPU idles.
type bpfQueue struct {
	enc *ghost.Enclave
}

func (b *bpfQueue) PickNextOnIdle(cpu hw.CPUID) *kernel.Thread {
	for _, t := range b.enc.RunnableThreads() {
		if t.Affinity().Has(cpu) {
			return t
		}
	}
	return nil
}

func bpfRun(withBPF bool, o Options) (p50, p99 sim.Duration, thr float64, commits uint64) {
	topo := hw.XeonE5()
	m := newMachine(machineOpts{topo: topo})
	defer m.k.Shutdown()
	var cpus []hw.CPUID
	for i := 0; i <= 12; i++ {
		cpus = append(cpus, hw.CPUID(i))
	}
	enc := m.enclaveOn(cpus...)
	m.startCentral(enc, policies.NewCentralFIFO())
	if withBPF {
		enc.SetBPF(&bpfQueue{enc: enc})
	}
	rec := &workload.LatencyRecorder{WarmupUntil: 50 * sim.Millisecond}
	pool := workload.NewWorkerPool(m.k, 64, rec, func(name string, body kernel.ThreadFunc) *kernel.Thread {
		return enc.SpawnThread(kernel.SpawnOpts{Name: name}, body)
	})
	dur := sim.Second
	if o.Quick {
		dur = 300 * sim.Millisecond
	}
	workload.NewPoissonSource(m.eng, sim.NewRand(o.Seed+3), 200000,
		workload.Fixed(25*sim.Microsecond), pool.Submit)
	m.m.Run(dur)
	return rec.Hist.P50(), rec.Hist.P99(), rec.Throughput(m.eng.Now()), m.g.BPFCommits
}

func init() {
	register(Experiment{
		ID:    "tickless",
		Title: "Tickless scheduling for VM workloads (§5)",
		Run:   runTickless,
	})
}

// runTickless reproduces the §5 future-work argument: per-CPU timer
// ticks cause VM-exits for guest vCPUs; with a spinning global agent the
// ticks are unnecessary and can be disabled, removing the jitter. The
// experiment runs the bwaves VM workload under the ghOSt core scheduler
// with a 2 µs per-tick VM-exit cost, ticks on vs off.
func runTickless(o Options) *Report {
	rep := &Report{
		ID: "tickless", Title: "Tickless scheduling",
		Header: []string{"variant", "total time(ms)", "mean completion(ms)"},
	}
	work := 20 * sim.Millisecond
	if o.Quick {
		work = 10 * sim.Millisecond
	}
	type tkOut struct {
		done, mean sim.Duration
	}
	outs := sweep(o, 2, func(i int) tkOut {
		done, mean := ticklessRun(i == 1, work, o)
		return tkOut{done, mean}
	})
	base := outs[0].mean
	for i, out := range outs {
		name := "ticked (2us VM-exit/tick)"
		if i == 1 {
			name = "tickless"
		}
		rep.AddRow(name,
			fmt.Sprintf("%.2f", float64(out.done)/float64(sim.Millisecond)),
			fmt.Sprintf("%.2f", float64(out.mean)/float64(sim.Millisecond)))
		if i == 1 && out.mean >= base {
			rep.Notef("WARNING: tickless did not improve completion time")
		}
	}
	rep.Notef("disabling ticks on enclave CPUs removes the per-tick VM-exit work; " +
		"the spinning global agent makes the ticks redundant (§5)")
	return rep
}

func ticklessRun(tickless bool, work sim.Duration, o Options) (sim.Duration, sim.Duration) {
	topo := hw.SkylakeDefault()
	cost := hw.DefaultCostModel()
	cost.TickOverhead = 2 * sim.Microsecond
	m := ghost.NewMachine(topo, ghost.WithCostModel(cost),
		ghost.WithoutMetrics(), ghost.WithoutMicroQuanta())
	k := m.Kernel()
	defer m.Shutdown()

	var cpus []hw.CPUID
	for i := 0; i < 25; i++ {
		cpus = append(cpus, hw.CPUID(i), hw.CPUID(i+56))
	}
	enc := m.NewEnclave(kernel.MaskOf(cpus...))
	if tickless {
		enc.SetTickless(true)
	}
	m.StartAgents(enc, policies.NewCoreSched(workload.VMOf), ghost.Global())
	set := workload.NewVMSet(k, 4, 8, work, 500*sim.Microsecond,
		func(name string, tag any, body kernel.ThreadFunc) *kernel.Thread {
			return enc.SpawnThread(kernel.SpawnOpts{Name: name, Tag: tag}, body)
		})
	m.Run(60 * work)
	if set.Done == 0 {
		return 60 * work, 60 * work
	}
	return set.Done, set.MeanCompletion()
}
