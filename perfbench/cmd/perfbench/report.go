package main

import (
	"math"
	"runtime"
	"sort"

	"ghost"
)

// spanStats is what one traced run's spans say about each layer. Busy
// figures are self times in seconds.
type spanStats struct {
	window                                   float64 // root span duration, calibration slices left out
	other                                    float64 // self time of the root and of sim.run spans
	schedule, onMessage, policies            float64
	submit, check, envStep, fork             float64
	scheduleP50, scheduleP99                 float64 // ns
	scheduleCalls, onMessageCalls, callbacks uint64
}

func statsOf(tr *tracer) spanStats {
	self := func(name string) float64 { return float64(tr.agg(name).Self) / 1e9 }
	sched := tr.agg("policies.schedule")
	_, policies := tr.sumPrefix("policies.")
	callbacks, check := tr.sumPrefix("check.")
	return spanStats{
		window:         float64(tr.agg("window").Total-tr.agg("bench.calib").Total) / 1e9,
		other:          self("window") + self("sim.run"),
		schedule:       self("policies.schedule"),
		onMessage:      self("policies.on_message"),
		policies:       float64(policies) / 1e9,
		submit:         self("workload.submit"),
		check:          float64(check) / 1e9,
		envStep:        self("env.step"),
		fork:           self("snap.fork"),
		scheduleP50:    float64(sched.Hist.P50()),
		scheduleP99:    float64(sched.Hist.P99()),
		scheduleCalls:  sched.Count,
		onMessageCalls: tr.agg("policies.on_message").Count,
		callbacks:      callbacks,
	}
}

func (b *bench) meta() meta {
	m := meta{
		Workload: b.w.name, Seed: b.seed, Seconds: b.budget.Seconds(),
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		WarmSimMs:  float64(b.w.warm) / 1e6,
		TimedSimMs: float64(b.w.window) / 1e6,
		QuantumUs:  float64(stepQuantum) / 1e3,
		Runs:       len(b.ops),
	}
	if b.trace {
		m.Trace = 1
	}
	var untraced []*opResult
	var wall int64
	for _, r := range b.ops {
		if r.traced {
			m.TracedRuns++
			continue
		}
		untraced = append(untraced, r)
		for _, ns := range r.segNs {
			wall += ns
		}
	}
	if wall > 0 {
		m.HostSpeed = hostSpeed(untraced)
		m.WallRate = float64(b.w.window) * float64(len(untraced)) / float64(wall)
	}
	return m
}

// result assembles the printed result: end-to-end metrics from the
// untraced runs, or per-layer metrics when tracing. A run fails on a
// digest mismatch or an invariant violation; a fork fails on its own.
func (b *bench) result() result {
	res := result{Metrics: map[string]metric{}}
	var untraced, traced []*opResult
	for _, r := range b.ops {
		res.Attempted += 1 + int(r.counts.forks)
		res.Failed += len(r.forkErrs)
		if len(r.failures) > 0 {
			res.Failed++
		}
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	res.Correct = res.Failed == 0
	if b.trace {
		perLayer(res.Metrics, untraced, traced)
	} else {
		endToEnd(res.Metrics, untraced)
	}
	return res
}

// endToEnd reports the end-to-end metrics. live_mem_mb comes from the
// first run, before the results of earlier runs are held in memory.
func endToEnd(out map[string]metric, ops []*opResult) {
	out["setup_s"] = metric{setupTime(ops), "s"}
	out["sim_s_per_s"] = metric{simRate(ops), "s/s"}
	out["live_mem_mb"] = metric{float64(ops[0].liveMem) / (1 << 20), "MB"}
}

// perLayer reports the per-layer metrics. Work counts repeat exactly for
// a seed and come from the last traced run; busy times are medians over
// the traced runs; latencies and Go runtime figures come from the
// untraced runs.
func perLayer(out map[string]metric, untraced, traced []*opResult) {
	c := traced[len(traced)-1].counts
	s := traced[len(traced)-1].spans
	count := func(name string, v uint64) { out[name] = metric{float64(v), "count"} }
	busy := func(name, unit string, f func(spanStats) float64) {
		var v []float64
		for _, r := range traced {
			v = append(v, f(r.spans))
		}
		out[name] = metric{median(v), unit}
	}
	var eps, allocs, allocBytes, gcCycles, gcFrac, lat50, lat99 []float64
	var steps, forks ghost.Histogram
	var goroutines int
	var forkErrs int
	for _, r := range untraced {
		if ev := float64(r.counts.events); ev > 0 {
			eps = append(eps, ev*simRate([]*opResult{r})/(float64(r.simNs)/1e9))
			allocs = append(allocs, float64(r.gor.allocs)/ev)
			allocBytes = append(allocBytes, float64(r.gor.allocBytes)/ev)
		}
		gcCycles = append(gcCycles, float64(r.gor.gcCycles))
		gcFrac = append(gcFrac, r.gor.gcCPUFrac())
		lat50 = append(lat50, r.gor.schedLatency(0.50)*1e9)
		lat99 = append(lat99, r.gor.schedLatency(0.99)*1e9)
		goroutines = max(goroutines, r.gor.goroutines)
		steps.Merge(&r.steps)
		forks.Merge(&r.forks)
	}
	for _, ops := range [][]*opResult{untraced, traced} {
		for _, r := range ops {
			forkErrs += len(r.forkErrs)
		}
	}

	count("sim.events", c.events)
	count("sim.max_queue", c.maxQueue)
	out["sim.events_per_s"] = metric{median(eps), "1/s"}
	count("kernel.ctx_switches", c.ctxSwitches)
	count("kernel.wakeups", c.wakeups)
	count("kernel.ipis", c.ipis)
	count("kernel.threads", c.threads)
	count("ghostcore.msgs_posted", c.msgsPosted)
	count("ghostcore.msgs_delivered", c.msgsDelivered)
	count("ghostcore.txns_committed", c.txnsCommitted)
	count("ghostcore.txns_failed", c.txnsFailed)
	count("ghostcore.group_commits", c.groupCommits)
	out["ghostcore.commit_ratio"] = metric{ratio(c.txnsCommitted, c.txnsCommitted+c.txnsFailed), "ratio"}
	count("agentsdk.steps", c.agentSteps)
	count("agentsdk.preemptions", c.preemptions)
	out["agentsdk.msgs_per_step"] = metric{ratio(c.msgsDelivered, c.agentSteps), "count"}
	count("policies.schedule_calls", s.scheduleCalls)
	busy("policies.schedule_busy_s", "s", func(s spanStats) float64 { return s.schedule })
	busy("policies.schedule_ns_p50", "ns", func(s spanStats) float64 { return s.scheduleP50 })
	busy("policies.schedule_ns_p99", "ns", func(s spanStats) float64 { return s.scheduleP99 })
	count("policies.on_message_calls", s.onMessageCalls)
	busy("policies.on_message_busy_s", "s", func(s spanStats) float64 { return s.onMessage })
	busy("policies.busy_s", "s", func(s spanStats) float64 { return s.policies })
	count("policies.assignments", c.assignments)
	count("policies.txn_fail_calls", c.txnFailCalls)
	count("workload.arrivals", c.arrivals)
	count("workload.completions", c.completions)
	count("workload.backlog_end", c.backlog)
	busy("workload.submit_busy_s", "s", func(s spanStats) float64 { return s.submit })
	count("check.callbacks", s.callbacks)
	busy("check.busy_s", "s", func(s spanStats) float64 { return s.check })
	count("check.violations", c.violations)
	count("env.steps", c.envSteps)
	count("env.actions", c.envActions)
	busy("env.step_busy_s", "s", func(s spanStats) float64 { return s.envStep })
	out["env.step_us_p50"] = metric{float64(steps.P50()) / 1e3, "us"}
	out["env.step_us_p99"] = metric{float64(steps.P99()) / 1e3, "us"}
	count("snap.forks", c.forks)
	busy("snap.fork_busy_s", "s", func(s spanStats) float64 { return s.fork })
	count("snap.verify_failures", uint64(forkErrs))
	out["snap.fork_ms_p50"] = metric{float64(forks.P50()) / 1e6, "ms"}
	out["snap.fork_ms_p90"] = metric{float64(forks.P90()) / 1e6, "ms"}
	out["go.allocs_per_event"] = metric{median(allocs), "count"}
	out["go.alloc_bytes_per_event"] = metric{median(allocBytes), "B"}
	out["go.gc_cycles"] = metric{median(gcCycles), "count"}
	out["go.gc_cpu_frac"] = metric{median(gcFrac), "ratio"}
	count("go.goroutines_max", uint64(goroutines))
	out["go.sched_latency_p50_ns"] = metric{median(lat50), "ns"}
	out["go.sched_latency_p99_ns"] = metric{median(lat99), "ns"}
	busy("other.busy_s", "s", func(s spanStats) float64 { return s.other })
	busy("trace.window_s", "s", func(s spanStats) float64 { return s.window })
	out["trace.overhead_frac"] = metric{1 - simRate(traced)/simRate(untraced), "ratio"}
}

// calRefNs is the reference host speed: the time of a calibration slice
// on the 2-CPU x86 VM the benchmark was sized on, with no other tenant
// on its core. Host times are reported scaled to it.
const calRefNs = 60_000

// scaled returns host time ns, measured between calibration slices
// that took c0 and c1 ns, in ns of the reference host.
func scaled(ns, c0, c1 int64) float64 {
	return float64(ns) * calRefNs * 2 / float64(c0+c1)
}

// simRate is simulated seconds per second of the reference host over
// the timed window. Each segment's host time is scaled by the
// calibration slices on both sides of it, which follow the host's
// speed as it changes. Every run of an invocation replays the same
// simulation, because the seed is the same, so each segment is charged
// the fastest scaled time any run took for it.
func simRate(ops []*opResult) float64 {
	n := math.MaxInt
	for _, r := range ops {
		n = min(n, len(r.segNs))
	}
	var host, steps float64
	for i := 0; i < n; i++ {
		best := math.Inf(1)
		for _, r := range ops {
			// Slice i ran just before segment i, slice i+1 just after.
			best = min(best, scaled(r.segNs[i], r.calNs[i], r.calNs[i+1]))
		}
		host += best
		steps += float64(ops[0].segSteps[i])
	}
	if host == 0 {
		return 0
	}
	return steps * float64(stepQuantum) / host
}

// setupTime is the median set-up time in seconds of the reference host,
// each set-up scaled by the calibration slices just before and after it.
func setupTime(ops []*opResult) float64 {
	var v []float64
	for _, r := range ops {
		for i, ns := range r.setupNs {
			c := r.setupCal[i]
			v = append(v, scaled(ns, c[0], c[1])/1e9)
		}
	}
	return median(v)
}

// hostSpeed is the reference slice time over the median calibration
// slice of the runs: above 1 on a host faster than the reference.
func hostSpeed(ops []*opResult) float64 {
	var v []float64
	for _, r := range ops {
		for _, ns := range r.calNs {
			v = append(v, float64(ns))
		}
	}
	if len(v) == 0 {
		return 0
	}
	return calRefNs / median(v)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median returns the median of v; 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
