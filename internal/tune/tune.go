// Package tune searches policy tunables (internal/tunable) with seeded
// successive halving: a population of sampled configurations is
// evaluated on short simulations, the worst are culled, and the
// survivors re-run at geometrically longer horizons until one rung
// remains. The final rung is summarized as a Pareto front over
// (p99 latency, throughput) in the experiments report style.
//
// Everything is deterministic: configurations are drawn from one seeded
// generator in trial order, every evaluation seeds its own simulation,
// and rung evaluations run through experiments.RunJobs, so the rendered
// report is byte-identical at any -parallel setting.
package tune

import (
	"fmt"
	"math"
	"sort"

	"ghost/internal/experiments"
	"ghost/internal/sim"
	"ghost/internal/tunable"
)

// Objective is the outcome of one evaluation: the tuner minimizes P99
// and breaks ties toward higher Throughput.
type Objective struct {
	P99        sim.Duration
	Throughput float64
}

// Scenario is one tunable workload: a search space plus an evaluation
// function building and running its own simulation.
type Scenario struct {
	Name string
	Doc  string
	// Space returns a fresh detached tunable set declaring the search
	// ranges (it is sampled, never applied).
	Space func() *tunable.Set
	// Run evaluates params (tunable name -> value; empty = policy
	// defaults) for horizon simulated time and returns the objective.
	Run func(params map[string]float64, seed uint64, horizon sim.Duration) Objective
}

// Config sizes a successive-halving search.
type Config struct {
	// Trials is the rung-0 population (default 27).
	Trials int
	// Eta is the cull factor: each rung keeps ceil(n/Eta) trials and
	// multiplies the horizon by Eta (default 3).
	Eta int
	// Seed drives sampling and every evaluation.
	Seed uint64
	// BaseHorizon is the rung-0 simulation length (default 20 ms).
	BaseHorizon sim.Duration
	// Parallel bounds the evaluation worker pool (0 = GOMAXPROCS); it
	// does not change a single output byte.
	Parallel int
}

func (c Config) withDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 27
	}
	if c.Eta < 2 {
		c.Eta = 3
	}
	if c.BaseHorizon <= 0 {
		c.BaseHorizon = 20 * sim.Millisecond
	}
	return c
}

// Trial is one sampled configuration and its most recent evaluation.
type Trial struct {
	ID     int
	Params map[string]float64
	// Rungs counts evaluations survived; Obj is from the longest
	// horizon reached.
	Rungs int
	Obj   Objective
	// Pareto marks membership in the final front.
	Pareto bool
}

// Result is the outcome of one scenario search.
type Result struct {
	Scenario string
	Config   Config
	// Final holds the last rung's trials sorted by p99; Front is the
	// Pareto subset (p99 ascending, throughput descending).
	Final []*Trial
	Front []*Trial
	// Baseline is the policy with factory defaults, evaluated at the
	// final horizon.
	Baseline Objective
	// Horizons lists the per-rung simulation lengths.
	Horizons []sim.Duration
}

// sample draws the rung-0 population: one seeded generator, trials in
// ID order, tunables in declaration order — byte-reproducible.
func sample(s Scenario, cfg Config) []*Trial {
	space := s.Space()
	rnd := sim.NewRand(cfg.Seed*1_000_003 + 17)
	trials := make([]*Trial, cfg.Trials)
	for i := range trials {
		params := make(map[string]float64, space.Len())
		for _, t := range space.List() {
			params[t.Name] = t.Sample(rnd.Float64())
		}
		trials[i] = &Trial{ID: i, Params: params}
	}
	return trials
}

// evalAll runs one rung of evaluations through the bounded worker pool.
func evalAll(s Scenario, cfg Config, trials []*Trial, horizon sim.Duration, rung int) {
	jobs := make([]experiments.Job, len(trials))
	for i, tr := range trials {
		tr := tr
		seed := cfg.Seed + uint64(tr.ID)*101 + uint64(rung)*1_000_003
		jobs[i] = experiments.Job{
			Name: fmt.Sprintf("%s/t%d/r%d", s.Name, tr.ID, rung),
			Seed: seed,
			Run:  func() any { return s.Run(tr.Params, seed, horizon) },
		}
	}
	par := experiments.Options{Parallel: cfg.Parallel}.Parallelism()
	for i, r := range experiments.RunJobs(par, jobs) {
		trials[i].Obj = r.(Objective)
		trials[i].Rungs++
	}
}

// rank orders trials best-first: p99 ascending, then throughput
// descending, then trial ID (total order for reproducibility).
func rank(trials []*Trial) {
	sort.Slice(trials, func(i, j int) bool {
		a, b := trials[i], trials[j]
		if a.Obj.P99 != b.Obj.P99 {
			return a.Obj.P99 < b.Obj.P99
		}
		if a.Obj.Throughput != b.Obj.Throughput {
			return a.Obj.Throughput > b.Obj.Throughput
		}
		return a.ID < b.ID
	})
}

// pareto marks and returns the non-dominated subset of a ranked slice:
// walking p99 ascending, a trial joins the front iff it strictly beats
// every earlier front member on throughput.
func pareto(ranked []*Trial) []*Trial {
	var front []*Trial
	best := math.Inf(-1)
	for _, tr := range ranked {
		if tr.Obj.Throughput > best {
			tr.Pareto = true
			front = append(front, tr)
			best = tr.Obj.Throughput
		}
	}
	return front
}

// Search runs successive halving for one scenario.
func Search(s Scenario, cfg Config) *Result {
	cfg = cfg.withDefaults()
	pop := sample(s, cfg)
	res := &Result{Scenario: s.Name, Config: cfg}
	horizon := cfg.BaseHorizon
	for rung := 0; ; rung++ {
		evalAll(s, cfg, pop, horizon, rung)
		res.Horizons = append(res.Horizons, horizon)
		rank(pop)
		if len(pop) == 1 {
			break
		}
		keep := (len(pop) + cfg.Eta - 1) / cfg.Eta
		pop = pop[:keep]
		horizon *= sim.Duration(cfg.Eta)
	}
	res.Final = pop
	res.Front = pareto(pop)
	finalHorizon := res.Horizons[len(res.Horizons)-1]
	res.Baseline = s.Run(nil, cfg.Seed+999_983, finalHorizon)
	return res
}

// Report renders the search outcome in the experiments table style.
func (r *Result) Report(s Scenario) *experiments.Report {
	space := s.Space()
	names := space.Names()
	rep := &experiments.Report{
		ID:     "tune-" + r.Scenario,
		Title:  s.Doc,
		Header: append(append([]string{"trial", "rungs"}, names...), "p99(us)", "kreq/s", "front"),
	}
	row := func(label, rungs string, params map[string]float64, o Objective, front bool) {
		cells := []string{label, rungs}
		for _, n := range names {
			if params == nil {
				t, _ := space.Get(n)
				cells = append(cells, fmt.Sprintf("%.4g*", t.Default))
			} else {
				cells = append(cells, fmt.Sprintf("%.4g", params[n]))
			}
		}
		mark := ""
		if front {
			mark = "*"
		}
		cells = append(cells,
			fmt.Sprintf("%.1f", float64(o.P99)/float64(sim.Microsecond)),
			fmt.Sprintf("%.1f", o.Throughput/1000), mark)
		rep.Rows = append(rep.Rows, cells)
	}
	row("default", "-", nil, r.Baseline, false)
	for _, tr := range r.Final {
		row(fmt.Sprintf("%d", tr.ID), fmt.Sprintf("%d", tr.Rungs), tr.Params, tr.Obj, tr.Pareto)
	}
	rep.Notef("successive halving: %d trials, eta %d, %d rungs, horizon %v to %v (seed %d)",
		r.Config.Trials, r.Config.Eta, len(r.Horizons),
		r.Horizons[0], r.Horizons[len(r.Horizons)-1], r.Config.Seed)
	if len(r.Front) > 0 {
		best := r.Front[0].Obj
		if r.Baseline.P99 > 0 {
			rep.Notef("best p99 %v vs default %v (%.1f%%) at %.0f%% of default throughput",
				best.P99, r.Baseline.P99,
				100*float64(best.P99)/float64(r.Baseline.P99),
				100*best.Throughput/math.Max(r.Baseline.Throughput, 1))
		}
		rep.Notef("Pareto front (* rows): %d of %d final-rung trials", len(r.Front), len(r.Final))
	}
	return rep
}
