// Command perfbench is the repository's benchmark: it runs the simulator
// on one named workload for a fixed host-time budget, checks that the
// simulated output is correct, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// wrapper in place. With --trace 1 the run alternates untraced and traced
// operations and reports the per-layer metrics, which come from spans the
// benchmark records around the calls it makes into each layer and around
// the policy, sink and oracles it hands to the simulator.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload serve-shinjuku --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// defaultSeed is the seed the recorded digests were taken at.
const defaultSeed = 1

// recordedDigests are the digests of each workload's simulated output at
// the default seed. At every seed, serve-oracles is also checked
// against serve-shinjuku run at serve-oracles' horizons (sameAs).
var recordedDigests = map[string]string{
	"serve-shinjuku": "9bd31fc46669cb7cb0d20dbb498c6d42f0fc32e455697952d7f81b7e02bd9d63",
	"serve-oracles":  "802b6c7c7b46f986f1d74ec56d991701a77dd6a2daf4ba5b18b5c0014bd575ff",
	"search-rome":    "01ddba94581ce9dc1348438cf28c02a77f9f978bb24d3c9ef8fae31c6c59e44a",
	"env-fork":       "55083c910aa66fbb47be9fe264b2c0feac473c1f65771ac0047c7378ca11082a",
}

// meta is the host and configuration record printed with every result,
// so two recordings can be checked as comparable.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Trace      int     `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	WarmSimMs  float64 `json:"warmup_sim_ms"`
	TimedSimMs float64 `json:"timed_sim_ms"`
	QuantumUs  float64 `json:"step_sim_us"`
	Runs       int     `json:"runs"`
	TracedRuns int     `json:"traced_runs"`
	// Over the untraced runs: the host's speed relative to the
	// reference (see hostSpeed), and simulated seconds per wall-clock
	// second, unscaled.
	HostSpeed float64 `json:"host_speed"`
	WallRate  float64 `json:"wall_sim_s_per_s"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-shinjuku, search-rome, serve-oracles or env-fork")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "host seconds to measure for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *traced != 0 && *traced != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	// One P keeps goroutine handoffs between simulated threads on one
	// OS thread and puts the garbage collector on the measured path.
	runtime.GOMAXPROCS(1)
	b := newBench(w, *seed, *traced == 1, time.Duration(*seconds*float64(time.Second)))
	return b.run(fmt.Sprintf(".bench_build/perfbench/spans-%s.json", w.name), stdout, stderr)
}

func newBench(w *workloadDef, seed uint64, trace bool, budget time.Duration) *bench {
	b := &bench{w: w, seed: seed, trace: trace, budget: budget, cal: newCalib()}
	if trace {
		b.tr = newTracer()
	}
	return b
}

// run measures, writes the span file of a traced run to spansPath, and
// prints the metadata, one line per metric and the result line.
func (b *bench) run(spansPath string, stdout, stderr io.Writer) int {
	b.loop()
	m := b.meta()
	res := b.result()
	if b.trace {
		if err := b.tr.write(spansPath, m, b.runAggs); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	for _, f := range b.failures {
		fmt.Fprintf(stderr, "perfbench: %s: FAILED: %s\n", b.w.name, f)
	}
	mb, err := json.Marshal(map[string]meta{"meta": m})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(mb))
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(stdout, "failed_frac %.6g (%d of %d operations)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(rb))
	return 0
}

// bench runs operations of one workload until the host-time budget is
// spent. An operation is one set-up plus one timed window; in env-fork
// each fork is an operation too.
type bench struct {
	w      *workloadDef
	seed   uint64
	trace  bool
	budget time.Duration
	tr     *tracer
	cal    *calib

	ops      []*opResult
	failures []string
	runAggs  [][]aggOut
}

// setupsPerRun is how many times each run sets its workload up; the
// instance of the last set-up is measured, the others are torn down.
const setupsPerRun = 9

func (b *bench) loop() {
	start := time.Now()
	minRuns := 1
	if b.trace {
		minRuns = 2 // one untraced and one traced run
	}
	var want string
	for i := 0; ; i++ {
		traced := b.trace && i%2 == 1
		t0 := time.Now()
		r := b.op(traced)
		b.ops = append(b.ops, r)
		if traced {
			b.runAggs = append(b.runAggs, r.aggs)
		}
		// Every run of one invocation uses the same seed, so all must
		// produce the same simulated output, traced or not.
		if want == "" {
			want = r.digest
			if rec := recordedDigests[b.w.name]; b.seed == defaultSeed && r.digest != rec {
				r.failf("digest %s differs from the recorded %s", r.digest, rec)
			}
			if b.w.sameAs != "" {
				if ref := b.reference(); ref != r.digest {
					r.failf("digest %s differs from %s's %s at the same horizon", r.digest, b.w.sameAs, ref)
				}
			}
		} else if r.digest != want {
			r.failf("digest %s differs from the first run's %s", r.digest, want)
		}
		for _, f := range append(r.failures, r.forkErrs...) {
			b.failures = append(b.failures, fmt.Sprintf("run %d (traced=%v): %s", i, traced, f))
		}
		// Stop when another run like this one would overrun the budget.
		if i+1 >= minRuns && time.Since(start)+time.Since(t0) > b.budget {
			return
		}
	}
}

// op performs one run: set-up (construction and simulated warm-up,
// repeated setupsPerRun times, each between two calibration slices),
// the timed window, then the untimed digest and teardown.
func (b *bench) op(traced bool) *opResult {
	var tr *tracer
	if traced {
		tr = b.tr
	}
	res := &opResult{traced: traced, cal: b.cal, tr: tr, segLen: b.w.seg}
	var inst instance
	for i := 0; i < setupsPerRun; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			settle()
		}
		runtime.GC()
		before := b.cal.slice()
		t0 := time.Now()
		in, err := b.w.open(b.w, b.seed, tr)
		if err != nil {
			res.failf("set-up: %v", err)
			return res
		}
		res.setupNs = append(res.setupNs, int64(time.Since(t0)))
		res.setupCal = append(res.setupCal, [2]int64{before, b.cal.slice()})
		inst = in
	}
	res.simNs = int64(b.w.window)
	inst.mark()
	g0 := readGo()
	tr.startRun()
	inst.run(res, tr)
	tr.endRun()
	res.gor = readGo().sub(g0)
	res.liveMem = liveMem()
	inst.finish(res)
	if traced {
		res.aggs = tr.runAggs()
		res.spans = statsOf(tr)
	}
	return res
}

// reference runs, untimed and untraced, the workload this one must
// match, at this workload's horizons, and returns its digest.
func (b *bench) reference() string {
	ref := *findWorkload(b.w.sameAs)
	ref.warm, ref.window = b.w.warm, b.w.window
	inst, err := ref.open(&ref, b.seed, nil)
	if err != nil {
		return err.Error()
	}
	res := opResult{cal: b.cal, segLen: ref.seg}
	inst.mark()
	inst.run(&res, nil)
	inst.finish(&res)
	return res.digest
}
