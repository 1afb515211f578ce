package env_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ghost"
	"ghost/env"
)

func baseSpec() env.Spec {
	return env.Spec{
		Version: env.V1,
		CPUs:    4,
		Seed:    7,
		Quantum: 50 * ghost.Microsecond,
		Horizon: 20 * ghost.Millisecond,
		Workload: env.WorkloadSpec{
			Rate:    150_000,
			Workers: 16,
			Service: env.ServiceSpec{Dist: "exp", Mean: 15 * ghost.Microsecond},
		},
		SLO:          500 * ghost.Microsecond,
		AutoDispatch: true,
	}
}

func TestOpenRejectsBadSpecs(t *testing.T) {
	if _, err := env.Open(env.Spec{}); !errors.Is(err, env.ErrVersion) {
		t.Fatalf("zero-version Open: got %v, want ErrVersion", err)
	}
	if _, err := env.Open(env.Spec{Version: env.V1, Topology: "cray"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	bad := env.Spec{Version: env.V1}
	bad.Workload.Service.Dist = "zipf"
	if _, err := env.Open(bad); err == nil {
		t.Fatal("unknown service distribution accepted")
	}
}

func TestAutoDispatchServesLoad(t *testing.T) {
	e, err := env.Open(baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var last env.Observation
	steps := 0
	for {
		obs, _, done := e.Step(nil)
		steps++
		last = obs
		if done {
			break
		}
		if steps > 10_000 {
			t.Fatal("environment never reached its horizon")
		}
	}
	if last.Completions == 0 {
		t.Fatal("auto-dispatch completed no requests")
	}
	if last.Arrivals < last.Completions {
		t.Fatalf("completions %d exceed arrivals %d", last.Completions, last.Arrivals)
	}
	if last.Total.Count == 0 || last.Total.P99 == 0 {
		t.Fatalf("empty latency summary: %+v", last.Total)
	}
	if last.Now != ghost.Time(20*ghost.Millisecond) {
		t.Fatalf("horizon stop at %v, want 20ms", last.Now)
	}
	// Roughly the offered load should be served (exp(15µs) on 4 CPUs at
	// 150k/s is ~56% utilization).
	if last.Completions < last.Arrivals/2 {
		t.Fatalf("served only %d of %d arrivals", last.Completions, last.Arrivals)
	}
}

// drive runs one environment with a scripted controller exercising every
// action kind and returns a digest of the observation/reward stream.
func drive(spec env.Spec) (string, error) {
	e, err := env.Open(spec)
	if err != nil {
		return "", err
	}
	defer e.Close()
	h := sha256.New()
	var acts []env.Action
	for {
		obs, reward, done := e.Step(acts)
		fmt.Fprintf(h, "%s r=%.6f\n", obs.String(), reward)
		if done {
			break
		}
		acts = acts[:0]
		// Explicitly dispatch queued threads onto idle CPUs, oldest
		// first (the observation orders threads by TID; dispatch by
		// longest wait to exercise WaitingFor).
		idle := obs.IdleCPUs
		for _, th := range obs.Threads {
			if len(idle) == 0 {
				break
			}
			if th.Runnable {
				acts = append(acts, env.DispatchAction(th.TID, idle[0]))
				idle = idle[1:]
			}
		}
		switch obs.Step % 7 {
		case 2:
			acts = append(acts, env.PreemptAction(1))
		case 3:
			if len(obs.Threads) > 0 {
				acts = append(acts, env.SetBandAction(obs.Threads[0].TID, 1))
			}
		case 5:
			acts = append(acts, env.SetQuantumAction(40*ghost.Microsecond))
		case 6:
			acts = append(acts, env.SetQuantumAction(50*ghost.Microsecond))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func TestStreamDeterministicUnderParallelism(t *testing.T) {
	spec := baseSpec()
	want, err := drive(spec)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	got := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = drive(spec)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want {
			t.Fatalf("concurrent run %d digest %s != serial %s", i, got[i], want)
		}
	}
}

func TestActionsChangeOutcomes(t *testing.T) {
	spec := baseSpec()
	spec.AutoDispatch = false
	// With no controller and no auto-dispatch nothing ever runs.
	e, err := env.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for {
		obs, _, done := e.Step(nil)
		if done {
			if obs.Completions != 0 {
				t.Fatalf("idle policy completed %d requests", obs.Completions)
			}
			if obs.QueueDepth == 0 {
				t.Fatal("idle policy has empty queue despite arrivals")
			}
			break
		}
	}
	// A dispatching controller (drive) serves the same workload.
	if _, err := drive(spec); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsCleanUnderRandomActions(t *testing.T) {
	spec := baseSpec()
	spec.Invariants = true
	spec.Horizon = 10 * ghost.Millisecond
	e, err := env.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	rnd := ghost.NewRand(99)
	var acts []env.Action
	for {
		obs, _, done := e.Step(acts)
		if done {
			break
		}
		acts = acts[:0]
		// Random interference on top of auto-dispatch.
		switch rnd.Intn(4) {
		case 0:
			acts = append(acts, env.PreemptAction(1+rnd.Intn(4)))
		case 1:
			if len(obs.Threads) > 0 {
				th := obs.Threads[rnd.Intn(len(obs.Threads))]
				acts = append(acts, env.DispatchAction(th.TID, -1))
			}
		case 2:
			if len(obs.Threads) > 0 {
				th := obs.Threads[rnd.Intn(len(obs.Threads))]
				acts = append(acts, env.SetBandAction(th.TID, rnd.Intn(3)))
			}
		}
	}
	e.Close()
	if v := e.Violations(); len(v) > 0 {
		t.Fatalf("invariant violations under env control: %v", v)
	}
}
