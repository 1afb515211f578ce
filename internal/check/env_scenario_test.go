package check_test

// Drives a machine end-to-end through the versioned environment API
// (env.V1) with seeded random controller interference and asserts the
// six default protocol oracles (sequence, status-word, atomicity,
// conservation, lost-thread, fallback) stay silent. This is the
// external-controller twin of the package's internal scenarios:
// same oracles, but every scheduling decision arrives through the
// public step/observe/act surface instead of the agent SDK.
//
// The test lives in package check_test because machine.go imports
// internal/check: check_test -> env -> ghost -> check is acyclic.

import (
	"fmt"
	"testing"

	"ghost"
	"ghost/env"
)

// driveEnvScenario runs one seeded random controller episode and
// returns any oracle violations.
func driveEnvScenario(t *testing.T, seed uint64) []ghost.InvariantViolation {
	t.Helper()
	r := ghost.NewRand(seed)
	spec := env.Spec{
		Version:    env.V1,
		CPUs:       []int{2, 4, 8}[r.Intn(3)],
		Seed:       seed,
		Quantum:    ghost.Duration(20+10*r.Intn(5)) * ghost.Microsecond,
		Horizon:    ghost.Duration(10+2*r.Intn(4)) * ghost.Millisecond,
		SLO:        500 * ghost.Microsecond,
		Invariants: true,
		// Auto-dispatch keeps load flowing; the random actions below
		// interfere with it (redundant dispatches, spurious preempts,
		// band churn) to probe the protocol, not to schedule well.
		AutoDispatch: true,
		Workload: env.WorkloadSpec{
			Rate:    float64(60_000 + 20_000*r.Intn(4)),
			Workers: 8 * (1 + r.Intn(3)),
			Service: env.ServiceSpec{Dist: []string{"exp", "bimodal"}[r.Intn(2)],
				Mean: ghost.Duration(10+r.Intn(20)) * ghost.Microsecond},
		},
	}
	e, err := env.Open(spec)
	if err != nil {
		t.Fatalf("seed %d: Open: %v", seed, err)
	}
	defer e.Close()

	ar := ghost.NewRand(seed ^ 0xA5A5A5A5)
	var actions []env.Action
	for {
		obs, _, done := e.Step(actions)
		if done {
			break
		}
		actions = actions[:0]
		for i := 0; i < ar.Intn(4); i++ {
			switch ar.Intn(5) {
			case 0: // dispatch a random tracked thread anywhere idle
				if len(obs.Threads) > 0 {
					tid := obs.Threads[ar.Intn(len(obs.Threads))].TID
					actions = append(actions, env.DispatchAction(tid, -1))
				}
			case 1: // dispatch to a specific (possibly busy) CPU
				if len(obs.Threads) > 0 {
					tid := obs.Threads[ar.Intn(len(obs.Threads))].TID
					actions = append(actions, env.DispatchAction(tid, 1+ar.Intn(spec.CPUs)))
				}
			case 2: // preempt a random worker CPU
				actions = append(actions, env.PreemptAction(1+ar.Intn(spec.CPUs)))
			case 3: // band churn
				if len(obs.Threads) > 0 {
					tid := obs.Threads[ar.Intn(len(obs.Threads))].TID
					actions = append(actions, env.SetBandAction(tid, ar.Intn(3)))
				}
			case 4: // quantum churn
				actions = append(actions, env.SetQuantumAction(
					ghost.Duration(10+10*ar.Intn(10))*ghost.Microsecond))
			}
		}
	}
	e.Close() // finalizes end-of-run oracles
	return e.Violations()
}

// TestEnvScenarioOraclesClean: random env.V1 controller traffic must
// never trip a protocol invariant.
func TestEnvScenarioOraclesClean(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, v := range driveEnvScenario(t, seed) {
				t.Errorf("seed %d: oracle violation: %v", seed, v)
			}
		})
	}
}
