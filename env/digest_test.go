package env_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"testing"

	"ghost"
	"ghost/env"
)

// Pinned env.V1 stream digests. The first is what `examples/tuned
// -quick` prints; the second is the stream of a fork taken mid-run.
// Fork goes through ghost.Restore, so a restore change that perturbs the
// resumed machine shows here. Re-pin only for an intended behaviour
// change of the environment.
const (
	tunedStreamDigest = "458f177d0311a060b4a4f0fda92e1d9e75a9bf3e9e7c37f7d241f1f61e4e34c4"
	tunedForkDigest   = "dfcc2debc48060d85f32833344f2ff54a3220cc1d5a19a795d224d2a949ecf9a"
)

// tunedSpec is examples/tuned's environment at its -quick horizon.
func tunedSpec() env.Spec {
	return env.Spec{
		Version:  env.V1,
		Topology: "xeon-e5",
		CPUs:     8,
		Seed:     42,
		Quantum:  50 * ghost.Microsecond,
		Horizon:  10 * ghost.Millisecond,
		SLO:      300 * ghost.Microsecond,
		Workload: env.WorkloadSpec{
			Rate:    180_000,
			Workers: 32,
			Service: env.ServiceSpec{Dist: "bimodal", Short: 10 * ghost.Microsecond,
				Long: 500 * ghost.Microsecond, PLong: 0.02},
		},
	}
}

// tunedCtl is examples/tuned's controller: preempt a tenancy past its
// slice, dispatch the longest-waiting runnable threads onto idle CPUs,
// and adapt the quantum to the window p99.
type tunedCtl struct {
	quantum ghost.Duration
	tenancy map[int]ghost.Duration
}

func newTunedCtl() *tunedCtl {
	return &tunedCtl{quantum: 50 * ghost.Microsecond, tenancy: map[int]ghost.Duration{}}
}

func (c *tunedCtl) clone() *tunedCtl {
	return &tunedCtl{quantum: c.quantum, tenancy: maps.Clone(c.tenancy)}
}

func (c *tunedCtl) act(obs env.Observation) []env.Action {
	const slice = 150 * ghost.Microsecond
	slo := 300 * ghost.Microsecond
	var actions []env.Action
	idle := append([]int(nil), obs.IdleCPUs...)
	for _, t := range obs.Threads {
		if t.Running && t.CPU >= 0 && t.Runtime-c.tenancy[t.TID] > slice {
			actions = append(actions, env.PreemptAction(t.CPU))
			idle = append(idle, t.CPU)
		}
	}
	for _, cpu := range idle {
		best := -1
		var wait ghost.Duration = -1
		for _, t := range obs.Threads {
			if t.Runnable && !t.Running && t.WaitingFor > wait {
				best, wait = t.TID, t.WaitingFor
			}
		}
		if best < 0 {
			break
		}
		actions = append(actions, env.DispatchAction(best, cpu))
		for i := range obs.Threads {
			if obs.Threads[i].TID == best {
				c.tenancy[best] = obs.Threads[i].Runtime
				obs.Threads[i].Runnable = false
				break
			}
		}
	}
	if obs.Window.Count > 0 {
		switch {
		case obs.Window.P99 > slo && c.quantum > 20*ghost.Microsecond:
			c.quantum -= 10 * ghost.Microsecond
			actions = append(actions, env.SetQuantumAction(c.quantum))
		case obs.Window.P99 < slo/2 && c.quantum < 100*ghost.Microsecond:
			c.quantum += 10 * ghost.Microsecond
			actions = append(actions, env.SetQuantumAction(c.quantum))
		}
	}
	return actions
}

// tunedSteps drives e under c for at most steps steps (0 = to the
// horizon), writing each observation to h as examples/tuned does, and
// returns the actions the last observation asked for.
func tunedSteps(e *env.Env, c *tunedCtl, actions []env.Action, steps int, h hash.Hash) []env.Action {
	for i := 0; steps == 0 || i < steps; i++ {
		obs, _, done := e.Step(actions)
		fmt.Fprintln(h, obs.String())
		actions = c.act(obs)
		if done {
			break
		}
	}
	return actions
}

// TestStreamDigestPinned pins the env.V1 stream of examples/tuned, whole
// and forked at step 100: the fork must continue exactly as the
// original does, and both continuations must keep their pinned digest.
func TestStreamDigestPinned(t *testing.T) {
	e, err := env.Open(tunedSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h := sha256.New()
	tunedSteps(e, newTunedCtl(), nil, 0, h)
	if got := hex.EncodeToString(h.Sum(nil)); got != tunedStreamDigest {
		t.Errorf("examples/tuned stream digest = %s, want %s", got, tunedStreamDigest)
	}

	e2, err := env.Open(tunedSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	c := newTunedCtl()
	pending := tunedSteps(e2, c, nil, 100, sha256.New())
	f, err := e2.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hf := sha256.New()
	tunedSteps(f, c.clone(), append([]env.Action(nil), pending...), 0, hf)
	ho := sha256.New()
	tunedSteps(e2, c, pending, 0, ho)
	fork, orig := hex.EncodeToString(hf.Sum(nil)), hex.EncodeToString(ho.Sum(nil))
	if fork != orig {
		t.Errorf("fork at step 100 diverged from the original:\nfork     %s\noriginal %s", fork, orig)
	}
	if fork != tunedForkDigest {
		t.Errorf("fork stream digest = %s, want %s", fork, tunedForkDigest)
	}
}
