package kernel_test

import (
	"testing"

	. "ghost/internal/kernel"
	"ghost/internal/sim"
)

// resumeLog records each call of a resumable body: when it happened and
// the thread's state at that moment.
type resumeLog struct {
	at    []sim.Time
	state []State
}

func (l *resumeLog) note(tc *TaskContext) int {
	l.at = append(l.at, tc.Now())
	l.state = append(l.state, tc.Thread().State())
	return len(l.at)
}

// TestResumableBody pins where the kernel calls a resumable body: at
// Spawn, again at once after Run(0), on the Wake that ends a Sleep, right
// after a Yield requeues the thread, and never after Exit.
func TestResumableBody(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	var log resumeLog
	th := env.k.Spawn(SpawnOpts{Name: "b", Class: env.cfs}, func(tc *TaskContext) Op {
		switch log.note(tc) {
		case 1:
			return tc.Run(0) // no action: resumed before Spawn returns
		case 2:
			return tc.Sleep(5 * sim.Millisecond)
		case 3:
			return tc.Yield()
		case 4:
			return tc.Run(sim.Microsecond)
		}
		return tc.Exit()
	})
	if len(log.at) != 2 || log.state[0] != StateNew || log.state[1] != StateNew {
		t.Fatalf("after Spawn: calls %v states %v, want two calls in state new", log.at, log.state)
	}
	env.eng.RunFor(20 * sim.Millisecond)
	if len(log.at) != 5 {
		t.Fatalf("body called %d times, want 5", len(log.at))
	}
	if log.at[2] != 5*sim.Millisecond || log.state[2] != StateRunnable {
		t.Fatalf("sleep resumed at %v in state %v, want 5ms in the Wake (runnable)", log.at[2], log.state[2])
	}
	if log.at[3] != log.at[2] || log.state[3] != StateRunnable {
		t.Fatalf("yield resumed at %v in state %v, want right after the requeue", log.at[3], log.state[3])
	}
	if log.state[4] != StateRunning || log.at[4] < log.at[3]+sim.Microsecond {
		t.Fatalf("run resumed at %v in state %v, want on CPU after 1µs of work", log.at[4], log.state[4])
	}
	if th.State() != StateDead {
		t.Fatalf("thread is %v after Exit, want dead", th.State())
	}
}

// TestKillRunsAtExit: killing a body parked in Run or in Block runs its
// AtExit hook once and never calls the body again; Shutdown does the
// same for the threads still alive.
func TestKillRunsAtExit(t *testing.T) {
	env := newTestEnv(t, oneCPUTopo())
	exits := map[string]int{}
	calls := map[string]int{}
	spawn := func(name string, op func(tc *TaskContext) Op) *Thread {
		return env.k.Spawn(SpawnOpts{Name: name, Class: env.cfs}, func(tc *TaskContext) Op {
			if calls[name]++; calls[name] == 1 {
				tc.AtExit(func() { exits[name]++ })
			}
			return op(tc)
		})
	}
	inRun := spawn("run", func(tc *TaskContext) Op { return tc.Run(sim.Second) })
	inBlock := spawn("block", func(tc *TaskContext) Op { return tc.Block() })
	spawn("alive", func(tc *TaskContext) Op { return tc.Block() })
	env.eng.RunFor(sim.Millisecond)
	env.k.Kill(inRun)
	env.k.Kill(inBlock)
	env.k.Kill(inBlock)
	env.eng.RunFor(sim.Millisecond)
	env.k.Shutdown()
	for _, name := range []string{"run", "block", "alive"} {
		if exits[name] != 1 || calls[name] != 1 {
			t.Errorf("%s: AtExit ran %d times, body called %d times; want 1 and 1", name, exits[name], calls[name])
		}
	}
}
