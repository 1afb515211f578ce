// Package sequential adapts straight-line thread bodies to the kernel's
// resumable ThreadFunc. A sequential body blocks inside Run, Block,
// Sleep and Yield, so it runs on a goroutine of its own that hands each
// request to the engine goroutine and waits to be resumed. That costs a
// goroutine per thread and two channel operations per action, which is
// why only tests and examples use it: the simulator's own workloads are
// written as resumable bodies (see kernel.ThreadFunc).
package sequential

import (
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Task is the blocking view of a thread's kernel.TaskContext that a
// sequential body receives.
type Task struct {
	tc     *kernel.TaskContext
	ops    chan kernel.Op
	resume chan struct{}
	exited chan struct{}
	// running is set while the engine waits for the body's next action;
	// a stop in that window comes from the body itself.
	running bool
}

// unwind is panicked into a parked body's goroutine when its thread is
// killed or its kernel shut down, so the goroutine exits.
type unwind struct{}

// Body turns fn into a resumable thread body. A thread's first call (at
// Spawn) starts fn on a new goroutine; every later call resumes it.
// Either way the call returns the next action fn requests, and fn
// returning exits the thread. When the thread dies while fn is parked
// (Kill, Shutdown), the goroutine is unwound before the kernel carries
// on. The returned ThreadFunc may be spawned as any number of threads,
// each running its own fn.
func Body(fn func(tc *Task)) kernel.ThreadFunc {
	tasks := make(map[*kernel.TaskContext]*Task)
	return func(tc *kernel.TaskContext) kernel.Op {
		s := tasks[tc]
		if s == nil {
			s = &Task{tc: tc, ops: make(chan kernel.Op), resume: make(chan struct{}), exited: make(chan struct{})}
			tasks[tc] = s
			tc.AtExit(func() {
				delete(tasks, tc)
				s.stop()
			})
			s.running = true
			go s.main(fn)
		} else {
			s.running = true
			s.resume <- struct{}{}
		}
		op := <-s.ops
		s.running = false
		return op
	}
}

func (s *Task) main(fn func(tc *Task)) {
	defer func() {
		close(s.exited)
		if r := recover(); r != nil {
			if _, ok := r.(unwind); !ok {
				panic(r)
			}
		}
	}()
	fn(s)
	s.ops <- s.tc.Exit()
}

// stop unwinds the goroutine if it is parked and waits for it to exit.
// A body that kills its own thread unwinds at its next action instead.
func (s *Task) stop() {
	close(s.resume)
	if !s.running {
		<-s.exited
	}
}

// submit hands op to the kernel and waits until the thread is resumed.
func (s *Task) submit(op kernel.Op) {
	s.ops <- op
	if _, ok := <-s.resume; !ok {
		panic(unwind{})
	}
}

// Run consumes d nanoseconds of CPU time and returns once the work has
// been executed. Run(0) returns at once.
func (s *Task) Run(d sim.Duration) {
	op := s.tc.Run(d)
	if d == 0 {
		return
	}
	s.submit(op)
}

// Block suspends the thread until it is woken. If a Wake arrived since
// the last Block, it returns immediately.
func (s *Task) Block() { s.submit(s.tc.Block()) }

// Sleep blocks the thread for d nanoseconds of simulated time.
func (s *Task) Sleep(d sim.Duration) { s.submit(s.tc.Sleep(d)) }

// Yield relinquishes the CPU and returns when the thread runs again.
func (s *Task) Yield() { s.submit(s.tc.Yield()) }

// Thread returns the underlying thread.
func (s *Task) Thread() *kernel.Thread { return s.tc.Thread() }

// Now returns the current simulated time.
func (s *Task) Now() sim.Time { return s.tc.Now() }

// TID returns the thread's id.
func (s *Task) TID() kernel.TID { return s.tc.TID() }

// Kernel returns the owning kernel.
func (s *Task) Kernel() *kernel.Kernel { return s.tc.Kernel() }

// SetAffinity restricts the thread to the given CPUs.
func (s *Task) SetAffinity(m kernel.Mask) { s.tc.SetAffinity(m) }

// SetNice adjusts the thread's nice value.
func (s *Task) SetNice(n int) { s.tc.SetNice(n) }
