package workload

import (
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// server is a single-threaded FIFO server: one resumable thread body
// drains its inbox, charging cost(x) of CPU per item and then handing
// the item to done. The thread blocks while the inbox is empty, and put
// wakes it.
type server[T any] struct {
	k       *kernel.Kernel
	t       *kernel.Thread
	items   fifo[T]
	waiting bool // blocked on the empty inbox
	cur     T
	busy    bool // parked in Run(cost(cur))
	cost    func(T) sim.Duration
	done    func(T)
}

// put appends x to the inbox and wakes the server if it is waiting.
// Callable from engine events and from other threads' bodies.
func (s *server[T]) put(x T) {
	s.items.push(x)
	if s.waiting {
		s.waiting = false
		s.k.Wake(s.t)
	}
}

// resume is the server's body: finish the item just served, then take
// the next one or wait for one.
func (s *server[T]) resume(tc *kernel.TaskContext) kernel.Op {
	if s.busy {
		x := s.cur
		var zero T
		s.cur, s.busy = zero, false
		s.done(x)
	}
	if s.items.Len() == 0 {
		s.waiting = true
		return tc.Block()
	}
	s.cur = s.items.pop()
	s.busy = true
	return tc.Run(s.cost(s.cur))
}
