package workload

import (
	"fmt"

	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// WorkerPool models the §4.2 serving structure: a pool of native worker
// threads, each serving one request at a time (block → run service →
// complete → block). The load generator hands an arriving request to a
// free worker, or queues it if all workers are busy. Latency is measured
// arrival-to-completion, so both queueing and scheduling delay count.
type WorkerPool struct {
	k        *kernel.Kernel
	rec      *LatencyRecorder
	total    *LatencyRecorder // optional second recorder (Search totals)
	serve    serveFunc
	workers  []*poolWorker
	free     fifo[*poolWorker]
	backlog  fifo[*Request]
	stopping bool

	// snapKey is the pool's snapshot component key (BindSnapshotKey).
	snapKey string
	// DoneRebinder, when set, is applied to every pending request on
	// snapshot restore: Done callbacks cannot ride in a byte stream, so
	// the assembler that sets Request.Done must re-attach it here.
	DoneRebinder func(*Request)
}

// serveFunc returns the step-th action of serving r, or false once the
// service is complete. Step 0 must return an action.
type serveFunc func(tc *kernel.TaskContext, r *Request, step int) (kernel.Op, bool)

// runService is the plain pool's service: one Run of the request's
// service time.
func runService(tc *kernel.TaskContext, r *Request, step int) (kernel.Op, bool) {
	return tc.Run(r.Service), step == 0
}

// poolWorker is one worker thread's body and request slot. req stays set
// until the service completes (a snapshot mid-service must know it);
// step counts the service actions already issued for it.
type poolWorker struct {
	p    *WorkerPool
	t    *kernel.Thread
	req  *Request
	step int
}

// NewWorkerPool spawns n worker threads with the given spawner (so the
// caller chooses the scheduling class: CFS, or an enclave). spawn must
// create a thread running the provided body.
func NewWorkerPool(k *kernel.Kernel, n int, rec *LatencyRecorder,
	spawn func(name string, body kernel.ThreadFunc) *kernel.Thread) *WorkerPool {
	p := &WorkerPool{k: k, rec: rec, serve: runService}
	p.spawnWorkers(n, "worker-%d", spawn)
	return p
}

// spawnWorkers spawns n workers named by format and the worker index.
func (p *WorkerPool) spawnWorkers(n int, format string, spawn func(string, kernel.ThreadFunc) *kernel.Thread) {
	for i := 0; i < n; i++ {
		w := &poolWorker{p: p}
		w.t = spawn(fmt.Sprintf(format, i), w.resume)
		p.workers = append(p.workers, w)
		p.free.push(w)
	}
}

// resume is the worker's body. After a service action (step > 0) it
// issues the next one, or completes the request and blocks. From Block
// (or at spawn) it exits if the pool is stopping, starts serving the
// request in its slot, or blocks again.
func (w *poolWorker) resume(tc *kernel.TaskContext) kernel.Op {
	p := w.p
	if w.step > 0 {
		if op, more := p.serve(tc, w.req, w.step); more {
			w.step++
			return op
		}
		p.finishRequest(w, tc.Now())
		return tc.Block()
	}
	if p.stopping {
		return tc.Exit()
	}
	if w.req == nil {
		return tc.Block()
	}
	op, _ := p.serve(tc, w.req, 0)
	w.step = 1
	return op
}

// finishRequest completes the worker's request: record latency, invoke
// Done, pick up backlog work before returning to the free list.
func (p *WorkerPool) finishRequest(w *poolWorker, done sim.Time) {
	r := w.req
	w.req, w.step = nil, 0
	p.rec.Record(r, done)
	if p.total != nil {
		p.total.Record(r, done)
	}
	if r.Done != nil {
		r.Done(r, done)
	}
	if p.backlog.Len() > 0 {
		w.req = p.backlog.pop()
		// The worker is still running, so this Wake is remembered and
		// its Block returns at once into the new request.
		p.k.Wake(w.t)
		return
	}
	p.free.push(w)
}

// Submit hands a request to the pool (the PoissonSource sink).
func (p *WorkerPool) Submit(r *Request) {
	if p.free.Len() == 0 {
		p.backlog.push(r)
		return
	}
	w := p.free.pop()
	w.req = r
	p.k.Wake(w.t)
}

// Backlog returns the number of requests waiting for a free worker.
func (p *WorkerPool) Backlog() int { return p.backlog.Len() }

// Workers returns the pool's threads.
func (p *WorkerPool) Workers() []*kernel.Thread {
	out := make([]*kernel.Thread, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.t
	}
	return out
}

// Stop makes workers exit at their next wakeup.
func (p *WorkerPool) Stop() {
	p.stopping = true
	for _, w := range p.workers {
		p.k.Wake(w.t)
	}
}

// Spinner is a batch antagonist: a CPU-bound thread that runs forever in
// small chunks (so preemption statistics stay fine-grained). Its CPU
// share is read via Thread.CPUTime (Fig 6c, §4.3 loaded mode). The body
// is stateless, so one Spinner may serve any number of threads.
func Spinner(chunk sim.Duration) kernel.ThreadFunc {
	return func(tc *kernel.TaskContext) kernel.Op { return tc.Run(chunk) }
}

// FiniteSpinner runs total CPU work in chunks, then exits; used by the
// bwaves VM workload (§4.5) where completion time is the metric. Each
// thread needs its own FiniteSpinner.
func FiniteSpinner(total, chunk sim.Duration, onDone func(at sim.Time)) kernel.ThreadFunc {
	var issued sim.Duration
	return func(tc *kernel.TaskContext) kernel.Op {
		if issued < total {
			c := min(chunk, total-issued)
			issued += chunk
			return tc.Run(c)
		}
		if onDone != nil {
			onDone(tc.Now())
		}
		return tc.Exit()
	}
}
