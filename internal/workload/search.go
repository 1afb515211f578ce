package workload

import (
	"fmt"

	"ghost/internal/kernel"
	"ghost/internal/sim"
	"ghost/internal/stats"
)

// Search models the §4.4 Google Search serving benchmark with its three
// query types:
//
//   - Type A: CPU- and memory-intensive, serviced by workers woken per
//     query whose data is bound to one NUMA socket (cpumask set at spawn,
//     carried to the agent via THREAD_CREATED, per the paper).
//   - Type B: little compute but an SSD access, serviced by short-lived
//     workers woken as needed.
//   - Type C: CPU-intensive, serviced by long-living workers.
//
// Query latency is preprocessing + subquery service including scheduling
// delay; per-type QPS and p99 latency are sampled once per second,
// matching Fig 8's time axes.
type Search struct {
	k    *kernel.Kernel
	eng  *sim.Engine
	rand *sim.Rand

	poolA   [2]*WorkerPool // per-socket pools
	poolB   *WorkerPool
	poolC   *WorkerPool
	servers []*server[*Request]

	// Per-type live recorders, reset every sampling period.
	recs [3]*LatencyRecorder
	// Series are the Fig 8 outputs: QPS and p99 per type per second.
	QPS [3]*stats.TimeSeries
	P99 [3]*stats.TimeSeries
	// Totals aggregate the whole run.
	Totals [3]*LatencyRecorder
}

// Query types.
const (
	QueryA = iota
	QueryB
	QueryC
)

// SearchConfig sizes the benchmark.
type SearchConfig struct {
	// Rates are arrivals/second per query type.
	RateA, RateB, RateC float64
	// Workers per pool.
	WorkersA, WorkersB, WorkersC int
	Servers                      int
	SamplePeriod                 sim.Duration
	Seed                         uint64
}

// DefaultSearchConfig is sized for the 256-CPU Rome machine at the
// realistic serving utilization (~65% of effective capacity) where
// placement quality shows up in the tails.
func DefaultSearchConfig() SearchConfig {
	return SearchConfig{
		RateA: 450000, RateB: 120000, RateC: 90000,
		WorkersA: 200, WorkersB: 64, WorkersC: 110,
		Servers: 16, SamplePeriod: sim.Second, Seed: 42,
	}
}

// Service profiles per type. A is memory-bound (large migration
// penalties make placement matter); B sleeps on "SSD"; C is pure CPU.
const (
	preprocess = 2 * sim.Microsecond

	serviceA = 250 * sim.Microsecond
	serviceB = 25 * sim.Microsecond
	ssdWait  = 180 * sim.Microsecond
	serviceC = 400 * sim.Microsecond
)

// NewSearch builds the benchmark. spawnWorker creates worker threads in
// the scheduler under test (CFS or a ghOSt enclave) with the given
// affinity; spawnServer creates the CFS server threads that fan queries
// out.
func NewSearch(k *kernel.Kernel, cfg SearchConfig,
	spawnWorker func(name string, affinity kernel.Mask, body kernel.ThreadFunc) *kernel.Thread,
	spawnServer func(name string, body kernel.ThreadFunc) *kernel.Thread) *Search {
	s := &Search{k: k, eng: k.Scheduler(), rand: sim.NewRand(cfg.Seed)}
	for i := range s.recs {
		s.recs[i] = &LatencyRecorder{}
		s.Totals[i] = &LatencyRecorder{}
		s.QPS[i] = &stats.TimeSeries{Name: fmt.Sprintf("qps-%c", 'A'+i)}
		s.P99[i] = &stats.TimeSeries{Name: fmt.Sprintf("p99-%c", 'A'+i)}
	}
	topo := k.Topology()

	// Type A: per-socket pools, workers pinned to their data's socket.
	// A is memory-bound: being re-dispatched onto a different CCX than
	// the worker last ran on costs a cold-cache factor — the effect the
	// §4.4 CCX-aware placement optimization targets.
	newPool := func(qt, n int, aff kernel.Mask, serve serveFunc) *WorkerPool {
		p := &WorkerPool{k: k, rec: s.recs[qt], total: s.Totals[qt], serve: serve}
		p.spawnWorkers(n, fmt.Sprintf("w%%d-%c", 'A'+qt), func(name string, body kernel.ThreadFunc) *kernel.Thread {
			return spawnWorker(name, aff, body)
		})
		return p
	}
	prevCCX := make(map[kernel.TID]int)
	serveA := func(tc *kernel.TaskContext, r *Request, step int) (kernel.Op, bool) {
		if step > 0 {
			return kernel.Op{}, false
		}
		svc := r.Service
		if cpu := tc.Thread().OnCPU(); cpu >= 0 {
			ccx := topo.CPU(cpu).CCX
			if last, ok := prevCCX[tc.TID()]; ok && last != ccx {
				svc = svc * 135 / 100 // cold L3
			}
			prevCCX[tc.TID()] = ccx
		}
		return tc.Run(svc), true
	}
	for sock := 0; sock < 2 && sock < topo.NumSockets(); sock++ {
		s.poolA[sock] = newPool(QueryA, cfg.WorkersA/2, kernel.MaskOf(topo.CPUsOfSocket(sock)...), serveA)
	}
	// Type B: SSD-bound short workers, any CPU: half the service, the
	// SSD wait, the other half.
	s.poolB = newPool(QueryB, cfg.WorkersB, kernel.Mask{},
		func(tc *kernel.TaskContext, r *Request, step int) (kernel.Op, bool) {
			switch step {
			case 0, 2:
				return tc.Run(r.Service / 2), true
			case 1:
				return tc.Sleep(ssdWait), true
			}
			return kernel.Op{}, false
		})
	// Type C: long-living CPU-bound workers, any CPU.
	s.poolC = newPool(QueryC, cfg.WorkersC, kernel.Mask{}, runService)

	// Server threads: receive queries, preprocess, dispatch.
	for i := 0; i < cfg.Servers; i++ {
		srv := &server[*Request]{k: k, cost: func(*Request) sim.Duration { return preprocess }, done: s.dispatch}
		srv.t = spawnServer(fmt.Sprintf("search-server-%d", i), srv.resume)
		s.servers = append(s.servers, srv)
	}

	// Arrival processes.
	s.startArrivals(QueryA, cfg.RateA, Fixed(serviceA))
	s.startArrivals(QueryB, cfg.RateB, Fixed(serviceB))
	s.startArrivals(QueryC, cfg.RateC, Exponential(serviceC))

	// Per-second sampling (Fig 8 time series).
	sim.NewTicker(s.eng, cfg.SamplePeriod, func(now sim.Time) { s.sample(now, cfg.SamplePeriod) })
	return s
}

func (s *Search) startArrivals(qt int, rate float64, svc ServiceDist) {
	r := s.rand.Fork()
	mean := sim.Duration(1e9 / rate)
	i := 0
	var arm func()
	arm = func() {
		s.eng.After(r.Exp(mean), func() {
			q := &Request{ID: uint64(i), Arrival: s.eng.Now(), Class: qt, Service: svc.Sample(r)}
			q.Remaining = q.Service
			s.servers[i%len(s.servers)].put(q)
			i++
			arm()
		})
	}
	arm()
}

// dispatch routes a preprocessed query to its worker pool.
func (s *Search) dispatch(q *Request) {
	switch q.Class {
	case QueryA:
		// Data locality: the query's data lives on one socket.
		sock := int(q.ID) % 2
		if s.poolA[1] == nil {
			sock = 0
		}
		s.poolA[sock].Submit(q)
	case QueryB:
		s.poolB.Submit(q)
	default:
		s.poolC.Submit(q)
	}
}

func (s *Search) sample(now sim.Time, period sim.Duration) {
	for qt := 0; qt < 3; qt++ {
		rec := s.recs[qt]
		qps := float64(rec.Completed) / period.Seconds()
		s.QPS[qt].Add(now, qps)
		if rec.Hist.Count() > 0 {
			s.P99[qt].Add(now, float64(rec.Hist.P99())/float64(sim.Microsecond))
		} else {
			s.P99[qt].Add(now, 0)
		}
		rec.Completed = 0
		rec.Hist.Reset()
	}
}
