package workload

import (
	"fmt"

	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Snap models the §4.3 workload: a userspace packet-processing framework
// whose worker threads poll NIC queues on behalf of application server
// threads. Six flows send messages at a fixed rate; each message needs
// ingress processing by a Snap worker, application processing by a CFS
// server thread, and egress processing by a Snap worker. Round-trip
// latency is measured per message-size class. One flow carries 64 B
// messages (scheduling-dominated), five carry 64 kB messages
// (copy-dominated), matching the paper's test.
type Snap struct {
	k   *kernel.Kernel
	eng *sim.Engine

	pkts     fifo[*snapPkt]       // shared packet ring (ingress + egress events)
	sleepers fifo[*kernel.Thread] // workers asleep on the ring, oldest first
	servers  []*server[*snapPkt]
	workers  []*kernel.Thread

	// Rec64B and Rec64K record RTT per size class.
	Rec64B LatencyRecorder
	Rec64K LatencyRecorder

	rand *sim.Rand
}

// Message size classes.
const (
	Class64B = iota
	Class64K
)

// snapPkt is a message in flight on the server machine.
type snapPkt struct {
	req    *Request
	stage  int // 0 ingress, 1 app, 2 egress
	server int
}

// Per-class processing costs: 64 B messages need almost no compute (the
// paper notes scheduling overhead dominates them); 64 kB messages pay for
// copying in Snap and real work in the server.
func snapCosts(class int) (ingress, app, egress sim.Duration) {
	if class == Class64B {
		return 1500, 2 * sim.Microsecond, 1500
	}
	return 9 * sim.Microsecond, 14 * sim.Microsecond, 9 * sim.Microsecond
}

// wireRTT is the fixed network component of the round trip.
const wireRTT = 10 * sim.Microsecond

// SnapConfig sizes the Snap system.
type SnapConfig struct {
	Workers    int     // Snap polling worker threads
	Servers    int     // application server threads (CFS)
	FlowRate   float64 // messages/second per flow
	Flows64B   int
	Flows64K   int
	ServerMask kernel.Mask // affinity for server threads (zero = all)
	Seed       uint64
}

// DefaultSnapConfig mirrors the paper: 6 flows at 10k msg/s, one 64 B
// and five 64 kB.
func DefaultSnapConfig() SnapConfig {
	return SnapConfig{Workers: 6, Servers: 6, FlowRate: 10000, Flows64B: 1, Flows64K: 5, Seed: 1}
}

// NewSnap builds the Snap system. spawnWorker creates the Snap worker
// threads in the scheduler under test (MicroQuanta or a ghOSt enclave);
// spawnServer creates the application server threads (CFS in the paper).
func NewSnap(k *kernel.Kernel, cfg SnapConfig,
	spawnWorker func(name string, body kernel.ThreadFunc) *kernel.Thread,
	spawnServer func(name string, body kernel.ThreadFunc) *kernel.Thread) *Snap {
	s := &Snap{
		k: k, eng: k.Scheduler(),
		rand: sim.NewRand(cfg.Seed),
	}
	for i := 0; i < cfg.Servers; i++ {
		srv := &server[*snapPkt]{k: k, cost: s.appCost, done: s.appDone}
		srv.t = spawnServer(fmt.Sprintf("snap-server-%d", i), srv.resume)
		s.servers = append(s.servers, srv)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &snapWorker{s: s}
		s.workers = append(s.workers, spawnWorker(fmt.Sprintf("snap-worker-%d", i), w.resume))
	}
	flow := 0
	for i := 0; i < cfg.Flows64B; i++ {
		s.startFlow(flow, Class64B, cfg.FlowRate)
		flow++
	}
	for i := 0; i < cfg.Flows64K; i++ {
		s.startFlow(flow, Class64K, cfg.FlowRate)
		flow++
	}
	return s
}

// startFlow schedules Poisson message arrivals for one flow.
func (s *Snap) startFlow(id, class int, rate float64) {
	r := s.rand.Fork()
	mean := sim.Duration(1e9 / rate)
	var arm func()
	arm = func() {
		s.eng.After(r.Exp(mean), func() {
			req := &Request{Arrival: s.eng.Now(), Class: class}
			s.post(&snapPkt{req: req, server: id % len(s.servers)})
			arm()
		})
	}
	arm()
}

// post adds a packet event to the shared ring; a sleeping worker is
// woken if none is polling (Snap's wake-on-burst behaviour, §4.3).
func (s *Snap) post(p *snapPkt) {
	s.pkts.push(p)
	for s.sleepers.Len() > 0 {
		if t := s.sleepers.pop(); t.State() != kernel.StateDead {
			s.k.Wake(t)
			return
		}
	}
}

// Snap worker polling: a worker that finds the ring empty polls it in
// pollQuantum steps and goes to sleep after pollGrace with no traffic.
const (
	pollQuantum = 2 * sim.Microsecond
	pollGrace   = 50 * sim.Microsecond
)

// Snap worker resume points (snapWorker.phase).
const (
	snapStart   = iota
	snapPolling // a poll quantum has run
	snapAsleep  // woken from the sleeper list
	snapIngress // ingress processing of pkt has run
	snapEgress  // egress processing of pkt has run
)

// snapWorker is a Snap worker: poll the shared packet ring (burning CPU
// like real Snap pollers — this is what exhausts MicroQuanta budgets and
// produces the paper's blackouts), process packets, and go to sleep only
// after a polling grace period with no traffic.
type snapWorker struct {
	s     *Snap
	phase int
	idle  sim.Duration // polling time since the ring was last non-empty
	pkt   *snapPkt
}

func (w *snapWorker) resume(tc *kernel.TaskContext) kernel.Op {
	s := w.s
	switch w.phase {
	case snapIngress:
		w.pkt.stage = 1
		s.servers[w.pkt.server].put(w.pkt)
	case snapEgress:
		s.complete(w.pkt.req, tc.Now())
	case snapPolling:
		w.idle += pollQuantum
	}
	if s.pkts.Len() == 0 {
		if w.phase != snapPolling {
			w.idle = 0 // a new polling period
		}
		if w.idle >= pollGrace {
			s.sleepers.push(tc.Thread())
			w.phase = snapAsleep
			return tc.Block()
		}
		w.phase = snapPolling
		return tc.Run(pollQuantum)
	}
	w.pkt = s.pkts.pop()
	ing, _, egr := snapCosts(w.pkt.req.Class)
	if w.pkt.stage == 0 {
		w.phase = snapIngress
		return tc.Run(ing)
	}
	w.phase = snapEgress
	return tc.Run(egr)
}

// appCost and appDone are an application server's per-packet work
// (servers are CFS-scheduled): process the message, then hand it back
// to Snap for egress.
func (s *Snap) appCost(pkt *snapPkt) sim.Duration {
	_, app, _ := snapCosts(pkt.req.Class)
	return app
}

func (s *Snap) appDone(pkt *snapPkt) {
	pkt.stage = 2
	s.post(pkt)
}

func (s *Snap) complete(req *Request, now sim.Time) {
	rtt := now - req.Arrival + wireRTT
	rec := &s.Rec64B
	if req.Class == Class64K {
		rec = &s.Rec64K
	}
	if req.Arrival >= rec.WarmupUntil {
		rec.Completed++
		rec.Hist.Record(rtt)
	}
}

// Workers returns the Snap worker threads (for enclave management).
func (s *Snap) Workers() []*kernel.Thread { return s.workers }

// SetWarmup discards samples arriving before t.
func (s *Snap) SetWarmup(t sim.Time) {
	s.Rec64B.WarmupUntil = t
	s.Rec64K.WarmupUntil = t
}
