package main

import (
	"ghost"
	"ghost/internal/ghostcore"
	"ghost/internal/kernel"
)

// tracedPolicy times every call the agent makes into a global policy.
// It implements exactly GlobalPolicy, the only interface the agent SDK
// checks on a global policy's run path, so StartAgents picks the same
// model for it as for the policy it wraps.
type tracedPolicy struct {
	inner       ghost.GlobalPolicy
	tr          *tracer
	assignments uint64
	txnFails    uint64
}

// Attach runs at StartAgents, during set-up, where nothing is timed.
func (p *tracedPolicy) Attach(ctx *ghost.PolicyContext) { p.inner.Attach(ctx) }

func (p *tracedPolicy) OnMessage(ctx *ghost.PolicyContext, m ghost.Message) {
	p.tr.begin(spOnMsg)
	p.inner.OnMessage(ctx, m)
	p.tr.end()
}

func (p *tracedPolicy) Schedule(ctx *ghost.PolicyContext) []ghost.Assignment {
	p.tr.begin(spSchedule)
	as := p.inner.Schedule(ctx)
	p.tr.end()
	if p.tr.active {
		p.assignments += uint64(len(as))
	}
	return as
}

func (p *tracedPolicy) OnTxnFail(ctx *ghost.PolicyContext, a ghost.Assignment, s ghost.TxnStatus) {
	p.tr.begin(spTxnFail)
	p.inner.OnTxnFail(ctx, a, s)
	p.tr.end()
	if p.tr.active {
		p.txnFails++
	}
}

// Oracle callbacks, in InvariantOracle method order.
const (
	ocTseq = iota
	ocAseq
	ocMsgIntent
	ocMsgDelivered
	ocMsgFaultDropped
	ocMsgDelayed
	ocMsgDiscarded
	ocMsgDrained
	ocLatched
	ocUnlatched
	ocInstalled
	ocTxnGroup
	ocSwitchIn
	ocDestroyed
	ocFinish
	numOracleCallbacks
)

var oracleCallbackNames = [numOracleCallbacks]string{
	"Tseq", "Aseq", "MsgIntent", "MsgDelivered", "MsgFaultDropped", "MsgDelayed",
	"MsgDiscarded", "MsgDrained", "Latched", "Unlatched", "Installed", "TxnGroup",
	"SwitchIn", "Destroyed", "Finish",
}

// tracedOracle times every callback the invariant checker makes into
// one oracle, as span "check.<oracle>.<callback>". The oracle's Name is
// forwarded untimed through the embedded interface.
type tracedOracle struct {
	ghost.InvariantOracle
	tr  *tracer
	ids [numOracleCallbacks]spanID
}

// traceOracles wraps each oracle for WithInvariants.
func traceOracles(tr *tracer, oracles []ghost.InvariantOracle) []ghost.InvariantOracle {
	out := make([]ghost.InvariantOracle, len(oracles))
	for i, o := range oracles {
		w := &tracedOracle{InvariantOracle: o, tr: tr}
		for c, n := range oracleCallbackNames {
			w.ids[c] = tr.intern("check." + o.Name() + "." + n)
		}
		out[i] = w
	}
	return out
}

type (
	checker = ghost.InvariantChecker
	enclave = ghost.Enclave
	thread  = ghost.Thread
)

func (o *tracedOracle) Tseq(c *checker, e *enclave, t *thread, old, new uint64, mt ghost.MsgType) {
	o.tr.begin(o.ids[ocTseq])
	o.InvariantOracle.Tseq(c, e, t, old, new, mt)
	o.tr.end()
}

func (o *tracedOracle) Aseq(c *checker, e *enclave, a *ghostcore.Agent, old, new uint64) {
	o.tr.begin(o.ids[ocAseq])
	o.InvariantOracle.Aseq(c, e, a, old, new)
	o.tr.end()
}

func (o *tracedOracle) MsgIntent(c *checker, e *enclave, tid ghost.TID, mt ghost.MsgType) {
	o.tr.begin(o.ids[ocMsgIntent])
	o.InvariantOracle.MsgIntent(c, e, tid, mt)
	o.tr.end()
}

func (o *tracedOracle) MsgDelivered(c *checker, e *enclave, m ghost.Message, dup, delayed bool) {
	o.tr.begin(o.ids[ocMsgDelivered])
	o.InvariantOracle.MsgDelivered(c, e, m, dup, delayed)
	o.tr.end()
}

func (o *tracedOracle) MsgFaultDropped(c *checker, e *enclave, m ghost.Message) {
	o.tr.begin(o.ids[ocMsgFaultDropped])
	o.InvariantOracle.MsgFaultDropped(c, e, m)
	o.tr.end()
}

func (o *tracedOracle) MsgDelayed(c *checker, e *enclave, m ghost.Message) {
	o.tr.begin(o.ids[ocMsgDelayed])
	o.InvariantOracle.MsgDelayed(c, e, m)
	o.tr.end()
}

func (o *tracedOracle) MsgDiscarded(c *checker, e *enclave, m ghost.Message) {
	o.tr.begin(o.ids[ocMsgDiscarded])
	o.InvariantOracle.MsgDiscarded(c, e, m)
	o.tr.end()
}

func (o *tracedOracle) MsgDrained(c *checker, e *enclave, m ghost.Message) {
	o.tr.begin(o.ids[ocMsgDrained])
	o.InvariantOracle.MsgDrained(c, e, m)
	o.tr.end()
}

func (o *tracedOracle) Latched(c *checker, e *enclave, cpu ghost.CPUID, t *thread) {
	o.tr.begin(o.ids[ocLatched])
	o.InvariantOracle.Latched(c, e, cpu, t)
	o.tr.end()
}

func (o *tracedOracle) Unlatched(c *checker, e *enclave, cpu ghost.CPUID, t *thread, why string) {
	o.tr.begin(o.ids[ocUnlatched])
	o.InvariantOracle.Unlatched(c, e, cpu, t, why)
	o.tr.end()
}

func (o *tracedOracle) Installed(c *checker, e *enclave, cpu ghost.CPUID, t *thread) {
	o.tr.begin(o.ids[ocInstalled])
	o.InvariantOracle.Installed(c, e, cpu, t)
	o.tr.end()
}

func (o *tracedOracle) TxnGroup(c *checker, e *enclave, txns []*ghost.Txn, atomic bool) {
	o.tr.begin(o.ids[ocTxnGroup])
	o.InvariantOracle.TxnGroup(c, e, txns, atomic)
	o.tr.end()
}

func (o *tracedOracle) SwitchIn(c *checker, cpu *kernel.CPU, t *thread) {
	o.tr.begin(o.ids[ocSwitchIn])
	o.InvariantOracle.SwitchIn(c, cpu, t)
	o.tr.end()
}

func (o *tracedOracle) Destroyed(c *checker, e *enclave, cause error, threads []*thread) {
	o.tr.begin(o.ids[ocDestroyed])
	o.InvariantOracle.Destroyed(c, e, cause, threads)
	o.tr.end()
}

func (o *tracedOracle) Finish(c *checker, now ghost.Time) {
	o.tr.begin(o.ids[ocFinish])
	o.InvariantOracle.Finish(c, now)
	o.tr.end()
}
