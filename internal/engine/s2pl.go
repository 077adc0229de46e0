package engine

import (
	"repro/internal/ids"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// s2plTxn is one transaction instance executing under s-2PL; the protocol
// keeps no per-transaction state beyond the harness's.
type s2plTxn = txn[struct{}]

// s2plRun adapts the protocol.LockServer core to the discrete-event
// kernel. All locking decisions — grant, queue, deadlock detection and
// victim selection — live in the core; this driver owns the version
// store and message delivery, the harness the transaction lifecycle.
type s2plRun struct {
	*harness[struct{}]
	core    *protocol.LockServer
	version map[ids.Item]ids.Txn
}

func runS2PL(cfg Config) (Result, error) {
	r := &s2plRun{
		core:    protocol.NewLockServer(cfg.Victim, cfg.Deadlock),
		version: make(map[ids.Item]ids.Txn),
	}
	r.harness = newRun(cfg, "s2pl", r.sendRequest, r.commit)
	res, err := r.finish()
	if err != nil {
		return res, err
	}
	res.Causes = r.core.Causes()
	return res, nil
}

// sendRequest ships the current operation's lock request to the server.
func (r *s2plRun) sendRequest(t *s2plTxn) {
	op := t.op()
	t.reqSent = r.kernel.Now()
	r.net.Send(sizeRequest, "s2pl.req", func() { r.serverRequest(t, op) })
}

// serverRequest is the server's request handler: the core acquires or
// blocks (deadlock detection initiated on block, paper §4) and this
// driver emits its decisions.
func (r *s2plRun) serverRequest(t *s2plTxn, op workload.Op) {
	r.applyLockActions(r.core.Request(protocol.LockRequest{
		Txn: t.id, Client: t.client.id, Item: op.Item, Write: op.Write, Ts: t.ts,
	}))
}

// applyLockActions emits the core's ordered decisions onto the simulated
// network — the single delivery site for s-2PL grants and abort notices
// (repolint's twophase check pins sendGrant to this caller).
func (r *s2plRun) applyLockActions(acts []protocol.LockAction) {
	for _, a := range acts {
		t := r.active[a.Txn]
		if t == nil {
			continue // finished while the action was pending; nothing to deliver
		}
		switch a.Kind {
		case protocol.LockGrant:
			r.sendGrant(t, workload.Op{Item: a.Req.Item, Write: a.Req.Write})
		case protocol.LockAbort:
			// The victim's queued request is gone server-side, but its held
			// locks stay until the abort round trip ends with AbortRelease:
			// the client owns the in-flight transaction state in a
			// data-shipping system — symmetric with g-2PL's
			// notice-then-forward unwind.
			delete(r.active, t.id)
			r.col.abortEnq++
			r.net.Send(sizeControl, "s2pl.abort", func() { r.clientAbort(t) })
		}
	}
}

// sendGrant ships the data item (with its committed version, for reads)
// to the requesting client.
func (r *s2plRun) sendGrant(t *s2plTxn, op workload.Op) {
	ver := r.version[op.Item]
	r.net.Send(sizeData, "s2pl.grant", func() { r.clientGrant(t, op, ver) })
}

// clientGrant is the client's grant handler.
func (r *s2plRun) clientGrant(t *s2plTxn, op workload.Op, ver ids.Txn) {
	r.waited(t)
	r.granted(t, op, ver)
}

// commit ends the transaction at the client: the combined release/update
// message goes back to the server.
func (r *s2plRun) commit(t *s2plTxn) {
	rec := t.record()
	r.committed(t, rec)
	r.net.Send(sizeControl+sizeData*len(rec.Writes), "s2pl.release", func() { r.serverRelease(t, rec.Writes) })
	r.scheduleNext(t.client)
}

// serverRelease installs the new versions and releases all locks in one
// step (the shrinking phase of strict 2PL), promoting waiters.
func (r *s2plRun) serverRelease(t *s2plTxn, writes []ids.Item) {
	for _, item := range writes {
		r.version[item] = t.id
	}
	delete(r.active, t.id)
	r.applyLockActions(r.core.CommitRelease(t.id))
}

// clientAbort handles the server's abort notice: the instance is counted,
// its lock release travels back to the server, and the client replaces
// the transaction after an idle period (paper §4).
func (r *s2plRun) clientAbort(t *s2plTxn) {
	if !t.live() {
		return // the commit beat the wound notice; nothing to unwind
	}
	r.aborted(t)
	r.net.Send(sizeControl, "s2pl.abortrel", func() { r.serverAbortRelease(t) })
	r.scheduleNext(t.client)
}

// serverAbortRelease frees the aborted victim's locks once its release
// arrives, promoting waiting requests.
func (r *s2plRun) serverAbortRelease(t *s2plTxn) {
	r.applyLockActions(r.core.AbortRelease(t.id))
}
