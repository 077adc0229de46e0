package engine

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// g2plTxn carries, beyond the harness's share, the transaction's side of
// its flights: the protocol.GroupClient core, by value.
type g2plTxn = txn[protocol.GroupClient]

// g2plRun adapts the two g-2PL cores to the discrete-event kernel. Every
// server decision — windows, forward lists, the deadlock policy, victims —
// lives in protocol.GroupServer, every client decision — what a member
// holds, gathers and passes on — in each transaction's protocol.GroupClient;
// this driver owns collection-window timing, the server's store and the
// messages between them, the harness the transaction lifecycle.
type g2plRun struct {
	*harness[protocol.GroupClient]
	core     *protocol.GroupServer
	versions map[ids.Item]ids.Txn // each item's version while it rests at the server
	// txns finds a transaction by the id a message names, from its first
	// request until it has ended and passed on everything it was sent.
	txns map[ids.Txn]*g2plTxn
	acts []protocol.ClientAction // applyClient's batch, reused
}

func runG2PL(cfg Config) (Result, error) {
	r := &g2plRun{
		versions: make(map[ids.Item]ids.Txn),
		txns:     make(map[ids.Txn]*g2plTxn),
	}
	r.core = protocol.NewGroupServer(protocol.WindowOptions{
		NoAvoidance:    cfg.NoAvoidance,
		FIFOWindows:    cfg.FIFOWindows,
		MaxForwardList: cfg.MaxForwardList,
		MR1W:           !cfg.NoMR1W,
	}, cfg.Deadlock, cfg.Victim, r.heldBy)
	r.harness = newRun(cfg, "g2pl", r.sendRequest, r.commit)
	res, err := r.finish()
	if err != nil {
		return res, err
	}
	res.Causes = r.core.Causes()
	return res, nil
}

// heldBy is the engine's share of the victim rule: whether a transaction
// still runs at its client and how many items have been delivered to it.
func (r *g2plRun) heldBy(id ids.Txn) (alive bool, held int) {
	t := r.active[id]
	if t == nil {
		return false, 0
	}
	return true, t.x.HeldCount()
}

// member finds the transaction a delivery names. A victim that had nothing
// left to pass on is forgotten at its abort notice; data still on its way
// to it then meets a stub, which passes it straight down the list.
func (r *g2plRun) member(id ids.Txn) *g2plTxn {
	t := r.txns[id]
	if t == nil {
		t = &g2plTxn{id: id}
		t.x.Txn = id
		t.x.Abort(nil)
		r.txns[id] = t
	}
	return t
}

// sendRequest ships the current operation's request to the server. The
// harness made t; its first request is where the client core learns whom
// it acts for and t becomes findable by id.
func (r *g2plRun) sendRequest(t *g2plTxn) {
	op := t.op()
	t.x.Txn = t.id
	r.txns[t.id] = t
	t.reqSent = r.kernel.Now()
	r.net.Send(sizeRequest, "g2pl.req", func() { r.serverRequest(t, op) })
}

// serverRequest hands an arriving lock request to the core, offering a
// read to an in-flight read group first when the ReadExpand extension is
// on.
func (r *g2plRun) serverRequest(t *g2plTxn, op workload.Op) {
	req := protocol.GroupRequest{Txn: t.id, Client: t.client.id, Item: op.Item, Write: op.Write, Ts: t.ts}
	if r.cfg.ReadExpand {
		if acts, ok := r.core.Expand(req); ok {
			r.applyGroup(acts)
			return
		}
	}
	r.applyGroup(r.core.Request(req))
}

// applyGroup emits the server core's ordered decisions onto the simulated
// network — the single delivery site for server-side g-2PL data and abort
// notices.
func (r *g2plRun) applyGroup(acts []protocol.GroupAction) {
	for _, a := range acts {
		switch a.Kind {
		case protocol.GroupReady:
			r.scheduleDispatch(a.Item)
		case protocol.GroupAbort:
			// The victim is pre-empted at once; the notice tells its client
			// to forward any held data unchanged.
			t := r.active[a.Txn]
			t.x.Doom()
			r.kill(t)
			if a.AtDispatch {
				r.col.abortDisp++
			} else {
				r.col.abortEnq++
			}
			r.net.Send(sizeControl, "g2pl.abort", func() { r.clientAbort(t) })
		case protocol.GroupData:
			to, d := a.Txn, protocol.GroupCopy{Plan: a.Plan, Version: r.versions[a.Item]}
			r.net.Send(sizeData+a.Plan.Size(), "g2pl.data", func() { r.clientData(to, d) })
		}
	}
}

// scheduleDispatch arranges for the item's collection window to close:
// immediately without a WindowDelay, otherwise after the delay so the
// window can gather more requests.
func (r *g2plRun) scheduleDispatch(item ids.Item) {
	if r.cfg.WindowDelay == 0 {
		r.dispatchWindow(item)
		return
	}
	r.kernel.AfterLabeled(r.cfg.WindowDelay, "g2pl.window", func() { r.dispatchWindow(item) })
}

// dispatchWindow has the core close the item's collection window.
func (r *g2plRun) dispatchWindow(item ids.Item) {
	plan, acts := r.core.Dispatch(item)
	if plan != nil {
		r.col.windowLen.Add(float64(plan.List.Len()))
	}
	r.applyGroup(acts)
}

// applyClient emits a client core's ordered actions for t onto the
// simulated network — the single delivery site for client-side g-2PL
// grants, releases and forwards — and forgets t once it has settled.
func (r *g2plRun) applyClient(t *g2plTxn, acts []protocol.ClientAction) {
	r.acts = acts
	for _, a := range acts {
		to, d, item := a.To, a.GroupCopy, a.Plan.Item
		switch a.Kind {
		case protocol.ClientGranted:
			op := t.op()
			if op.Item != item {
				panic(fmt.Sprintf("engine: %v received %v while waiting for %v", t.id, item, op.Item))
			}
			r.waited(t)
			r.granted(t, op, d.Version)
		case protocol.ClientDone:
			r.core.Done(item, t.id)
		case protocol.ClientData:
			r.net.Send(sizeData+d.Plan.Size(), "g2pl.data", func() { r.clientData(to, d) })
		case protocol.ClientRelease:
			if to == ids.None {
				r.net.Send(sizeControl, "g2pl.release", func() { r.serverRelease(item) })
				break
			}
			size := sizeControl
			if r.cfg.NoMR1W {
				size = sizeData // the release carries the data to the writer
			}
			r.net.Send(size, "g2pl.relwriter", func() { r.clientRelease(to, d) })
		case protocol.ClientHome:
			r.net.Send(sizeData, "g2pl.return", func() { r.serverReturn(item, d.Version) })
		}
	}
	if t.x.Settled() {
		delete(r.txns, t.id)
	}
}

// clientData handles delivery of a data item at a client.
func (r *g2plRun) clientData(to ids.Txn, d protocol.GroupCopy) {
	t := r.member(to)
	r.applyClient(t, t.x.Data(d, r.acts[:0]))
}

// clientRelease handles a reader's release arriving at the next writer's
// client.
func (r *g2plRun) clientRelease(to ids.Txn, d protocol.GroupCopy) {
	t := r.member(to)
	r.applyClient(t, t.x.Release(d, r.acts[:0]))
}

// commit ends the transaction at its client: response time stops here.
func (r *g2plRun) commit(t *g2plTxn) {
	delete(r.active, t.id)
	r.committed(t, t.record())
	r.core.Finish(t.id)
	r.applyClient(t, t.x.Commit(r.acts[:0]))
	r.scheduleNext(t.client)
}

// clientAbort processes the server's abort notice at the client: count
// the abort, forward all held items unchanged, and replace the
// transaction after an idle period.
func (r *g2plRun) clientAbort(t *g2plTxn) {
	r.aborted(t)
	r.applyClient(t, t.x.Abort(r.acts[:0]))
	r.scheduleNext(t.client)
}

// serverReturn installs the returning data at the server.
func (r *g2plRun) serverReturn(item ids.Item, ver ids.Txn) {
	r.versions[item] = ver
	r.serverRelease(item)
}

// serverRelease counts one message of the flight's end at the server: the
// data's return or a final-segment reader's release. The core closes the
// window on the last one.
func (r *g2plRun) serverRelease(item ids.Item) {
	r.applyGroup(r.core.Return(item))
}
