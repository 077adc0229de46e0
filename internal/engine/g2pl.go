package engine

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// g2plState is what a transaction carries under g-2PL beyond the
// harness's share.
type g2plState struct {
	held    []ids.Item // delivered items, in delivery order
	aborted bool
	done    bool // committed or abort processed at client
	// gates counts held items on which this transaction is an MR1W
	// writer still awaiting reader releases at commit time. While gates
	// is positive none of the transaction's updates may be released
	// (paper §3.4); all forwards happen together when it reaches zero.
	gates int
}

type g2plTxn = txn[g2plState]

// flight is the client-side view of one dispatched forward list, which
// only an omniscient driver has: the transaction pointers, the MR1W
// release counters and the migrating version. Membership, completion and
// return counting are the server's and live in protocol.GroupServer.
type flight struct {
	plan   *protocol.FlightPlan
	member map[ids.Txn]*g2plTxn
	relGot map[ids.Txn]int  // writer -> reader releases received
	gated  map[ids.Txn]bool // writer finished while releases outstanding

	// version carried by the migrating data, updated as writers commit.
	version ids.Txn
}

// owed returns how many reader releases writer w still waits for (paper
// §3.4): the size of the read group before it, less those received.
func (fl *flight) owed(w ids.Txn) int {
	return fl.plan.RelWaitFor(fl.plan.SegOf(w)) - fl.relGot[w]
}

// itemCopy is the one copy of a data item: its version while it rests at
// the server, its flight while it migrates.
type itemCopy struct {
	id      ids.Item
	version ids.Txn
	fl      *flight
}

// g2plRun adapts the protocol.GroupServer core to the discrete-event
// kernel. Every server decision — windows, forward lists, the deadlock
// policy, victims — lives in the core; this driver owns collection-window
// timing and the clients' side of the data's migration, the harness the
// transaction lifecycle.
type g2plRun struct {
	*harness[g2plState]
	core  *protocol.GroupServer
	items map[ids.Item]*itemCopy
	// queued holds the transactions whose request is in a window at the
	// server, until a flight takes them as members. It finds a killed
	// transaction whose last request was already on the wire.
	queued map[ids.Txn]*g2plTxn
}

func runG2PL(cfg Config) (Result, error) {
	r := &g2plRun{
		items:  make(map[ids.Item]*itemCopy),
		queued: make(map[ids.Txn]*g2plTxn),
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

func (r *g2plRun) item(id ids.Item) *itemCopy {
	it := r.items[id]
	if it == nil {
		it = &itemCopy{id: id}
		r.items[id] = it
	}
	return it
}

// heldBy is the engine's share of the victim rule: whether a transaction
// still runs at its client and how many items have been delivered to it.
func (r *g2plRun) heldBy(id ids.Txn) (alive bool, held int) {
	t := r.active[id]
	if t == nil {
		return false, 0
	}
	return true, len(t.x.held)
}

// sendRequest ships the current operation's request to the server.
func (r *g2plRun) sendRequest(t *g2plTxn) {
	op := t.op()
	t.reqSent = r.kernel.Now()
	r.net.Send(sizeRequest, "g2pl.req", func() { r.serverRequest(t, op) })
}

// serverRequest hands an arriving lock request to the core, offering a
// read to an in-flight read group first when the ReadExpand extension is
// on. Either way the transaction is filed before the core's decisions go
// out: it may already be among the victims.
func (r *g2plRun) serverRequest(t *g2plTxn, op workload.Op) {
	req := protocol.GroupRequest{Txn: t.id, Client: t.client.id, Item: op.Item, Write: op.Write, Ts: t.ts}
	if r.cfg.ReadExpand {
		if acts, ok := r.core.Expand(req); ok {
			r.item(op.Item).fl.member[t.id] = t
			r.applyGroup(acts)
			return
		}
	}
	r.queued[t.id] = t
	r.applyGroup(r.core.Request(req))
}

// applyGroup emits the core's ordered decisions onto the simulated
// network — the single delivery site for server-side g-2PL data and abort
// notices.
func (r *g2plRun) applyGroup(acts []protocol.GroupAction) {
	for _, a := range acts {
		switch a.Kind {
		case protocol.GroupReady:
			r.scheduleDispatch(r.item(a.Item))
		case protocol.GroupAbort:
			// The victim is pre-empted at once; the notice tells its client
			// to forward any held data unchanged.
			t := r.active[a.Txn]
			t.x.aborted = true
			r.kill(t)
			delete(r.queued, t.id)
			if a.AtDispatch {
				r.col.abortDisp++
			} else {
				r.col.abortEnq++
			}
			r.net.Send(sizeControl, "g2pl.abort", func() { r.clientAbort(t) })
		case protocol.GroupData:
			it := r.item(a.Item)
			t, ver := it.fl.member[a.Txn], it.fl.version
			r.net.Send(sizeData+a.Plan.Size(), "g2pl.data", func() { r.clientData(t, it.id, ver) })
		}
	}
}

// scheduleDispatch arranges for the item's collection window to close:
// immediately without a WindowDelay, otherwise after the delay so the
// window can gather more requests.
func (r *g2plRun) scheduleDispatch(it *itemCopy) {
	if r.cfg.WindowDelay == 0 {
		r.dispatchWindow(it)
		return
	}
	r.kernel.AfterLabeled(r.cfg.WindowDelay, "g2pl.window", func() { r.dispatchWindow(it) })
}

// dispatchWindow has the core close the item's collection window. If a
// flight leaves, its client-side view starts here, before the core's
// decisions go out (a member may already be among the victims): the
// members leave the queue and the data leaves with the server's version.
func (r *g2plRun) dispatchWindow(it *itemCopy) {
	plan, acts := r.core.Dispatch(it.id)
	if plan != nil {
		it.fl = &flight{
			plan:    plan,
			member:  make(map[ids.Txn]*g2plTxn, plan.List.Len()),
			relGot:  make(map[ids.Txn]int),
			gated:   make(map[ids.Txn]bool),
			version: it.version,
		}
		for _, e := range plan.List.Entries() {
			it.fl.member[e.Txn] = r.queued[e.Txn]
			delete(r.queued, e.Txn)
		}
		r.col.windowLen.Add(float64(plan.List.Len()))
	}
	r.applyGroup(acts)
}

// deliverSegment has a finished writer ship the data to segment j > 0 of
// the in-flight list, following the plan's routing rules: a read group's
// readers (plus, under MR1W, the following writer, paper §3.4) or a write
// segment's writer; a final read group is accompanied by the data's return
// home.
func (r *g2plRun) deliverSegment(it *itemCopy, j int) {
	fl := it.fl
	plan := fl.plan
	ver := fl.version
	flSize := plan.Size()

	for _, e := range plan.Recipients(j) {
		t := fl.member[e.Txn]
		r.net.Send(sizeData+flSize, "g2pl.data", func() { r.clientData(t, it.id, ver) })
	}
	if plan.HomeReturnOnDispatch(j) {
		r.net.Send(sizeData, "g2pl.return", func() { r.serverReturn(it, ver) })
	}
}

// clientData handles delivery of a data item at a client. An aborted (or
// already-finished) transaction forwards the item immediately without
// processing (paper §3.2: "if the transaction aborts, the client forwards
// the unchanged data to the next client").
func (r *g2plRun) clientData(t *g2plTxn, item ids.Item, ver ids.Txn) {
	if t.x.aborted || t.x.done {
		r.finishItem(t, item)
		return
	}
	op := t.op()
	if op.Item != item {
		panic(fmt.Sprintf("engine: %v received %v while waiting for %v", t.id, item, op.Item))
	}
	r.waited(t)
	t.x.held = append(t.x.held, item)
	r.granted(t, op, ver)
}

// commit ends the transaction at its client: response time stops here.
// If the transaction was an MR1W writer with reader releases outstanding
// it must hold back all of its updates until those releases arrive
// (paper §3.4) — releasing any update early would let a concurrent reader
// of the old version observe this transaction's effects elsewhere.
func (r *g2plRun) commit(t *g2plTxn) {
	t.x.done = true
	delete(r.active, t.id)
	r.committed(t, t.record())
	r.core.Finish(t.id)
	for _, item := range t.x.held {
		fl := r.item(item).fl
		if e, ok := fl.plan.EntryOf(t.id); ok && e.Write && fl.owed(t.id) > 0 {
			fl.gated[t.id] = true
			t.x.gates++
		}
	}
	if t.x.gates == 0 {
		r.forwardAll(t)
	}
	r.scheduleNext(t.client)
}

// forwardAll releases or forwards every held item of a finished
// transaction down its forward list.
func (r *g2plRun) forwardAll(t *g2plTxn) {
	for _, item := range t.x.held {
		r.finishItem(t, item)
	}
}

// finishItem ends t's involvement with item: a reader sends its release
// (to the next writer, or to the server from a final read group); a
// writer forwards the new version once its reader releases are in.
func (r *g2plRun) finishItem(t *g2plTxn, item ids.Item) {
	it := r.item(item)
	fl := it.fl
	if fl == nil {
		panic(fmt.Sprintf("engine: finish of %v on %v with no flight", t.id, item))
	}
	e, ok := fl.plan.EntryOf(t.id)
	if !ok {
		if fl.member[t.id] != t {
			panic(fmt.Sprintf("engine: %v not on forward list of %v", t.id, item))
		}
		// A read-expansion extra releases straight to the server.
		r.core.Done(item, t.id)
		r.net.Send(sizeControl, "g2pl.release", func() { r.serverRelease(it) })
		return
	}
	if !e.Write {
		r.finishReader(it, t)
		return
	}
	if fl.owed(t.id) > 0 {
		fl.gated[t.id] = true
		return
	}
	r.advanceWriter(it, t)
}

// finishReader marks a reader done (dropping its successors' chain edges)
// and routes its release per the plan.
func (r *g2plRun) finishReader(it *itemCopy, t *g2plTxn) {
	fl := it.fl
	plan := fl.plan
	j := plan.SegOf(t.id)
	r.core.Done(it.id, t.id)
	if _, wTxn := plan.ReleaseTarget(j); wTxn != ids.None {
		w := fl.member[wTxn]
		size := sizeControl
		if r.cfg.NoMR1W {
			size = sizeData // the release carries the data to the writer
		}
		r.net.Send(size, "g2pl.relwriter", func() { r.writerRelease(it, w) })
		return
	}
	r.net.Send(sizeControl, "g2pl.release", func() { r.serverRelease(it) })
}

// writerRelease handles a reader's release arriving at the next writer's
// client. Without MR1W the last release is also the data delivery; with
// MR1W it may clear one of the writer's commit gates.
func (r *g2plRun) writerRelease(it *itemCopy, w *g2plTxn) {
	fl := it.fl
	fl.relGot[w.id]++
	if fl.owed(w.id) > 0 {
		return
	}
	if r.cfg.NoMR1W {
		// Data arrives with the final release: this is the writer's grant.
		r.clientData(w, it.id, fl.version)
		return
	}
	if !fl.gated[w.id] {
		return // writer still computing; it advances at its own commit
	}
	if w.x.aborted {
		r.advanceWriter(it, w)
		return
	}
	w.x.gates--
	if w.x.gates == 0 {
		r.forwardAll(w)
	}
}

// advanceWriter marks a writer done (dropping its successors' chain
// edges), installs its version on the migrating data (unless it aborted)
// and dispatches the next segment or returns the data to the server.
func (r *g2plRun) advanceWriter(it *itemCopy, w *g2plTxn) {
	fl := it.fl
	plan := fl.plan
	j := plan.SegOf(w.id)
	r.core.Done(it.id, w.id)
	if !w.x.aborted {
		fl.version = w.id
	}
	if !plan.IsFinal(j) {
		r.deliverSegment(it, j+1)
		return
	}
	ver := fl.version
	r.net.Send(sizeData, "g2pl.return", func() { r.serverReturn(it, ver) })
}

// serverReturn installs the returning data at the server.
func (r *g2plRun) serverReturn(it *itemCopy, ver ids.Txn) {
	it.version = ver
	r.serverRelease(it)
}

// serverRelease counts one message of the flight's end at the server: the
// data's return or a final-segment reader's release. The core closes the
// window on the last one.
func (r *g2plRun) serverRelease(it *itemCopy) {
	r.applyGroup(r.core.Return(it.id))
}

// clientAbort processes the server's abort notice at the client: count
// the abort, forward all held items unchanged, and replace the
// transaction after an idle period.
func (r *g2plRun) clientAbort(t *g2plTxn) {
	t.x.done = true
	r.aborted(t)
	r.forwardAll(t)
	r.scheduleNext(t.client)
}
