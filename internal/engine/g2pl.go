package engine

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/protocol"
	"repro/internal/stats"
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

// g2plReq is a pending lock request collected during an item's window.
type g2plReq struct {
	txn   *g2plTxn
	write bool
	edges []ids.Txn // wait-for edges added on behalf of this request
}

// flight is the engine's view of one dispatched forward list: the period
// during which the server does not possess the item (the collection
// window for the next batch, paper §3.2). Membership, routing and
// completion tracking live in the protocol core; the engine keeps the
// transaction pointers, the MR1W release counters and the migrating
// version.
type flight struct {
	core    *protocol.Flight
	member  map[ids.Txn]*g2plTxn
	relWait map[ids.Txn]int  // writer -> reader releases still outstanding
	gated   map[ids.Txn]bool // writer finished while releases outstanding

	// returns is the number of messages the server still awaits before
	// the window closes; -1 until the final segment is dispatched.
	returns int

	// version carried by the migrating data, updated as writers commit.
	version ids.Txn
}

// g2plItem is the server-side state of one data item.
type g2plItem struct {
	id        ids.Item
	version   ids.Txn
	atServer  bool
	pending   []*g2plReq
	fl        *flight
	scheduled bool // a delayed dispatch is pending (WindowDelay > 0)
}

// g2plRun adapts the protocol.Dispatcher core to the discrete-event
// kernel: window ordering, chain edges, precedence recording and
// dispatch-time victim selection live in the core; this driver owns
// collection-window timing and data movement, the harness the
// transaction lifecycle.
type g2plRun struct {
	*harness[g2plState]
	disp    *protocol.Dispatcher
	items   map[ids.Item]*g2plItem
	pending map[ids.Txn]*g2plItem // item a transaction's request waits on
	causes  stats.AbortCauses
}

func runG2PL(cfg Config) (Result, error) {
	r := &g2plRun{
		disp: protocol.NewDispatcher(protocol.WindowOptions{
			NoAvoidance:    cfg.NoAvoidance,
			FIFOWindows:    cfg.FIFOWindows,
			MaxForwardList: cfg.MaxForwardList,
			MR1W:           !cfg.NoMR1W,
		}),
		items:   make(map[ids.Item]*g2plItem),
		pending: make(map[ids.Txn]*g2plItem),
	}
	r.harness = newRun(cfg, "g2pl", r.sendRequest, r.commit)
	res, err := r.finish()
	if err != nil {
		return res, err
	}
	res.Causes = r.causes
	return res, nil
}

func (r *g2plRun) item(id ids.Item) *g2plItem {
	it := r.items[id]
	if it == nil {
		it = &g2plItem{id: id, atServer: true}
		r.items[id] = it
	}
	return it
}

// sendRequest ships the current operation's request to the server.
func (r *g2plRun) sendRequest(t *g2plTxn) {
	op := t.op()
	t.reqSent = r.kernel.Now()
	r.net.Send(sizeRequest, "g2pl.req", func() { r.serverRequest(t, op) })
}

// serverRequest handles an arriving lock request: dispatch immediately if
// the item rests at the server, join a dispatched read group if the
// ReadExpand extension allows, otherwise join the collection window.
func (r *g2plRun) serverRequest(t *g2plTxn, op workload.Op) {
	it := r.item(op.Item)
	req := &g2plReq{txn: t, write: op.Write}
	if it.atServer && it.fl == nil {
		it.pending = append(it.pending, req)
		r.pending[t.id] = it
		r.scheduleDispatch(it)
		return
	}
	if r.cfg.ReadExpand && !op.Write && r.tryExpand(it, t) {
		return
	}
	it.pending = append(it.pending, req)
	r.pending[t.id] = it
	r.addPendingEdges(it, req)
	if r.cfg.Deadlock.Avoidance() {
		r.judgeFlight(req)
	}
	r.resolveDeadlocks(t)
}

// resolveDeadlocks aborts victims until no wait-for cycle runs through t.
func (r *g2plRun) resolveDeadlocks(t *g2plTxn) {
	for !t.x.aborted {
		cycle := r.disp.Waits.CycleThrough(t.id)
		if cycle == nil {
			return
		}
		r.causes.Deadlock++
		r.abortTxn(r.chooseVictim(cycle, t))
	}
}

// judgeFlight applies an avoidance policy to a request that just blocked
// on an in-flight forward list: the requester dies (No-Wait on any wait;
// Wait-Die when younger than an unfinished member) or wounds its younger
// unfinished members (Wound-Wait). Cycle detection stays on as a backstop
// under every policy: g-2PL wait edges derive from window chaining and
// precedence order, not pure timestamp order, so timestamps alone cannot
// guarantee acyclicity here.
func (r *g2plRun) judgeFlight(q *g2plReq) {
	t := q.txn
	if t.x.aborted || len(q.edges) == 0 {
		return
	}
	bts := make([]ids.Txn, len(q.edges))
	for i, b := range q.edges {
		bts[i] = r.tsOf(b)
	}
	die, wound := protocol.JudgeBlock(r.cfg.Deadlock, t.ts, bts)
	if die {
		if r.cfg.Deadlock == protocol.PolicyNoWait {
			r.causes.NoWait++
		} else {
			r.causes.Die++
		}
		r.abortTxn(t)
		return
	}
	for _, i := range wound {
		v := r.active[q.edges[i]]
		if v == nil || v.x.done || v.x.aborted {
			continue
		}
		r.causes.Wound++
		r.abortTxn(v)
	}
}

// tsOf returns a transaction's priority timestamp, defaulting to its id
// for transactions no longer active.
func (r *g2plRun) tsOf(id ids.Txn) ids.Txn {
	if t := r.active[id]; t != nil {
		return t.ts
	}
	return id
}

// scheduleDispatch arranges for the item's collection window to close:
// immediately without a WindowDelay, otherwise after the delay so the
// window can gather more requests.
func (r *g2plRun) scheduleDispatch(it *g2plItem) {
	if r.cfg.WindowDelay == 0 {
		r.dispatchWindow(it)
		return
	}
	if it.scheduled {
		return
	}
	it.scheduled = true
	r.kernel.AfterLabeled(r.cfg.WindowDelay, "g2pl.window", func() {
		it.scheduled = false
		r.dispatchWindow(it)
	})
}

// chooseVictim picks the deadlock victim from a cycle via the shared
// policy rule. The engine supplies the g-2PL liveness view: a member must
// be live and either pending or holding data — aborting anything else
// would not unblock any data flow. The s-2PL engine applies the same
// rule, keeping the comparison fair.
func (r *g2plRun) chooseVictim(cycle []ids.Txn, fallback *g2plTxn) *g2plTxn {
	id := protocol.ChooseVictim(r.cfg.Victim, cycle, fallback.id, len(fallback.x.held), func(id ids.Txn) (alive bool, held int) {
		t := r.active[id]
		if t == nil || t.x.done || t.x.aborted {
			return false, 0
		}
		if r.pending[t.id] == nil && len(t.x.held) == 0 {
			return false, 0
		}
		return true, len(t.x.held)
	})
	if id == fallback.id {
		return fallback
	}
	return r.active[id]
}

// abortTxn aborts a live transaction chosen as a deadlock victim: its
// pending request (if any) leaves the collection window, its precedence
// constraints dissolve, and the client is notified to forward any held
// data unchanged.
func (r *g2plRun) abortTxn(v *g2plTxn) {
	if v.x.aborted || v.x.done {
		return // a wound already claimed it in this same batch
	}
	v.x.aborted = true
	r.kill(v)
	if it := r.pending[v.id]; it != nil {
		delete(r.pending, v.id)
		for i, q := range it.pending {
			if q.txn == v {
				r.clearPendingEdges(q)
				it.pending = append(it.pending[:i], it.pending[i+1:]...)
				break
			}
		}
	}
	r.disp.Order.Remove(v.id)
	r.col.abortEnq++
	r.net.Send(sizeControl, "g2pl.abort", func() { r.clientAbort(v) })
}

// tryExpand implements the read-only optimization sketched in paper §3.3:
// a late read request joins an in-flight, server-dispatched, all-reader
// forward list instead of waiting for the window to close. It reports
// whether the request was absorbed.
func (r *g2plRun) tryExpand(it *g2plItem, t *g2plTxn) bool {
	fl := it.fl
	if fl == nil || fl.returns < 0 {
		return false
	}
	// Only safe when the whole list is readers releasing to the server
	// and the data never left the server (single read-group list).
	plan := fl.core.Plan
	if plan.List.NumSegments() != 1 || plan.List.Segment(0).Write {
		return false
	}
	fl.core.AddExtra(t.id)
	fl.member[t.id] = t
	fl.returns++
	// Requests already waiting on this window now also wait for the new
	// member; missing these edges would let a deadlock through the extra
	// reader go undetected.
	for _, q := range it.pending {
		q.edges = append(q.edges, t.id)
		r.disp.Waits.AddEdge(q.txn.id, t.id)
	}
	for _, q := range it.pending {
		if !q.txn.x.aborted {
			r.resolveDeadlocks(q.txn)
		}
	}
	ver := fl.version
	r.net.Send(sizeData+plan.Size(), "g2pl.data", func() { r.clientData(t, it.id, ver) })
	return true
}

// addPendingEdges makes the pending request wait for every unfinished
// member of the in-flight forward list (the paper's cross-window
// deadlock edges) and, unless avoidance is off, constrains the
// precedence graph — the core owns both rules.
func (r *g2plRun) addPendingEdges(it *g2plItem, req *g2plReq) {
	if it.fl == nil {
		return
	}
	req.edges = r.disp.BlockOnFlight(it.fl.core, req.txn.id)
}

// clearPendingEdges removes the request's stored wait-for edges.
func (r *g2plRun) clearPendingEdges(req *g2plReq) {
	r.disp.Unblock(req.txn.id, req.edges)
	req.edges = nil
}

// dispatchWindow closes the collection window of an item resting at the
// server: the core orders the pending requests, applies the length cap,
// resolves dispatch-time deadlocks and builds the flight plan; this
// driver emits the victim notices, installs the flight and ships the
// first segment.
func (r *g2plRun) dispatchWindow(it *g2plItem) {
	if len(it.pending) == 0 || !it.atServer {
		return
	}
	window := it.pending
	byID := make(map[ids.Txn]*g2plReq, len(window))
	wreqs := make([]protocol.WindowRequest, len(window))
	for i, q := range window {
		byID[q.txn.id] = q
		wreqs[i] = protocol.WindowRequest{Txn: q.txn.id, Client: q.txn.client.id, Write: q.write}
	}
	// Window-time requests carry no wait edges (they were cleared when the
	// previous flight closed); Unblock is a no-op safety net.
	for _, q := range window {
		r.clearPendingEdges(q)
	}
	plan, victims, restW := r.disp.PlanWindow(it.id, wreqs)

	rest := make([]*g2plReq, len(restW))
	restSet := make(map[ids.Txn]bool, len(restW))
	for i, w := range restW {
		rest[i] = byID[w.Txn]
		restSet[w.Txn] = true
	}
	it.pending = rest
	for _, q := range window {
		if !restSet[q.txn.id] {
			delete(r.pending, q.txn.id)
		}
	}
	for _, v := range victims {
		q := byID[v.Txn]
		q.txn.x.aborted = true
		r.kill(q.txn)
		r.col.abortDisp++
		vt := q.txn
		r.net.Send(sizeControl, "g2pl.abort", func() { r.clientAbort(vt) })
	}
	if plan == nil {
		r.dispatchWindow(it) // the cap remainder, if any, forms a new window
		return
	}

	fl := &flight{
		core:    protocol.NewFlight(plan),
		member:  make(map[ids.Txn]*g2plTxn, plan.List.Len()),
		relWait: make(map[ids.Txn]int),
		gated:   make(map[ids.Txn]bool),
		returns: -1,
		version: it.version,
	}
	for _, e := range plan.List.Entries() {
		fl.member[e.Txn] = byID[e.Txn].txn
	}
	it.fl = fl
	it.atServer = false
	r.col.windowLen.Add(float64(plan.List.Len()))

	// Requests left in the window (length cap) now wait for the new
	// in-flight members; this can itself close a deadlock cycle.
	for _, q := range rest {
		r.addPendingEdges(it, q)
	}
	if r.cfg.Deadlock.Avoidance() {
		for _, q := range rest {
			r.judgeFlight(q)
		}
	}
	for _, q := range rest {
		if !q.txn.x.aborted {
			r.resolveDeadlocks(q.txn)
		}
	}

	r.deliverSegment(it, 0)
}

// deliverSegment ships data to segment j of the in-flight list, following
// the plan's routing rules: a read group's readers (plus, under MR1W, the
// following writer, paper §3.4) or a write segment's writer; a final
// segment arms the server's return accounting, and a final read group
// dispatched by a writer is accompanied by the data's return home.
func (r *g2plRun) deliverSegment(it *g2plItem, j int) {
	fl := it.fl
	plan := fl.core.Plan
	ver := fl.version
	flSize := plan.Size()

	for _, e := range plan.Recipients(j) {
		t := fl.member[e.Txn]
		r.net.Send(sizeData+flSize, "g2pl.data", func() { r.clientData(t, it.id, ver) })
	}
	if w, need := plan.ArmRelWait(j); need > 0 {
		fl.relWait[w] = need
	}
	if plan.IsFinal(j) {
		fl.returns = plan.FinalReturns()
		if plan.HomeReturnOnDispatch(j) {
			r.net.Send(sizeData, "g2pl.return", func() { r.serverReturn(it, ver) })
		}
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
	r.disp.Order.Remove(t.id)
	for _, item := range t.x.held {
		fl := r.item(item).fl
		if e, ok := fl.core.Plan.EntryOf(t.id); ok && e.Write && fl.relWait[t.id] > 0 {
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
	if fl.core.IsExtra(t.id) {
		r.disp.MemberDone(fl.core, t.id)
		r.net.Send(sizeControl, "g2pl.release", func() { r.serverRelease(it) })
		return
	}
	e, ok := fl.core.Plan.EntryOf(t.id)
	if !ok {
		panic(fmt.Sprintf("engine: %v not on forward list of %v", t.id, item))
	}
	if !e.Write {
		r.finishReader(it, t)
		return
	}
	if fl.relWait[t.id] > 0 {
		fl.gated[t.id] = true
		return
	}
	r.advanceWriter(it, t)
}

// finishReader marks a reader done (dropping its successors' chain edges)
// and routes its release per the plan.
func (r *g2plRun) finishReader(it *g2plItem, t *g2plTxn) {
	fl := it.fl
	plan := fl.core.Plan
	j := plan.SegOf(t.id)
	r.disp.MemberDone(fl.core, t.id)
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
func (r *g2plRun) writerRelease(it *g2plItem, w *g2plTxn) {
	fl := it.fl
	fl.relWait[w.id]--
	if fl.relWait[w.id] > 0 {
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
func (r *g2plRun) advanceWriter(it *g2plItem, w *g2plTxn) {
	fl := it.fl
	plan := fl.core.Plan
	j := plan.SegOf(w.id)
	r.disp.MemberDone(fl.core, w.id)
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
func (r *g2plRun) serverReturn(it *g2plItem, ver ids.Txn) {
	it.version = ver
	r.decReturns(it)
}

// serverRelease handles a final-segment reader's release arriving at the
// server.
func (r *g2plRun) serverRelease(it *g2plItem) {
	r.decReturns(it)
}

func (r *g2plRun) decReturns(it *g2plItem) {
	fl := it.fl
	fl.returns--
	if fl.returns > 0 {
		return
	}
	// Window closes: remove residual wait edges pointing at members (the
	// pending requests waiting on this flight now wait on the next one).
	it.fl = nil
	it.atServer = true
	for _, q := range it.pending {
		r.clearPendingEdges(q)
	}
	if len(it.pending) > 0 {
		r.scheduleDispatch(it)
	}
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
