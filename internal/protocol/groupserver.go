package protocol

import (
	"repro/internal/ids"
	"repro/internal/stats"
)

// GroupRequest is one lock request arriving at the g-2PL server.
type GroupRequest struct {
	Txn    ids.Txn
	Client ids.Client
	Item   ids.Item
	Write  bool
	// Ts is the priority timestamp the avoidance policies order conflicts
	// by: the id of the transaction's first incarnation. Zero means Txn.
	Ts ids.Txn
}

// GroupActionKind discriminates the g-2PL server's decisions.
type GroupActionKind int

const (
	// GroupData ships Item to Txn at Client under Plan: a first-segment
	// recipient of the flight just dispatched, or a late reader Expand let in.
	GroupData GroupActionKind = iota
	// GroupAbort tells Client that Txn is aborted; the client forwards what
	// the transaction holds unchanged, so its flights still complete.
	GroupAbort
	// GroupReady reports, once per window, that Item rests at the server
	// with requests waiting: the driver calls Dispatch(Item), at once or
	// after its window delay. It is always alone in its batch, so the driver
	// may re-enter the core from it.
	GroupReady
)

// GroupAction is one ordered decision of the g-2PL server.
type GroupAction struct {
	Kind   GroupActionKind
	Txn    ids.Txn
	Client ids.Client
	Item   ids.Item
	// Plan is the routing plan a GroupData delivery travels with.
	Plan *FlightPlan
	// AtDispatch marks a GroupAbort decided while closing a window (the
	// list's chain edges closed a cycle), not when a request blocked.
	AtDispatch bool
}

// groupReq is one request collected in an item's window, with the wait
// edges installed on its behalf while a flight is out.
type groupReq struct {
	WindowRequest
	edges []ids.Txn
}

// groupItem is the server's state for one data item: the collection
// window and, while the item is away, the flight and its return count.
type groupItem struct {
	id      ids.Item
	pending []groupReq
	fl      *Flight // nil while the item rests at the server
	returns int     // still awaited: FinalReturns plus one per expansion extra
	// announced: a GroupReady is out and Dispatch has not answered it yet.
	announced bool
}

// groupTxn is what the server remembers of a transaction, from its first
// request until it has neither a queued request nor an open membership.
type groupTxn struct {
	ts     ids.Txn
	client ids.Client
	at     *groupItem // item its request is queued on, nil when none
	open   int        // flights it is an unfinished member of
	// dead: aborted here, or reported finished. Never judged, wounded or
	// chosen again; but a request of its already on the wire still queues and
	// dispatches, and its client passes that data straight down the list.
	dead bool
}

// GroupServer is the g-2PL server (paper §3.2–3.4) as a pure event→action
// core: every item's collection window and in-flight forward list, the
// transaction table, the wait-for and precedence graphs (in the Dispatcher
// it wraps), the deadlock policy's one block point, cycle resolution and
// the abort causes. Drivers own time (when a ready window dispatches), the
// versioned store and every message. Entry points return the actions to
// emit, in order, in a slice that is reused by the next call.
type GroupServer struct {
	disp   *Dispatcher
	policy DeadlockPolicy
	victim VictimPolicy
	held   VictimInfo // the driver's view of who holds what
	info   VictimInfo // g.victimInfo, bound once

	items  map[ids.Item]*groupItem
	txns   map[ids.Txn]*groupTxn
	causes stats.AbortCauses

	acts  []GroupAction
	wreqs []WindowRequest
	scan  []groupReq
}

// NewGroupServer returns an empty g-2PL server. held reports how many
// items a transaction has had delivered, which only an omniscient driver
// knows; without it (nil) the requester that closes a cycle is the victim.
func NewGroupServer(opts WindowOptions, policy DeadlockPolicy, victim VictimPolicy, held VictimInfo) *GroupServer {
	if held == nil {
		victim, held = VictimRequester, func(ids.Txn) (bool, int) { return true, 0 }
	}
	g := &GroupServer{
		disp:   NewDispatcher(opts),
		policy: policy,
		victim: victim,
		held:   held,
		items:  make(map[ids.Item]*groupItem),
		txns:   make(map[ids.Txn]*groupTxn),
	}
	g.info = g.victimInfo
	return g
}

// Causes counts the block point's aborts: cycle victims, wounds, dies and
// no-wait conflicts. Dispatch-time victims are the driver's (AtDispatch).
func (g *GroupServer) Causes() stats.AbortCauses { return g.causes }

// Quiet reports whether every item rests at the server with an empty
// window — the live cluster's quiescence condition.
func (g *GroupServer) Quiet() bool {
	//repolint:allow maprange -- pure boolean scan, order-independent
	for _, it := range g.items {
		if it.fl != nil || len(it.pending) > 0 {
			return false
		}
	}
	return true
}

// Footprint returns the sizes of the wait-for graph (edges), the
// precedence graph (nodes) and the transaction table: bounded by the
// transactions in progress, zero at quiescence.
func (g *GroupServer) Footprint() (waits, order, txns int) {
	return g.disp.Waits.Edges(), g.disp.Order.Size(), len(g.txns)
}

func (g *GroupServer) item(id ids.Item) *groupItem {
	it := g.items[id]
	if it == nil {
		it = &groupItem{id: id}
		g.items[id] = it
	}
	return it
}

// txn returns q's transaction record, creating it on the first request.
func (g *GroupServer) txn(q GroupRequest) *groupTxn {
	t := g.txns[q.Txn]
	if t == nil {
		t = &groupTxn{ts: q.Ts, client: q.Client}
		if t.ts == 0 {
			t.ts = q.Txn
		}
		g.txns[q.Txn] = t
	}
	return t
}

// release forgets a transaction with no queued request and no open
// membership left. Without Finish this is how a committed transaction
// retires; after Finish or an abort it sweeps what a late request re-entered.
func (g *GroupServer) release(id ids.Txn, t *groupTxn) {
	if t.open == 0 && t.at == nil {
		g.disp.Order.Remove(id)
		delete(g.txns, id)
	}
}

func (g *GroupServer) emit(a GroupAction) { g.acts = append(g.acts, a) }

// Request files an arriving lock request. On an item at rest the window is
// then ready. While the item is away the request waits for every unfinished
// member of the flight — the block point: the policy judges it, then
// cycles through it are resolved.
func (g *GroupServer) Request(q GroupRequest) []GroupAction {
	g.acts = g.acts[:0]
	t, it := g.txn(q), g.item(q.Item)
	t.at = it
	req := groupReq{WindowRequest: WindowRequest{Txn: q.Txn, Client: q.Client, Write: q.Write}}
	if it.fl == nil {
		it.pending = append(it.pending, req)
		g.ready(it)
		return g.acts
	}
	req.edges = g.disp.BlockOnFlight(it.fl, q.Txn)
	it.pending = append(it.pending, req)
	g.judgeFlight(req)
	g.resolve(q.Txn)
	return g.acts
}

// Expand is the read-only extension sketched in paper §3.3: a late read
// joins a flight that is a single read group (every member releases to the
// server, the data never left it) instead of waiting for the window to
// close. If it reports false the driver files the request with Request.
func (g *GroupServer) Expand(q GroupRequest) ([]GroupAction, bool) {
	it := g.items[q.Item]
	if q.Write || it == nil || it.fl == nil {
		return nil, false
	}
	plan := it.fl.Plan
	if plan.List.NumSegments() != 1 || plan.List.Segment(0).Write {
		return nil, false
	}
	g.acts = g.acts[:0]
	g.txn(q).open++
	it.fl.AddExtra(q.Txn)
	it.returns++
	// Requests waiting on this window now also wait for the new member;
	// without these edges a deadlock through it would go undetected.
	for i := range it.pending {
		p := &it.pending[i]
		p.edges = append(p.edges, q.Txn)
		g.disp.Waits.AddEdge(p.Txn, q.Txn)
	}
	for _, w := range g.waiters(it) {
		g.resolve(w.Txn)
	}
	g.emit(GroupAction{Kind: GroupData, Txn: q.Txn, Client: q.Client, Item: it.id, Plan: plan})
	return g.acts, true
}

// Dispatch closes the window of an item at rest: order, cap, drop
// dispatch-time cycle victims, send the flight out. A cap remainder queues
// behind the new flight (blocked, judged and cycle-checked like any late
// request), or forms the next window at once if every capped request fell
// to a cycle. It returns the plan the item left under, nil if it stayed.
func (g *GroupServer) Dispatch(item ids.Item) (plan *FlightPlan, acts []GroupAction) {
	g.acts = g.acts[:0]
	it := g.items[item]
	if it == nil || it.fl != nil {
		return nil, g.acts
	}
	it.announced = false
	for plan == nil {
		if len(it.pending) == 0 {
			return nil, g.acts
		}
		plan = g.planWindow(it)
	}
	it.fl = NewFlight(plan)
	it.returns = plan.FinalReturns()
	for i := range it.pending {
		it.pending[i].edges = g.disp.BlockOnFlight(it.fl, it.pending[i].Txn)
	}
	for _, w := range g.waiters(it) {
		g.judgeFlight(w)
	}
	for _, w := range g.waiters(it) {
		g.resolve(w.Txn)
	}
	for _, e := range plan.Recipients(0) {
		g.emit(GroupAction{Kind: GroupData, Txn: e.Txn, Client: e.Client, Item: it.id, Plan: plan})
	}
	return plan, g.acts
}

// planWindow hands the window to the Dispatcher and files the outcome: the
// cap remainder is the new window, victims are notified, dispatched requests
// become open memberships. The plan is nil when no request survived.
func (g *GroupServer) planWindow(it *groupItem) *FlightPlan {
	g.wreqs = g.wreqs[:0]
	for _, q := range it.pending {
		g.txns[q.Txn].at = nil
		g.wreqs = append(g.wreqs, q.WindowRequest)
	}
	plan, victims, rest := g.disp.PlanWindow(it.id, g.wreqs)
	it.pending = it.pending[:0]
	for _, w := range rest {
		it.pending = append(it.pending, groupReq{WindowRequest: w})
		g.txns[w.Txn].at = it
	}
	for _, v := range victims {
		t := g.txns[v.Txn]
		if !t.dead { // a dead transaction's late request just drops out
			t.dead = true
			g.emit(GroupAction{Kind: GroupAbort, Txn: v.Txn, Client: v.Client, AtDispatch: true})
		}
		g.release(v.Txn, t)
	}
	if plan != nil {
		for _, e := range plan.List.Txns() {
			g.txns[e].open++
		}
	}
	return plan
}

// waiters snapshots the requests queued on it, so a pass over the window
// survives the aborts it causes.
func (g *GroupServer) waiters(it *groupItem) []groupReq {
	g.scan = append(g.scan[:0], it.pending...)
	return g.scan
}

// judgeFlight applies the avoidance policy to a request just blocked on a
// flight: the requester dies (No-Wait; Wait-Die when younger than an
// unfinished member) or wounds its younger unfinished members (Wound-Wait).
// A judge pass removes only the request being judged, so q is still queued
// at its turn. Cycle detection stays on under every policy: wait edges also
// come from window chaining, which no timestamp discipline covers.
func (g *GroupServer) judgeFlight(q groupReq) {
	t := g.txns[q.Txn]
	if !g.policy.Avoidance() || t.dead || len(q.edges) == 0 {
		return
	}
	bts := make([]ids.Txn, len(q.edges))
	for i, b := range q.edges {
		bts[i] = g.tsOf(b)
	}
	die, wound := JudgeBlock(g.policy, t.ts, bts)
	if die {
		if g.policy == PolicyNoWait {
			g.causes.NoWait++
		} else {
			g.causes.Die++
		}
		g.abort(q.Txn)
		return
	}
	for _, i := range wound {
		if v := g.txns[q.edges[i]]; v != nil && !v.dead {
			g.causes.Wound++
			g.abort(q.edges[i])
		}
	}
}

// tsOf returns a transaction's priority timestamp, defaulting to its id
// once it is dead or forgotten.
func (g *GroupServer) tsOf(id ids.Txn) ids.Txn {
	if t := g.txns[id]; t != nil && !t.dead {
		return t.ts
	}
	return id
}

// resolve aborts victims until no wait-for cycle runs through txn.
func (g *GroupServer) resolve(txn ids.Txn) {
	for t := g.txns[txn]; t != nil && !t.dead; {
		cycle := g.disp.Waits.CycleThrough(txn)
		if cycle == nil {
			return
		}
		g.causes.Deadlock++
		_, held := g.held(txn)
		g.abort(ChooseVictim(g.victim, cycle, txn, held, g.info))
	}
}

// victimInfo is the liveness rule ChooseVictim sees: alive here and at the
// driver, and either queued or holding data — aborting anything else would
// unblock no data flow. The s-2PL core applies the same rule.
func (g *GroupServer) victimInfo(id ids.Txn) (alive bool, held int) {
	t := g.txns[id]
	if t == nil || t.dead {
		return false, 0
	}
	alive, held = g.held(id)
	if !alive || (t.at == nil && held == 0) {
		return false, 0
	}
	return true, held
}

// abort kills a live transaction at a block point: its queued request (if
// any) leaves its window, its precedence constraints dissolve, and the
// client is told to forward any held data unchanged.
func (g *GroupServer) abort(id ids.Txn) {
	t := g.txns[id]
	t.dead = true
	if it := t.at; it != nil {
		t.at = nil
		for i, q := range it.pending {
			if q.Txn == id {
				g.disp.Unblock(id, q.edges)
				it.pending = append(it.pending[:i], it.pending[i+1:]...)
				break
			}
		}
	}
	g.disp.Order.Remove(id)
	g.emit(GroupAction{Kind: GroupAbort, Txn: id, Client: t.client})
	g.release(id, t)
}

// Done reports that txn released or forwarded item: the next segment stops
// waiting for it. A report that trails the flight's return is ignored —
// Return already closed the membership.
func (g *GroupServer) Done(item ids.Item, txn ids.Txn) {
	if it := g.items[item]; it != nil && it.fl != nil {
		g.memberDone(it.fl, txn)
	}
}

func (g *GroupServer) memberDone(f *Flight, txn ids.Txn) {
	if !g.disp.MemberDone(f, txn) {
		return
	}
	t := g.txns[txn]
	t.open--
	g.release(txn, t)
}

// Return counts one message of the flight's end: the data coming home or
// a final-segment reader's release. The last one closes the window (members
// whose done report is still on its way have finished by implication) and
// the waiting requests form the next one.
func (g *GroupServer) Return(item ids.Item) []GroupAction {
	g.acts = g.acts[:0]
	it := g.items[item]
	if it == nil || it.fl == nil {
		return g.acts
	}
	if it.returns--; it.returns > 0 {
		return g.acts
	}
	for _, m := range it.fl.Unfinished() {
		g.memberDone(it.fl, m)
	}
	it.fl = nil
	// The requests waiting on this flight now wait on the next one.
	for i := range it.pending {
		q := &it.pending[i]
		g.disp.Unblock(q.Txn, q.edges)
		q.edges = nil
	}
	if len(it.pending) > 0 {
		g.ready(it)
	}
	return g.acts
}

// ready announces, once per window, that it can dispatch.
func (g *GroupServer) ready(it *groupItem) {
	if !it.announced {
		it.announced = true
		g.emit(GroupAction{Kind: GroupReady, Item: it.id})
	}
}

// Finish reports that txn committed: it leaves the precedence graph at
// once and is dead to the policies, even while an MR1W gate holds its
// forwards back. A driver that cannot know (the live server gets no commit
// message) never calls it; the transaction retires with its last membership.
func (g *GroupServer) Finish(txn ids.Txn) {
	if t := g.txns[txn]; t != nil {
		t.dead = true
		g.disp.Order.Remove(txn)
		g.release(txn, t)
	}
}
