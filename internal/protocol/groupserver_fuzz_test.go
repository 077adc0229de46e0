package protocol

import (
	"testing"

	"repro/internal/ids"
)

// The g-2PL fuzz harness is a small cluster of the two cores: a GroupServer
// and, for every transaction, its GroupClient. Four clients run three
// scripted transactions each over three items, with reads and writes
// colliding in opposite orders so enqueue-time cycles, dispatch-time cycles,
// wounds and dies all occur. Everything bound for the server travels a
// per-client FIFO queue and everything the server sends travels a per-client
// FIFO inbox, which is the only ordering the live transport gives. Under
// FuzzGroupServer client-to-client hand-offs are instantaneous; under
// FuzzGroupClient they queue on per-link FIFOs too, so a writer's releases
// can complete before its MR1W copy arrives. Fuzz bytes pick which client
// acts, which queue delivers and when a ready window dispatches, so done
// reports overtake and trail returns, requests cross abort notices on the
// wire, and windows fill up before they close. A client forgets a
// transaction once it has settled and meets later data for it with a stub,
// as both drivers do.
//
// The first byte picks the configuration: deadlock policy, victim rule,
// whether the driver is omniscient (done and finish reports are immediate,
// the victim rule sees held counts and a victim stops the instant the
// server decides — the engine) or not (done reports queue, finish never
// comes — the live server), MR1W, read expansion and the forward-list cap.
//
// After every server event the wait-for graph must be acyclic (edges out
// of a dead transaction's late request aside: it passes data on without
// waiting for anything), a transaction aborted at a block point must have
// left its window, and the core's per-transaction bookkeeping must agree
// with its windows and flights. No member may report an item done twice
// and no flight may send its data home twice. At quiescence nothing may be
// left: no wait edge, no precedence node, no transaction record at the
// server, no unsettled transaction at a client; every dispatched flight
// with a writer has come home once and every member has reported done.

const gfzItems = 3

type gfzOp struct {
	item  ids.Item
	write bool
}

// gfzScripts[c] are client c's transactions, run in order.
var gfzScripts = [][][]gfzOp{
	{{{0, true}, {1, false}}, {{2, false}, {0, false}}, {{1, true}, {2, true}}},
	{{{1, true}, {0, false}}, {{0, false}, {2, false}}, {{2, true}, {1, true}}},
	{{{0, false}, {1, false}, {2, true}}, {{2, false}}, {{0, true}, {2, false}}},
	{{{2, false}, {1, false}}, {{1, false}, {0, true}}, {{0, false}, {1, false}, {2, false}}},
}

// gfzMsg is one server-bound message.
type gfzMsg struct {
	kind int // gfzReq, gfzDone, gfzReturn
	req  GroupRequest
	item ids.Item
	txn  ids.Txn
}

const (
	gfzReq = iota
	gfzDone
	gfzReturn
)

// gfzTxn is one transaction at its client.
type gfzTxn struct {
	id      ids.Txn
	client  int
	ops     []gfzOp
	next    int  // ops[next] is the operation in progress
	waiting bool // its request is out
	doomed  bool // the omniscient driver stopped it at the server's decision
	dead    bool // abort notice received, or committed
	g       GroupClient
}

// gfzPart names one member's part in one flight.
type gfzPart struct {
	plan *FlightPlan
	txn  ids.Txn
}

type gfzHarness struct {
	t          *testing.T
	g          *GroupServer
	omniscient bool
	expand     bool
	nextID     ids.Txn
	txns       map[ids.Txn]*gfzTxn // unsettled transactions
	cur        []*gfzTxn           // per client; nil when its script is exhausted
	script     []int               // per client: next script index
	toServer   [][]gfzMsg
	inbox      [][]GroupAction
	ready      []ids.Item
	// links[src][dst] queues client-to-client hand-offs; nil delivers them
	// at once.
	links  [][][]ClientAction
	plans  []*FlightPlan // every flight dispatched
	homes  map[*FlightPlan]int
	dones  map[gfzPart]bool
	joined map[gfzPart]bool // read-expansion extras
}

func newGfzHarness(t *testing.T, mode byte, linked bool) *gfzHarness {
	h := &gfzHarness{
		t:          t,
		omniscient: mode&0x08 != 0,
		expand:     mode&0x20 != 0,
		nextID:     1,
		txns:       make(map[ids.Txn]*gfzTxn),
		cur:        make([]*gfzTxn, len(gfzScripts)),
		script:     make([]int, len(gfzScripts)),
		toServer:   make([][]gfzMsg, len(gfzScripts)),
		inbox:      make([][]GroupAction, len(gfzScripts)),
		homes:      make(map[*FlightPlan]int),
		dones:      make(map[gfzPart]bool),
		joined:     make(map[gfzPart]bool),
	}
	if linked {
		h.links = make([][][]ClientAction, len(gfzScripts))
		for c := range h.links {
			h.links[c] = make([][]ClientAction, len(gfzScripts))
		}
	}
	policy := DeadlockPolicies()[int(mode&0x03)]
	victim := VictimRequester
	if mode&0x04 != 0 {
		victim = VictimLeastHeld
	}
	var info VictimInfo
	if h.omniscient {
		info = func(id ids.Txn) (bool, int) {
			if x := h.txns[id]; x != nil && !x.dead && !x.doomed {
				return true, x.g.HeldCount()
			}
			return false, 0
		}
	}
	opts := WindowOptions{MR1W: mode&0x10 != 0, MaxForwardList: int(mode >> 6)}
	h.g = NewGroupServer(opts, policy, victim, info)
	for c := range gfzScripts {
		h.begin(c)
	}
	return h
}

// begin starts client c's next scripted transaction, if any.
func (h *gfzHarness) begin(c int) {
	h.cur[c] = nil
	if h.script[c] == len(gfzScripts[c]) {
		return
	}
	x := &gfzTxn{id: h.nextID, client: c, ops: gfzScripts[c][h.script[c]], g: GroupClient{Txn: h.nextID}}
	h.nextID++
	h.script[c]++
	h.txns[x.id] = x
	h.cur[c] = x
}

func (h *gfzHarness) send(c int, m gfzMsg) { h.toServer[c] = append(h.toServer[c], m) }

// member finds the transaction a message at client c names, or stands in
// a stub for one the client has forgotten.
func (h *gfzHarness) member(id ids.Txn, c int) *gfzTxn {
	x := h.txns[id]
	if x == nil {
		x = &gfzTxn{id: id, client: c, dead: true, g: GroupClient{Txn: id}}
		x.g.Abort(nil)
	}
	return x
}

// step lets client c act once: take one message from its inbox, else
// issue its next request, else commit.
func (h *gfzHarness) step(c int) bool {
	if len(h.inbox[c]) > 0 {
		a := h.inbox[c][0]
		h.inbox[c] = h.inbox[c][1:]
		switch a.Kind {
		case GroupData:
			x := h.member(a.Txn, c)
			h.apply(x, x.g.Data(GroupCopy{Plan: a.Plan}, nil))
		case GroupAbort:
			if x := h.txns[a.Txn]; x != nil && !x.dead {
				h.finish(x, x.g.Abort(nil))
			}
		}
		return true
	}
	x := h.cur[c]
	if x == nil || x.waiting || x.doomed {
		return false
	}
	if x.next < len(x.ops) {
		op := x.ops[x.next]
		x.waiting = true
		h.send(c, gfzMsg{kind: gfzReq, req: GroupRequest{Txn: x.id, Client: ids.Client(c), Item: op.item, Write: op.write}})
		return true
	}
	if h.omniscient {
		h.g.Finish(x.id)
		h.check("finish")
	}
	h.finish(x, x.g.Commit(nil))
	return true
}

// finish ends x at its client (commit or abort notice) with what its core
// lets go of, and turns the client to its next transaction.
func (h *gfzHarness) finish(x *gfzTxn, acts []ClientAction) {
	x.dead = true
	h.apply(x, acts)
	if h.cur[x.client] == x {
		h.begin(x.client)
	}
}

// apply carries out x's client actions, then forgets x if it has settled.
func (h *gfzHarness) apply(x *gfzTxn, acts []ClientAction) {
	for _, a := range acts {
		plan, item := a.Plan, a.Plan.Item
		switch a.Kind {
		case ClientGranted:
			if x.dead || !x.waiting || x.ops[x.next].item != item {
				h.t.Fatalf("%v granted %v out of turn", x.id, item)
			}
			x.waiting = false
			x.next++
		case ClientDone:
			if h.dones[gfzPart{plan, x.id}] {
				h.t.Fatalf("%v reported %v done twice", x.id, item)
			}
			h.dones[gfzPart{plan, x.id}] = true
			if h.omniscient {
				h.g.Done(item, x.id)
				h.check("done")
			} else {
				h.send(x.client, gfzMsg{kind: gfzDone, item: item, txn: x.id})
			}
		case ClientHome:
			if h.homes[plan]++; h.homes[plan] > 1 {
				h.t.Fatalf("%v sent home twice", item)
			}
			h.send(x.client, gfzMsg{kind: gfzReturn, item: item})
		case ClientRelease, ClientData:
			switch {
			case a.To == ids.None:
				h.send(x.client, gfzMsg{kind: gfzReturn, item: item})
			case h.links != nil:
				h.links[x.client][int(a.Client)] = append(h.links[x.client][int(a.Client)], a)
			default:
				h.receive(a)
			}
		}
	}
	if x.g.Settled() {
		delete(h.txns, x.id)
	} else {
		h.txns[x.id] = x
	}
}

// receive delivers one client-to-client hand-off.
func (h *gfzHarness) receive(a ClientAction) {
	x := h.member(a.To, int(a.Client))
	if a.Kind == ClientData {
		h.apply(x, x.g.Data(a.GroupCopy, nil))
	} else {
		h.apply(x, x.g.Release(a.GroupCopy, nil))
	}
}

// link delivers the head of the hand-off queue from client src to dst.
func (h *gfzHarness) link(src, dst int) bool {
	q := h.links[src][dst]
	if len(q) == 0 {
		return false
	}
	h.links[src][dst] = q[1:]
	h.receive(q[0])
	return true
}

// route files the server's decisions: data and notices into inboxes, ready
// windows into the dispatch list.
func (h *gfzHarness) route(acts []GroupAction) {
	for _, a := range acts {
		switch a.Kind {
		case GroupReady:
			h.ready = append(h.ready, a.Item)
		case GroupAbort:
			if !a.AtDispatch {
				for i := ids.Item(0); i < gfzItems; i++ {
					for _, q := range h.g.item(i).pending {
						if q.Txn == a.Txn {
							h.t.Fatalf("%v aborted at a block point but still queued on %v", a.Txn, i)
						}
					}
				}
			}
			if x := h.txns[a.Txn]; h.omniscient && x != nil {
				x.doomed = true
				x.g.Doom()
			}
			h.inbox[int(a.Client)] = append(h.inbox[int(a.Client)], a)
		case GroupData:
			h.inbox[int(a.Client)] = append(h.inbox[int(a.Client)], a)
		}
	}
}

// serve delivers the head of client c's server-bound queue.
func (h *gfzHarness) serve(c int) bool {
	if len(h.toServer[c]) == 0 {
		return false
	}
	m := h.toServer[c][0]
	h.toServer[c] = h.toServer[c][1:]
	switch m.kind {
	case gfzReq:
		if h.expand {
			if acts, ok := h.g.Expand(m.req); ok {
				h.joined[gfzPart{acts[len(acts)-1].Plan, m.req.Txn}] = true
				h.route(acts)
				h.check("expand")
				return true
			}
		}
		h.route(h.g.Request(m.req))
		h.check("request")
	case gfzDone:
		h.g.Done(m.item, m.txn)
		h.check("done")
	case gfzReturn:
		h.route(h.g.Return(m.item))
		h.check("return")
	}
	return true
}

// dispatch closes the oldest ready window.
func (h *gfzHarness) dispatch() bool {
	if len(h.ready) == 0 {
		return false
	}
	item := h.ready[0]
	h.ready = h.ready[1:]
	plan, acts := h.g.Dispatch(item)
	if plan != nil {
		h.plans = append(h.plans, plan)
	}
	h.route(acts)
	h.check("dispatch")
	return true
}

// check asserts the invariants that must hold after every server event.
func (h *gfzHarness) check(event string) {
	g := h.g
	if cycle := h.liveCycle(); cycle != nil {
		h.t.Fatalf("after %s: wait-for cycle %v", event, cycle)
	}
	queued := make(map[ids.Txn]*groupItem)
	open := make(map[ids.Txn]int)
	for i := ids.Item(0); i < gfzItems; i++ {
		it := g.item(i)
		for _, q := range it.pending {
			if queued[q.Txn] != nil {
				h.t.Fatalf("after %s: %v queued twice", event, q.Txn)
			}
			queued[q.Txn] = it
			if it.fl == nil && len(q.edges) != 0 {
				h.t.Fatalf("after %s: %v keeps wait edges %v on %v at rest", event, q.Txn, q.edges, i)
			}
		}
		if it.fl != nil {
			for _, m := range it.fl.Unfinished() {
				open[m]++
			}
		}
	}
	for id, rec := range g.txns {
		if rec.at != queued[id] {
			h.t.Fatalf("after %s: %v thinks it is queued on %v, windows say %v", event, id, rec.at, queued[id])
		}
		if rec.open != open[id] {
			h.t.Fatalf("after %s: %v counts %d open memberships, flights say %d", event, id, rec.open, open[id])
		}
		if rec.open == 0 && rec.at == nil {
			h.t.Fatalf("after %s: %v has nothing left at the server but keeps its record", event, id)
		}
		delete(queued, id)
		delete(open, id)
	}
	if len(queued)+len(open) != 0 {
		h.t.Fatalf("after %s: windows %v or flights %v name transactions the table forgot", event, queued, open)
	}
}

// liveCycle returns a wait-for cycle that does not run through a dead
// transaction's late request, or nil.
func (h *gfzHarness) liveCycle() []ids.Txn {
	const onPath, finished = 1, 2
	state := make(map[ids.Txn]int)
	var path []ids.Txn
	var visit func(id ids.Txn) bool
	visit = func(id ids.Txn) bool {
		state[id] = onPath
		path = append(path, id)
		if rec := h.g.txns[id]; rec == nil || !rec.dead || rec.at == nil {
			for _, next := range h.g.disp.Waits.WaitsOf(id) {
				if state[next] == onPath || (state[next] == 0 && visit(next)) {
					return true
				}
			}
		}
		state[id] = finished
		path = path[:len(path)-1]
		return false
	}
	for id := ids.Txn(1); id < h.nextID; id++ {
		if state[id] == 0 && visit(id) {
			return path
		}
	}
	return nil
}

// gfzRun plays one fuzz input: the schedule the bytes pick, then a
// deterministic drain, then the quiescence checks.
func gfzRun(t *testing.T, data []byte, linked bool) {
	var mode byte
	if len(data) > 0 {
		mode, data = data[0], data[1:]
	}
	h := newGfzHarness(t, mode, linked)
	n := len(gfzScripts)
	choices := 2*n + 1
	if linked {
		choices += n * n
	}
	act := func(b int) bool {
		switch {
		case b < n:
			return h.step(b)
		case b < 2*n:
			return h.serve(b - n)
		case b == 2*n:
			return h.dispatch()
		default:
			return h.link((b-2*n-1)/n, (b-2*n-1)%n)
		}
	}
	for _, b := range data {
		act(int(b) % choices)
	}
	// Deterministic drain: sweep every source until none has anything
	// left. Every sweep that does something consumes a message or
	// advances a script, so the sweeps are bounded.
	for sweep := 0; ; sweep++ {
		if sweep > 10000 {
			t.Fatalf("cluster did not drain")
		}
		progress := false
		for b := 0; b < choices; b++ {
			progress = act(b) || progress
		}
		if !progress {
			break
		}
	}
	for c, x := range h.cur {
		if x != nil {
			t.Fatalf("client %d stuck in %v at op %d (waiting=%v)", c, x.id, x.next, x.waiting)
		}
	}
	if w, o, n := h.g.Footprint(); w != 0 || o != 0 || n != 0 || !h.g.Quiet() {
		t.Fatalf("at quiescence: %d wait edges, %d precedence nodes, %d transactions, quiet=%v", w, o, n, h.g.Quiet())
	}
	for id := range h.txns {
		t.Fatalf("at quiescence: %v has not settled at its client", id)
	}
	for _, plan := range h.plans {
		want := 0
		if plan.List.NumSegments() > 1 || plan.List.Segment(0).Write {
			want = 1
		}
		if h.homes[plan] != want {
			t.Fatalf("flight %v of %v came home %d times, want %d", plan.List, plan.Item, h.homes[plan], want)
		}
		for _, m := range plan.List.Txns() {
			if !h.dones[gfzPart{plan, m}] {
				t.Fatalf("flight %v of %v: %v never reported done", plan.List, plan.Item, m)
			}
		}
	}
	for k := range h.joined {
		if !h.dones[k] {
			t.Fatalf("flight %v of %v: extra %v never reported done", k.plan.List, k.plan.Item, k.txn)
		}
	}
}

// gfzSeeds adds, for a spread of configurations, the same schedules:
// round-robin, clients racing ahead of the server, and the server racing
// ahead with windows held back.
func gfzSeeds(f *testing.F) {
	f.Add([]byte{})
	for mode := 0; mode < 256; mode += 7 {
		f.Add([]byte{byte(mode), 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8})
		f.Add([]byte{byte(mode), 0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 4, 5, 6, 7, 8, 8, 0, 0, 1, 1, 2, 2, 3, 3, 8, 4, 5, 6, 7})
		f.Add([]byte{byte(mode), 0, 4, 1, 5, 2, 6, 3, 7, 8, 0, 4, 8, 1, 5, 8, 2, 6, 8, 3, 7, 8, 0, 0, 0, 4, 4, 4, 8, 1, 5, 2, 6})
	}
}

func FuzzGroupServer(f *testing.F) {
	gfzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { gfzRun(t, data, false) })
}

// FuzzGroupClient runs the same cluster with client-to-client hand-offs on
// per-link queues: the seeds above never deliver one before the drain, so
// every hand-off trails whatever the server sent meanwhile; two more per
// configuration deliver reader releases (links into each client, lowest
// source first) ahead of the server's inboxes, and the reverse.
func FuzzGroupClient(f *testing.F) {
	gfzSeeds(f)
	for mode := 0; mode < 256; mode += 7 {
		fwd, rev := []byte{byte(mode)}, []byte{byte(mode)}
		for round := 0; round < 6; round++ {
			for b := 0; b < 25; b++ {
				fwd = append(fwd, byte((b+9)%25))
				rev = append(rev, byte(24-b))
			}
		}
		f.Add(fwd)
		f.Add(rev)
	}
	f.Fuzz(func(t *testing.T, data []byte) { gfzRun(t, data, true) })
}
