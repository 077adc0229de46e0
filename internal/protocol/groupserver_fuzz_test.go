package protocol

import (
	"testing"

	"repro/internal/ids"
)

// The GroupServer fuzz harness is a small g-2PL cluster with honest
// clients: four of them run three scripted transactions each over three
// items, with reads and writes colliding in opposite orders so enqueue-time
// cycles, dispatch-time cycles, wounds and dies all occur. The clients
// follow the flight plans (read groups release to the next writer, MR1W
// writers wait for those releases, a dead transaction passes data straight
// on); client-to-client hand-offs are instantaneous, but everything bound
// for the server travels a per-client FIFO queue and everything the server
// sends travels a per-client FIFO inbox, which is the only ordering the
// live transport gives. Fuzz bytes pick which client acts, which queue
// delivers and when a ready window dispatches, so done reports overtake
// and trail returns, requests cross abort notices on the wire, and windows
// fill up before they close.
//
// The first byte picks the configuration: deadlock policy, victim rule,
// whether the driver is omniscient (done and finish reports are immediate
// and the victim rule sees held counts — the engine) or not (done reports
// queue, finish never comes — the live server), MR1W, read expansion and
// the forward-list cap.
//
// After every server event the wait-for graph must be acyclic (edges out
// of a dead transaction's late request aside: it passes data on without
// waiting for anything), a transaction aborted at a block point must have
// left its window, and the core's per-transaction bookkeeping must agree
// with its windows and flights. At quiescence nothing may be left: no wait
// edge, no precedence node, no transaction record.

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
	dead    bool // abort notice received, or committed
	held    []ids.Item
}

// gfzFlight is the clients' shared view of one item's flight.
type gfzFlight struct {
	plan   *FlightPlan
	relGot map[ids.Txn]int  // reader releases received per writer
	has    map[ids.Txn]bool // data delivered
	gated  map[ids.Txn]bool // finished writer waiting for releases
	done   map[ids.Txn]bool
}

type gfzHarness struct {
	t          *testing.T
	g          *GroupServer
	omniscient bool
	expand     bool
	nextID     ids.Txn
	txns       map[ids.Txn]*gfzTxn
	cur        []*gfzTxn // per client; nil when its script is exhausted
	script     []int     // per client: next script index
	toServer   [][]gfzMsg
	inbox      [][]GroupAction
	ready      []ids.Item
	flights    map[ids.Item]*gfzFlight
}

func newGfzHarness(t *testing.T, mode byte) *gfzHarness {
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
		flights:    make(map[ids.Item]*gfzFlight),
	}
	policy := DeadlockPolicies()[int(mode&0x03)]
	victim := VictimRequester
	if mode&0x04 != 0 {
		victim = VictimLeastHeld
	}
	var info VictimInfo
	if h.omniscient {
		info = func(id ids.Txn) (bool, int) {
			x := h.txns[id]
			return x != nil && !x.dead, len(x.held)
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
	x := &gfzTxn{id: h.nextID, client: c, ops: gfzScripts[c][h.script[c]]}
	h.nextID++
	h.script[c]++
	h.txns[x.id] = x
	h.cur[c] = x
}

func (h *gfzHarness) send(c int, m gfzMsg) { h.toServer[c] = append(h.toServer[c], m) }

// step lets client c act once: take one message from its inbox, else
// issue its next request, else commit.
func (h *gfzHarness) step(c int) bool {
	if len(h.inbox[c]) > 0 {
		a := h.inbox[c][0]
		h.inbox[c] = h.inbox[c][1:]
		x := h.txns[a.Txn]
		switch a.Kind {
		case GroupData:
			h.deliver(x, a.Item)
		case GroupAbort:
			if !x.dead {
				h.finish(x)
			}
		}
		return true
	}
	x := h.cur[c]
	if x == nil || x.waiting {
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
	h.finish(x)
	return true
}

// finish ends x at its client (commit or abort notice): every held item
// moves on, and the client turns to its next transaction.
func (h *gfzHarness) finish(x *gfzTxn) {
	x.dead = true
	for _, item := range x.held {
		h.forward(x, item)
	}
	if h.cur[x.client] == x {
		h.begin(x.client)
	}
}

// deliver hands item to x. A live transaction waiting for it proceeds; a
// dead one passes it on at once.
func (h *gfzHarness) deliver(x *gfzTxn, item ids.Item) {
	f := h.flights[item]
	if f.has[x.id] {
		return // basic mode: the last release already carried the data
	}
	f.has[x.id] = true
	if !x.dead && x.waiting && x.ops[x.next].item == item {
		x.waiting = false
		x.next++
		x.held = append(x.held, item)
		return
	}
	h.forward(x, item)
}

// forward ends x's part in item's flight, following the plan.
func (h *gfzHarness) forward(x *gfzTxn, item ids.Item) {
	f := h.flights[item]
	plan := f.plan
	if f.done[x.id] {
		return
	}
	e, onList := plan.EntryOf(x.id)
	if onList && e.Write {
		if f.relGot[x.id] < plan.RelWaitFor(plan.SegOf(x.id)) {
			f.gated[x.id] = true
			return
		}
	}
	f.done[x.id] = true
	if h.omniscient {
		h.g.Done(item, x.id)
		h.check("done")
	} else {
		h.send(x.client, gfzMsg{kind: gfzDone, item: item, txn: x.id})
	}
	home := gfzMsg{kind: gfzReturn, item: item}
	if !onList { // a read-expansion extra
		h.send(x.client, home)
		return
	}
	j := plan.SegOf(x.id)
	if !e.Write {
		_, w := plan.ReleaseTarget(j)
		if w == ids.None {
			h.send(x.client, home)
			return
		}
		f.relGot[w]++
		if f.relGot[w] < plan.RelWaitFor(j+1) {
			return
		}
		if !plan.MR1W {
			h.deliver(h.txns[w], item) // the last release carries the data
		} else if f.gated[w] {
			h.forward(h.txns[w], item)
		}
		return
	}
	if plan.IsFinal(j) {
		h.send(x.client, home)
		return
	}
	for _, r := range plan.Recipients(j + 1) {
		h.deliver(h.txns[r.Txn], item)
	}
	if plan.HomeReturnOnDispatch(j + 1) {
		h.send(x.client, home)
	}
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
		h.flights[item] = &gfzFlight{
			plan:   plan,
			relGot: make(map[ids.Txn]int),
			has:    make(map[ids.Txn]bool),
			gated:  make(map[ids.Txn]bool),
			done:   make(map[ids.Txn]bool),
		}
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

func FuzzGroupServer(f *testing.F) {
	f.Add([]byte{})
	for mode := 0; mode < 256; mode += 7 {
		// The same schedules under a spread of configurations: round-robin,
		// clients racing ahead of the server, and the server racing ahead
		// with windows held back.
		f.Add([]byte{byte(mode), 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8})
		f.Add([]byte{byte(mode), 0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 4, 5, 6, 7, 8, 8, 0, 0, 1, 1, 2, 2, 3, 3, 8, 4, 5, 6, 7})
		f.Add([]byte{byte(mode), 0, 4, 1, 5, 2, 6, 3, 7, 8, 0, 4, 8, 1, 5, 8, 2, 6, 8, 3, 7, 8, 0, 0, 0, 4, 4, 4, 8, 1, 5, 2, 6})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var mode byte
		if len(data) > 0 {
			mode, data = data[0], data[1:]
		}
		h := newGfzHarness(t, mode)
		n := len(gfzScripts)
		act := func(b int) bool {
			switch {
			case b < n:
				return h.step(b)
			case b < 2*n:
				return h.serve(b - n)
			default:
				return h.dispatch()
			}
		}
		for _, b := range data {
			act(int(b) % (2*n + 1))
		}
		// Deterministic drain: sweep every source until none has anything
		// left. Every sweep that does something consumes a message or
		// advances a script, so the sweeps are bounded.
		for sweep := 0; ; sweep++ {
			if sweep > 10000 {
				t.Fatalf("cluster did not drain")
			}
			progress := false
			for b := 0; b <= 2*n; b++ {
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
	})
}
