package protocol

import "repro/internal/ids"

// GroupCopy is a data item as it travels its flight: the plan it left the
// server under (which names the item) and the version and value it has now.
type GroupCopy struct {
	Plan    *FlightPlan
	Version ids.Txn
	Value   int64
}

// ClientActionKind discriminates what a g-2PL client does for one of its
// transactions.
type ClientActionKind int

const (
	// ClientGranted hands the copy to the running transaction: its current
	// operation has its data and it may proceed.
	ClientGranted ClientActionKind = iota
	// ClientDone cc's the server that the transaction is through with the
	// item, so the flight's next segment stops waiting for it.
	ClientDone
	// ClientRelease sends a reader's release to transaction To at Client: the
	// next writer, or ids.None at ids.Server from a final read group or a
	// read-expansion extra. It carries the copy the reader saw, because in
	// basic mode the last release is the writer's delivery.
	ClientRelease
	// ClientData ships the copy to transaction To at Client: a finished writer
	// dispatching the flight's next segment.
	ClientData
	// ClientHome returns the copy to the server.
	ClientHome
)

// ClientAction is one ordered step of a g-2PL client.
type ClientAction struct {
	Kind   ClientActionKind
	To     ids.Txn
	Client ids.Client
	GroupCopy
}

// A held item's place in its transaction's life, in the order it moves
// through them; the zero value is an item known only from reader releases.
const (
	heldAwaited = iota // releases counted, the data itself not here yet
	heldInUse          // delivered to the running transaction
	heldDue            // the transaction is through with it; it leaves once no release is owed
	heldGone           // released or forwarded
)

// groupHeld is one item of one flight at a member transaction.
type groupHeld struct {
	GroupCopy
	seg    int // the transaction's segment on Plan, -1 for a read-expansion extra
	relGot int // reader releases received
	state  int
	// early: the releases were the delivery while an MR1W writer's own copy
	// of the data was still on its link; that copy is yet to come.
	early bool
}

// owed is how many reader releases the item still waits for (paper §3.4):
// the size of the read group before its writer, less those received. A
// reader, an extra and a first-segment writer owe none.
func (h *groupHeld) owed() int {
	if h.seg <= 0 {
		return 0
	}
	return h.Plan.RelWaitFor(h.seg) - h.relGot
}

// GroupClient is the clients' side of g-2PL (paper §3.2, §3.4) for one
// transaction, as a pure event→action core: the items delivered to it, the
// reader releases gathered for it, and what leaves when it ends. A finished
// or aborted transaction passes every item down its forward list, unchanged
// if it aborted; a committed MR1W writer holds back all of its updates until
// the last reader release it owes is in. Drivers own the messages, time and
// the transaction's lifecycle; they set Txn before the first call and keep
// the value inside their own transaction record. Every entry point appends
// the actions to emit, in order, to acts and returns it.
type GroupClient struct {
	// Txn is the transaction this value acts for.
	Txn  ids.Txn
	held []groupHeld // in delivery order
	// gates counts held items on which the committed transaction is an MR1W
	// writer still owed reader releases. While it is positive nothing leaves:
	// releasing any update early would let a reader of the old version see
	// this transaction's effects elsewhere (paper §3.4).
	gates         int
	done, aborted bool
}

// HeldCount is the number of items delivered to the running transaction:
// the victim rules' measure of the work an abort would lose.
func (c *GroupClient) HeldCount() int {
	n := 0
	for i := range c.held {
		if c.held[i].state == heldInUse {
			n++
		}
	}
	return n
}

// Settled reports that the transaction has ended, nothing it was sent is
// still with it and no message for it is outstanding: its driver may forget
// it.
func (c *GroupClient) Settled() bool {
	for i := range c.held {
		if c.held[i].state != heldGone || c.held[i].early {
			return false
		}
	}
	return c.done
}

// entry finds the transaction's record of d's item, starting one — awaited,
// no release counted — on first sight.
func (c *GroupClient) entry(d GroupCopy) *groupHeld {
	for i := range c.held {
		if c.held[i].Plan.Item == d.Plan.Item {
			return &c.held[i]
		}
	}
	c.held = append(c.held, groupHeld{GroupCopy: d, seg: d.Plan.SegOf(c.Txn)})
	return &c.held[len(c.held)-1]
}

// Data handles the item arriving from the server or a forwarding writer.
// A copy that trails a delivery by release is dropped.
func (c *GroupClient) Data(d GroupCopy, acts []ClientAction) []ClientAction {
	h := c.entry(d)
	if h.state != heldAwaited {
		h.early = false
		return acts
	}
	return c.deliver(h, d, acts)
}

// Release handles a reader's release addressed to this transaction, the
// next writer. The last one is the delivery if the data is not here yet —
// always in basic mode, and under MR1W when the writer's early copy is still
// on its own link. Otherwise it may clear a commit gate, or let an aborted
// writer pass the item on.
func (c *GroupClient) Release(d GroupCopy, acts []ClientAction) []ClientAction {
	h := c.entry(d)
	h.relGot++
	switch {
	case h.owed() > 0:
	case h.state == heldAwaited:
		h.early = d.Plan.MR1W
		return c.deliver(h, d, acts)
	case h.state != heldDue:
		// Still computing: Commit will find the count complete.
	case c.aborted:
		return c.pass(h, acts)
	default:
		if c.gates--; c.gates == 0 {
			return c.passAll(acts)
		}
	}
	return acts
}

// deliver takes the data in. A running transaction is granted it; a
// finished or aborted one passes it on unchanged at once (paper §3.2: "if
// the transaction aborts, the client forwards the unchanged data to the next
// client") — but as an MR1W writer only after the reader releases are in.
func (c *GroupClient) deliver(h *groupHeld, d GroupCopy, acts []ClientAction) []ClientAction {
	h.GroupCopy = d
	if !c.done && !c.aborted {
		h.state = heldInUse
		return append(acts, ClientAction{Kind: ClientGranted, To: c.Txn, GroupCopy: d})
	}
	h.state = heldDue
	if h.owed() > 0 {
		return acts
	}
	return c.pass(h, acts)
}

// Commit ends the transaction at its client. Everything it holds leaves
// now, unless a gate holds all of it back until the releases arrive.
func (c *GroupClient) Commit(acts []ClientAction) []ClientAction {
	c.done = true
	for i := range c.held {
		h := &c.held[i]
		h.state = heldDue
		if h.owed() > 0 {
			c.gates++
		}
	}
	if c.gates > 0 {
		return acts
	}
	return c.passAll(acts)
}

// Doom marks the transaction aborted before its client hears of it: a
// driver that pre-empts a victim the instant the server decides (the DES)
// calls it then, and data arriving from then on passes straight through.
// What the transaction already holds stays until Abort.
func (c *GroupClient) Doom() { c.aborted = true }

// Abort handles the server's abort notice: every held item leaves
// unchanged, each as soon as it owes no release. On a fresh value it makes
// the stub a driver keeps for a transaction it has already forgotten.
func (c *GroupClient) Abort(acts []ClientAction) []ClientAction {
	c.done, c.aborted = true, true
	return c.passAll(acts)
}

// passAll passes on every item the ended transaction still has and owes no
// release for.
func (c *GroupClient) passAll(acts []ClientAction) []ClientAction {
	for i := range c.held {
		h := &c.held[i]
		if h.state == heldInUse || h.state == heldDue {
			h.state = heldDue
			if h.owed() == 0 {
				acts = c.pass(h, acts)
			}
		}
	}
	return acts
}

// pass ends the transaction's part in one flight, routed by the plan: a
// reader releases to the next writer, or to the server from a final read
// group or as an extra; a writer installs its id as version and value —
// unless it aborted — and sends the item home from the last segment, or
// else to the next segment's recipients, with its return home alongside
// when that segment is a final read group.
func (c *GroupClient) pass(h *groupHeld, acts []ClientAction) []ClientAction {
	h.state = heldGone
	plan, d := h.Plan, h.GroupCopy
	acts = append(acts, ClientAction{Kind: ClientDone, GroupCopy: d})
	if h.seg < 0 {
		return append(acts, ClientAction{Kind: ClientRelease, Client: ids.Server, GroupCopy: d})
	}
	if !plan.List.Segment(h.seg).Write {
		cli, w := plan.ReleaseTarget(h.seg)
		return append(acts, ClientAction{Kind: ClientRelease, To: w, Client: cli, GroupCopy: d})
	}
	if !c.aborted {
		d.Version, d.Value = c.Txn, int64(c.Txn)
	}
	home := ClientAction{Kind: ClientHome, Client: ids.Server, GroupCopy: d}
	if plan.IsFinal(h.seg) {
		return append(acts, home)
	}
	for _, e := range plan.Recipients(h.seg + 1) {
		acts = append(acts, ClientAction{Kind: ClientData, To: e.Txn, Client: e.Client, GroupCopy: d})
	}
	if plan.HomeReturnOnDispatch(h.seg + 1) {
		acts = append(acts, home)
	}
	return acts
}
