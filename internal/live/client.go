package live

import (
	"fmt"
	"time"

	"repro/internal/history"
	"repro/internal/ids"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/workload"
)

// liveTxn is one transaction instance at a client.
type liveTxn struct {
	id ids.Txn
	// ts is the priority timestamp the Wait-Die/Wound-Wait policies order
	// conflicts by: the first incarnation's id, carried across restarts so
	// a victim ages instead of starving.
	ts      ids.Txn
	profile workload.Profile
	opIdx   int
	start   time.Time
	// opSent is when the current operation's request left, for the
	// blocked-time estimate (observed wait minus the round trip).
	opSent  time.Time
	reads   []history.Read
	writes  []writeUpdate
	held    []heldItem
	aborted bool
	done    bool
	// committing marks a sharded transaction whose commit request is with
	// the coordinator: its fate belongs to 2PC now, so a shard's
	// crash-restart announcement must not abort it from the client side —
	// the restarted site either recovered its prepared state from the WAL
	// or will vote no.
	committing bool

	// touched lists the distinct shards this transaction sent requests
	// to (sharded topology only): the 2PC participant set, and the
	// targets of an abort unwind.
	touched []int

	// g-2PL bookkeeping: reader releases received (and required) per
	// item on which this transaction is the next writer.
	relGot  map[ids.Item]int
	relNeed map[ids.Item]int
	gates   int // items whose releases still gate all forwards
}

// heldItem is a delivered data item at the client.
type heldItem struct {
	item      ids.Item
	write     bool
	plan      *protocol.FlightPlan
	version   ids.Txn
	value     int64
	forwarded bool
}

func (t *liveTxn) op() workload.Op { return t.profile.Ops[t.opIdx] }

// touch records a shard in the transaction's participant set, once.
func (t *liveTxn) touch(shard int) {
	for _, s := range t.touched {
		if s == shard {
			return
		}
	}
	t.touched = append(t.touched, shard)
}

func (t *liveTxn) heldEntry(item ids.Item) *heldItem {
	for i := range t.held {
		if t.held[i].item == item {
			return &t.held[i]
		}
	}
	return nil
}

// client is one client site: a goroutine running transactions and serving
// protocol messages, including residual forwarding duties of finished
// transactions (g-2PL) and cache callbacks (c-2PL).
type client struct {
	cl   *cluster
	id   ids.Client
	gen  *workload.Generator
	mbox *mailbox

	// cache is the c-2PL client core: the lock/data cache surviving
	// transaction boundaries. Unused by the other protocols.
	cache *protocol.CacheClient

	cur       *liveTxn
	residual  map[ids.Txn]*liveTxn
	committed int
	signaled  bool

	// carryTs is the priority timestamp the next transaction begins with:
	// set when one aborts (the restart keeps its age — the no-starvation
	// guarantee of Wait-Die/Wound-Wait), cleared when one commits.
	carryTs ids.Txn

	// Latency accounting, owned by the client goroutine and harvested by
	// the harness after shutdown: commit-latency sample for percentiles,
	// and the summed per-operation wait beyond one round trip.
	respSamp  stats.Sample
	blockedNs int64
	blockedN  int64
}

func newClient(cl *cluster, id ids.Client, gen *workload.Generator) *client {
	mbox := newMailbox(4096)
	mbox.owner = id
	mbox.arq = cl.net.arq
	return &client{
		cl:       cl,
		id:       id,
		gen:      gen,
		mbox:     mbox,
		cache:    protocol.NewCacheClient(false),
		residual: make(map[ids.Txn]*liveTxn),
	}
}

// loop is the client goroutine: a single select over the stop signal, the
// mailbox and the one pending timer (idle or think time).
func (c *client) loop() {
	// One reusable timer for the client's single pending deadline: arming
	// with time.After would orphan the previous timer on every re-arm.
	// timerC is nil (blocking its select case) while nothing is pending.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var timerC <-chan time.Time
	var onTimer func()
	arm := func(d time.Duration, fn func()) {
		rearm(timer, d)
		timerC = timer.C
		onTimer = fn
	}
	c.beginNext(arm)
	for {
		select {
		case <-c.cl.stopc:
			return
		case m := <-c.mbox.ch:
			c.handle(m, arm)
		case <-timerC:
			timerC = nil
			fn := onTimer
			onTimer = nil
			if fn != nil {
				fn()
			}
		}
	}
}

// beginNext schedules the next transaction after an idle period, or
// signals the cluster when the commit target is reached (the client keeps
// serving residual duties either way).
func (c *client) beginNext(arm func(time.Duration, func())) {
	if c.committed >= c.cl.cfg.TxnsPerClient {
		if !c.signaled {
			c.signaled = true
			c.cl.clientAtTarget()
		}
		return
	}
	arm(time.Duration(c.gen.Idle())*tick, func() {
		id := c.cl.newTxnID()
		ts := id
		if c.carryTs != 0 {
			ts = c.carryTs
		}
		c.cur = &liveTxn{
			id:      id,
			ts:      ts,
			profile: c.gen.Next(),
			start:   time.Now(),
			relGot:  make(map[ids.Item]int),
			relNeed: make(map[ids.Item]int),
		}
		if c.cl.cfg.Protocol == C2PL {
			c.cache.Begin()
			c.stepC2PL(arm)
			return
		}
		c.sendRequest()
	})
}

func (c *client) sendRequest() {
	op := c.cur.op()
	c.cur.opSent = time.Now()
	m := reqMsg{
		txn:    c.cur.id,
		client: c.id,
		item:   op.Item,
		write:  op.Write,
		epoch:  c.cur.opIdx,
		ts:     c.cur.ts,
	}
	if c.cl.sharded() {
		s := c.cl.smap.Of(op.Item)
		c.cur.touch(s)
		c.cl.net.send(c.id, ids.ShardSite(s), m)
		return
	}
	c.cl.net.send(c.id, ids.Server, m)
}

func (c *client) handle(m message, arm func(time.Duration, func())) {
	switch msg := m.(type) {
	case dataMsg:
		c.onData(msg.txn, msg.item, msg.version, msg.value, msg.plan, arm)
	case fwdMsg:
		c.onRelease(msg, arm)
	case abortMsg:
		c.onAbort(msg.txn, arm)
	case outcomeMsg:
		c.onOutcome(msg, arm)
	case grantMsg:
		c.onGrant(msg, arm)
	case recallMsg:
		c.onRecall(msg)
	case restartMsg:
		c.onRestart(msg, arm)
	case coordRestartMsg:
		c.onCoordRestart()
	default:
		panic(fmt.Sprintf("live: client %v received unexpected %T", c.id, m))
	}
}

// txnByID finds the current transaction, a residual one, or creates an
// aborted stub for a transaction this client has already forgotten (late
// deliveries for deadlock victims).
func (c *client) txnByID(id ids.Txn, create bool) *liveTxn {
	if c.cur != nil && c.cur.id == id {
		return c.cur
	}
	if t := c.residual[id]; t != nil {
		return t
	}
	if !create {
		return nil
	}
	t := &liveTxn{
		id: id, aborted: true, done: true,
		relGot:  make(map[ids.Item]int),
		relNeed: make(map[ids.Item]int),
	}
	c.residual[id] = t
	return t
}

// onData handles a data delivery (from the server or a forwarding client).
func (c *client) onData(txn ids.Txn, item ids.Item, ver ids.Txn, val int64, plan *protocol.FlightPlan, arm func(time.Duration, func())) {
	t := c.txnByID(txn, plan != nil)
	if t == nil {
		return // s-2PL: no late deliveries exist
	}
	if t.heldEntry(item) != nil {
		return // duplicate of a release-carried delivery (basic-mode race)
	}
	write := plan == nil // s-2PL carries no plan; mode comes from the op
	if plan != nil {
		write = planWrites(plan, txn)
	}
	if t.done || t.aborted {
		// Finished or aborted transaction: hold and forward unchanged
		// immediately (paper §3.2).
		t.held = append(t.held, heldItem{item: item, write: write, plan: plan, version: ver, value: val})
		h := t.heldEntry(item)
		if write && t.relGot[item] < c.needFor(plan, txn) {
			// An aborted MR1W writer still gathers the reader releases
			// before forwarding (conservative, mirrors the engine).
			t.relNeed[item] = c.needFor(plan, txn)
			return
		}
		c.finishItem(t, h)
		c.gcResidual(t)
		return
	}
	op := t.op()
	if op.Item != item {
		panic(fmt.Sprintf("live: %v received %v while waiting for %v", txn, item, op.Item))
	}
	c.noteWait(t)
	t.held = append(t.held, heldItem{item: item, write: op.Write, plan: plan, version: ver, value: val})
	if !op.Write {
		t.reads = append(t.reads, history.Read{Item: item, Version: ver})
	}
	think := time.Duration(c.gen.Think()) * tick
	if t.opIdx+1 < len(t.profile.Ops) {
		arm(think, func() {
			t.opIdx++
			c.sendRequest()
		})
		return
	}
	arm(think, func() { c.commit(t, arm) })
}

// noteWait records the current operation's blocked-time estimate: the
// observed request-to-data wait minus one server round trip, clamped at
// zero — waits at or under the wire cost are not lock contention.
func (c *client) noteWait(t *liveTxn) {
	if t.opSent.IsZero() {
		return
	}
	w := time.Since(t.opSent) - 2*c.cl.cfg.Latency
	if w < 0 {
		w = 0
	}
	c.blockedNs += int64(w)
	c.blockedN++
	t.opSent = time.Time{}
}

// needFor returns the reader releases txn must gather on plan, or 0.
func (c *client) needFor(plan *protocol.FlightPlan, txn ids.Txn) int {
	if plan == nil {
		return 0
	}
	j := plan.SegOf(txn)
	if j < 0 {
		return 0
	}
	return plan.RelWaitFor(j)
}

// planWrites reports whether txn is a writer on the plan.
func planWrites(plan *protocol.FlightPlan, txn ids.Txn) bool {
	e, ok := plan.EntryOf(txn)
	return ok && e.Write
}

// onRelease handles a reader's release addressed to one of this client's
// writer transactions. In basic mode the final release is also the data
// delivery; under MR1W it may clear a commit gate or unblock an aborted
// writer's forward.
func (c *client) onRelease(m fwdMsg, arm func(time.Duration, func())) {
	t := c.txnByID(m.to, true)
	t.relGot[m.item]++
	need := c.needFor(m.plan, m.to)
	t.relNeed[m.item] = need
	if t.relGot[m.item] < need {
		return
	}
	h := t.heldEntry(m.item)
	if h == nil {
		// No data yet: the completed releases are the delivery (basic
		// mode, or an early-data message still in flight — onData
		// ignores the duplicate).
		c.onData(m.to, m.item, m.version, m.value, m.plan, arm)
		return
	}
	if t.aborted {
		c.finishItem(t, h)
		c.gcResidual(t)
		return
	}
	if t.done && t.gates > 0 {
		t.gates--
		if t.gates == 0 {
			c.forwardAll(t)
			c.gcResidual(t)
		}
	}
	// Otherwise the transaction is still computing; commit observes the
	// completed release count and does not gate on this item.
}

// commit finishes the current transaction (s-2PL and g-2PL; c-2PL commits
// via commitC2PL, sharded s-2PL via commitSharded).
func (c *client) commit(t *liveTxn, arm func(time.Duration, func())) {
	if c.cl.sharded() {
		c.commitSharded(t)
		return
	}
	t.done = true
	rec := history.Committed{Txn: t.id, Reads: t.reads}
	for i := range t.held {
		h := &t.held[i]
		if h.write {
			rec.Writes = append(rec.Writes, h.item)
			t.writes = append(t.writes, writeUpdate{item: h.item, value: int64(t.id)})
		}
	}
	c.cl.audit.commit(rec)
	c.cl.commits.Add(1)
	resp := time.Since(t.start)
	c.cl.resp.Add(int64(resp))
	c.respSamp.Add(float64(resp))
	c.committed++
	c.carryTs = 0
	c.cur = nil

	if c.cl.cfg.Protocol == S2PL {
		c.cl.net.send(c.id, ids.Server, releaseMsg{txn: t.id, writes: t.writes})
	} else {
		for i := range t.held {
			h := &t.held[i]
			if h.write && t.relGot[h.item] < c.needFor(h.plan, t.id) {
				t.relNeed[h.item] = c.needFor(h.plan, t.id)
				t.gates++
			}
		}
		if t.gates == 0 {
			c.forwardAll(t)
		}
		c.residual[t.id] = t
		c.gcResidual(t)
	}
	c.beginNext(arm)
}

// commitSharded hands a fully-granted transaction to the 2PC
// coordinator: the commit record and the staged per-shard writes travel
// with the request, and the transaction stays current — neither done nor
// counted — until the coordinator's outcome (or a victim notice) comes
// back.
func (c *client) commitSharded(t *liveTxn) {
	t.committing = true
	rec := history.Committed{Txn: t.id, Reads: t.reads}
	writesBy := make(map[int][]writeUpdate)
	delta := int64(t.id%7) + 1
	widx := 0
	for i := range t.held {
		h := &t.held[i]
		if !h.write {
			continue
		}
		rec.Writes = append(rec.Writes, h.item)
		val := int64(t.id)
		if c.cl.cfg.Bank {
			// A deterministic transfer between the transaction's two
			// accounts: debit the first, credit the second by the same
			// amount, preserving the global balance sum.
			if widx == 0 {
				val = h.value - delta
			} else {
				val = h.value + delta
			}
		}
		widx++
		s := c.cl.smap.Of(h.item)
		writesBy[s] = append(writesBy[s], writeUpdate{item: h.item, value: val})
	}
	c.cl.net.send(c.id, ids.Coordinator, commitReqMsg{
		txn: t.id, client: c.id, shards: t.touched, rec: rec, writesBy: writesBy,
	})
}

// onOutcome finishes a sharded transaction on the coordinator's reply.
func (c *client) onOutcome(m outcomeMsg, arm func(time.Duration, func())) {
	t := c.txnByID(m.txn, false)
	if t == nil || t.done {
		return
	}
	if m.commit {
		t.done = true
		c.cl.commits.Add(1)
		resp := time.Since(t.start)
		c.cl.resp.Add(int64(resp))
		c.respSamp.Add(float64(resp))
		c.committed++
		c.carryTs = 0
		c.cur = nil
		c.beginNext(arm)
		return
	}
	// An abort reply: the commit request crossed a victim notice in
	// flight and the coordinator killed the round. The victim notice
	// normally unwinds the transaction first (per-link FIFO delivers it
	// ahead of this reply); unwind here only if it somehow has not.
	c.abortSharded(t, arm)
}

// abortSharded unwinds a dead sharded transaction: aborted releases to
// every touched shard free its locks and queue entries, and the
// abort-done ack lets the coordinator clear its victim mark.
func (c *client) abortSharded(t *liveTxn, arm func(time.Duration, func())) {
	t.aborted = true
	t.done = true
	c.carryTs = t.ts
	c.cl.audit.abort()
	c.cl.aborts.Add(1)
	for _, s := range t.touched {
		c.cl.net.send(c.id, ids.ShardSite(s), releaseMsg{txn: t.id, aborted: true})
	}
	c.cl.net.send(c.id, ids.Coordinator, abortDoneMsg{txn: t.id})
	if c.cur == t {
		c.cur = nil
		c.beginNext(arm)
	}
}

// onRestart handles a shard site's crash-restart announcement. A current
// transaction that sent requests to the restarted shard and is not yet
// in its commit round lost state there — a queued or granted request the
// fresh site has forgotten — so it aborts and retries rather than
// waiting forever on a grant that will never come. The abort unwind is
// safe against the restarted site: its release lands on a core that no
// longer knows the transaction, which is a no-op. Committing
// transactions are left to 2PC (see liveTxn.committing).
func (c *client) onRestart(m restartMsg, arm func(time.Duration, func())) {
	t := c.cur
	if t == nil || t.done || t.committing {
		return
	}
	touched := false
	for _, s := range t.touched {
		if s == m.shard {
			touched = true
			break
		}
	}
	if !touched {
		return
	}
	c.cl.restartAborts.Add(1)
	c.abortSharded(t, arm)
}

// onCoordRestart handles the coordinator's crash-restart announcement: a
// transaction whose commit request is unresolved re-sends it, because its
// voting round may have died with the old process. The re-send is built
// from the same held state, so it is byte-identical to the original; if
// the round actually survived (decided and logged before the crash), the
// restarted coordinator's done tombstone filters the duplicate and the
// original outcome reply — already on the wire — resolves the wait.
func (c *client) onCoordRestart() {
	t := c.cur
	if t == nil || t.done || !t.committing {
		return
	}
	c.commitSharded(t)
}

// onAbort handles a deadlock-victim notice.
func (c *client) onAbort(txn ids.Txn, arm func(time.Duration, func())) {
	if c.cl.sharded() {
		t := c.txnByID(txn, false)
		if t == nil || t.done {
			// The transaction already finished here (e.g. a stale blocked
			// report got a committed transaction victimed); ack anyway so
			// the coordinator clears its victim mark.
			c.cl.net.send(c.id, ids.Coordinator, abortDoneMsg{txn: txn})
			return
		}
		c.abortSharded(t, arm)
		return
	}
	t := c.txnByID(txn, false)
	if t == nil || t.done || t.aborted {
		return
	}
	t.aborted = true
	t.done = true
	c.carryTs = t.ts
	c.cl.audit.abort()
	c.cl.aborts.Add(1)
	switch c.cl.cfg.Protocol {
	case S2PL:
		// The victim's release travels back before the server frees its
		// locks (abort round trip).
		c.cl.net.send(c.id, ids.Server, releaseMsg{txn: t.id, aborted: true})
	case C2PL:
		// The aborted work never used its recalled items durably: the
		// deferred releases ride on the finish message, and the cached
		// locks themselves stay — they belong to the site.
		released := c.cache.Finish(t.id, nil)
		c.cl.net.send(c.id, ids.Server, finishMsg{txn: t.id, client: c.id, released: released})
	case G2PL:
		c.forwardAll(t)
		c.residual[t.id] = t
		c.gcResidual(t)
	default:
		panic(fmt.Sprintf("live: client running unknown protocol %v", c.cl.cfg.Protocol))
	}
	if c.cur == t {
		c.cur = nil
		c.beginNext(arm)
	}
}

// forwardAll releases or forwards every held item of a finished g-2PL
// transaction whose gates are clear.
func (c *client) forwardAll(t *liveTxn) {
	for i := range t.held {
		h := &t.held[i]
		if h.write && t.relGot[h.item] < c.needFor(h.plan, t.id) {
			continue // aborted writer still gathering releases
		}
		c.finishItem(t, h)
	}
}

// finishItem ends t's involvement with one held item, routing per the
// flight plan.
func (c *client) finishItem(t *liveTxn, h *heldItem) {
	if h.plan == nil || h.forwarded {
		return
	}
	h.forwarded = true
	plan := h.plan
	j := plan.SegOf(t.id)
	c.cl.net.send(c.id, ids.Server, doneMsg{txn: t.id, item: h.item})
	if !h.write {
		cli, txn := plan.ReleaseTarget(j)
		c.cl.net.send(c.id, cli, fwdMsg{
			item: h.item, from: t.id, to: txn,
			version: h.version, value: h.value,
			release: true, plan: plan,
		})
		return
	}
	ver, val := h.version, h.value
	if !t.aborted {
		ver, val = t.id, int64(t.id)
	}
	home := fwdMsg{item: h.item, from: t.id, version: ver, value: val, plan: plan}
	if plan.IsFinal(j) {
		c.cl.net.send(c.id, ids.Server, home)
		return
	}
	// The writer dispatches the next segment: its readers, then their MR1W
	// companion writer, then — from a final read group — the data's own
	// return home.
	for _, e := range plan.Recipients(j + 1) {
		c.cl.net.send(c.id, e.Client, dataMsg{txn: e.Txn, item: h.item, version: ver, value: val, plan: plan})
	}
	if plan.HomeReturnOnDispatch(j + 1) {
		c.cl.net.send(c.id, ids.Server, home)
	}
}

// gcResidual drops a finished transaction once nothing further can arrive
// for it: every held item forwarded and every tracked release count
// complete.
func (c *client) gcResidual(t *liveTxn) {
	if !t.done {
		return
	}
	if t.gates > 0 {
		return
	}
	for i := range t.held {
		if !t.held[i].forwarded {
			return
		}
	}
	for item, need := range t.relNeed {
		if t.relGot[item] < need {
			return
		}
	}
	delete(c.residual, t.id)
}

// ---- c-2PL ----

// stepC2PL performs the current operation: a sufficient cached lock is a
// local hit (no network at all — the whole point of c-2PL); otherwise the
// request travels to the server.
func (c *client) stepC2PL(arm func(time.Duration, func())) {
	t := c.cur
	op := t.op()
	if ver, _, ok := c.cache.Hit(op.Item, op.Write); ok {
		c.c2plGranted(t, op, ver, arm)
		return
	}
	c.sendRequest()
}

// c2plGranted finishes one operation (cache hit or server grant): record
// the access, think, proceed.
func (c *client) c2plGranted(t *liveTxn, op workload.Op, ver ids.Txn, arm func(time.Duration, func())) {
	if !op.Write {
		t.reads = append(t.reads, history.Read{Item: op.Item, Version: ver})
	}
	think := time.Duration(c.gen.Think()) * tick
	if t.opIdx+1 < len(t.profile.Ops) {
		arm(think, func() {
			t.opIdx++
			c.stepC2PL(arm)
		})
		return
	}
	arm(think, func() { c.commitC2PL(t, arm) })
}

// onGrant installs a c-2PL server grant in the cache and resumes the
// transaction (unless it aborted while the grant was in flight — the
// client keeps the cached lock, locks belong to sites).
func (c *client) onGrant(m grantMsg, arm func(time.Duration, func())) {
	live := c.cur != nil && c.cur.id == m.txn
	ver, _ := c.cache.Install(m.item, m.mode, m.version, m.value, live)
	if !live {
		return
	}
	t := c.cur
	c.noteWait(t)
	c.c2plGranted(t, t.op(), ver, arm)
}

// onRecall answers a server callback: defer when the running transaction
// used the item, release immediately otherwise.
func (c *client) onRecall(m recallMsg) {
	if c.cache.Recall(m.item) == protocol.RecallDefer {
		c.cl.net.send(c.id, ids.Server, deferMsg{txn: c.cur.id, client: c.id, item: m.item, ts: c.cur.ts})
		return
	}
	c.cl.net.send(c.id, ids.Server, crelMsg{client: c.id, item: m.item})
}

// commitC2PL finishes the current c-2PL transaction: updates and deferred
// releases travel to the server in one message; write locks and new
// versions stay cached.
func (c *client) commitC2PL(t *liveTxn, arm func(time.Duration, func())) {
	if t.done || t.aborted {
		return
	}
	t.done = true
	rec := history.Committed{Txn: t.id, Reads: t.reads}
	var writeItems []ids.Item
	var writes []writeUpdate
	for _, op := range t.profile.Ops {
		if op.Write {
			rec.Writes = append(rec.Writes, op.Item)
			writeItems = append(writeItems, op.Item)
			writes = append(writes, writeUpdate{item: op.Item, value: int64(t.id)})
		}
	}
	c.cl.audit.commit(rec)
	c.cl.commits.Add(1)
	resp := time.Since(t.start)
	c.cl.resp.Add(int64(resp))
	c.respSamp.Add(float64(resp))
	c.committed++
	c.carryTs = 0
	c.cur = nil
	released := c.cache.Finish(t.id, writeItems)
	c.cl.net.send(c.id, ids.Server, finishMsg{txn: t.id, client: c.id, writes: writes, released: released})
	c.beginNext(arm)
}
