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
	opSent time.Time
	reads  []history.Read
	// vals are the values s-2PL granted this transaction's writes, in
	// operation order: what a bank transfer computes its new balances from.
	vals []int64
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

	// g is the transaction's side of its g-2PL flights: what it holds, the
	// reader releases gathered for it, and what leaves when it ends.
	g protocol.GroupClient
}

func (t *liveTxn) op() workload.Op { return t.profile.Ops[t.opIdx] }

// record is the history entry of t's commit — its reads so far and every
// write of its profile — and the updates it installs: a writer's own id is
// the new value.
func (t *liveTxn) record() (history.Committed, []writeUpdate) {
	rec := history.Committed{Txn: t.id, Reads: t.reads}
	var writes []writeUpdate
	for _, op := range t.profile.Ops {
		if op.Write {
			rec.Writes = append(rec.Writes, op.Item)
			writes = append(writes, writeUpdate{item: op.Item, value: int64(t.id)})
		}
	}
	return rec, writes
}

// touch records a shard in the transaction's participant set, once.
func (t *liveTxn) touch(shard int) {
	for _, s := range t.touched {
		if s == shard {
			return
		}
	}
	t.touched = append(t.touched, shard)
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

	// cur is the transaction the client runs; nil between transactions.
	// residual holds the ended g-2PL transactions that have not settled:
	// flights they are members of still owe them data or reader releases.
	cur      *liveTxn
	residual map[ids.Txn]*liveTxn
	acts     []protocol.ClientAction // applyClient's batch, reused
	ncommit  int
	signaled bool

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
	mbox := newMailbox(id, 4096)
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

// The transaction lifecycle every protocol shares, under the names of the
// DES harness (internal/engine/harness.go): beginNext → step → granted →
// think → step … → commit → committed, or aborted at any point; both ends
// lead back to beginNext.

// beginNext schedules the next transaction after an idle period, or
// signals the cluster when the commit target is reached (the client keeps
// serving residual duties either way).
func (c *client) beginNext(arm func(time.Duration, func())) {
	if c.ncommit >= c.cl.cfg.TxnsPerClient {
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
			g:       protocol.GroupClient{Txn: id},
		}
		if c.cl.cfg.Protocol == C2PL {
			c.cache.Begin()
		}
		c.step(arm)
	})
}

// step performs the current operation. Under c-2PL a sufficient cached lock
// is a local hit (no network at all — the whole point of c-2PL); otherwise
// the request travels to the server, or to the item's shard.
func (c *client) step(arm func(time.Duration, func())) {
	t := c.cur
	op := t.op()
	if c.cl.cfg.Protocol == C2PL {
		if ver, _, ok := c.cache.Hit(op.Item, op.Write); ok {
			c.granted(t, op.Item, ver, arm)
			return
		}
	}
	t.opSent = time.Now()
	m := reqMsg{
		txn:    t.id,
		client: c.id,
		item:   op.Item,
		write:  op.Write,
		epoch:  t.opIdx,
		ts:     t.ts,
	}
	if c.cl.sharded() {
		s := c.cl.smap.Of(op.Item)
		t.touch(s)
		c.cl.net.send(c.id, ids.ShardSite(s), m)
		return
	}
	c.cl.net.send(c.id, ids.Server, m)
}

// granted finishes one operation of t (a grant, a delivery or a cache
// hit): record the wait and the access, think, then step again or commit.
func (c *client) granted(t *liveTxn, item ids.Item, ver ids.Txn, arm func(time.Duration, func())) {
	op := t.op()
	if op.Item != item {
		panic(fmt.Sprintf("live: %v received %v while waiting for %v", t.id, item, op.Item))
	}
	c.noteWait(t)
	if !op.Write {
		t.reads = append(t.reads, history.Read{Item: item, Version: ver})
	}
	arm(time.Duration(c.gen.Think())*tick, func() {
		if t.opIdx+1 < len(t.profile.Ops) {
			t.opIdx++
			c.step(arm)
			return
		}
		c.commit(t, arm)
	})
}

// noteWait records the current operation's blocked-time estimate: the
// observed request-to-data wait minus one server round trip, clamped at
// zero — waits at or under the wire cost are not lock contention. A cache
// hit sent no request and records nothing.
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

// commit finishes the current transaction after its last think time. A
// sharded one goes to the 2PC coordinator and ends in onOutcome; the others
// end here: audit, count, then the protocol's end-of-transaction messages —
// s-2PL's combined commit/release; the g-2PL forwards, which a gate may
// hold back; c-2PL's updates and deferred releases in one message, write
// locks and new versions staying cached.
func (c *client) commit(t *liveTxn, arm func(time.Duration, func())) {
	if c.cl.sharded() {
		c.commitSharded(t)
		return
	}
	rec, writes := t.record()
	c.cl.audit.commit(rec)
	c.committed(t)
	switch c.cl.cfg.Protocol {
	case S2PL:
		c.cl.net.send(c.id, ids.Server, releaseMsg{txn: t.id, writes: writes})
	case G2PL:
		c.applyClient(t, t.g.Commit(c.acts[:0]), arm)
	case C2PL:
		released := c.cache.Finish(t.id, rec.Writes)
		c.cl.net.send(c.id, ids.Server, finishMsg{txn: t.id, client: c.id, writes: writes, released: released})
	default:
		panic(fmt.Sprintf("live: client running unknown protocol %v", c.cl.cfg.Protocol))
	}
	c.beginNext(arm)
}

// committed counts t's commit at its client: response time stops here.
func (c *client) committed(t *liveTxn) {
	c.cl.commits.Add(1)
	resp := time.Since(t.start)
	c.cl.resp.Add(int64(resp))
	c.respSamp.Add(float64(resp))
	c.ncommit++
	c.carryTs = 0
	c.cur = nil
}

// aborted ends the running transaction t on a victim notice, a shard's
// restart or the coordinator's abort reply: count it, unwind what the
// protocol has handed out, and start over; the restart inherits t's
// priority.
func (c *client) aborted(t *liveTxn, arm func(time.Duration, func())) {
	c.carryTs = t.ts
	c.cur = nil
	c.cl.audit.abort()
	c.cl.aborts.Add(1)
	switch c.cl.cfg.Protocol {
	case S2PL:
		if c.cl.sharded() {
			// Aborted releases to every touched shard free its locks and
			// queue entries; the abort-done ack lets the coordinator clear
			// its victim mark.
			for _, s := range t.touched {
				c.cl.net.send(c.id, ids.ShardSite(s), releaseMsg{txn: t.id, aborted: true})
			}
			c.cl.net.send(c.id, ids.Coordinator, abortDoneMsg{txn: t.id})
		} else {
			// The victim's release travels back before the server frees its
			// locks (abort round trip).
			c.cl.net.send(c.id, ids.Server, releaseMsg{txn: t.id, aborted: true})
		}
	case C2PL:
		// The aborted work never used its recalled items durably: the
		// deferred releases ride on the finish message, and the cached
		// locks themselves stay — they belong to the site.
		released := c.cache.Finish(t.id, nil)
		c.cl.net.send(c.id, ids.Server, finishMsg{txn: t.id, client: c.id, released: released})
	case G2PL:
		c.applyClient(t, t.g.Abort(c.acts[:0]), arm)
	default:
		panic(fmt.Sprintf("live: client running unknown protocol %v", c.cl.cfg.Protocol))
	}
	c.beginNext(arm)
}

func (c *client) handle(m message, arm func(time.Duration, func())) {
	switch msg := m.(type) {
	case dataMsg:
		if msg.plan == nil { // an s-2PL grant
			if t := c.running(msg.txn); t != nil {
				if t.op().Write {
					t.vals = append(t.vals, msg.value)
				}
				c.granted(t, msg.item, msg.version, arm)
			}
			break
		}
		t := c.member(msg.txn)
		d := protocol.GroupCopy{Plan: msg.plan, Version: msg.version, Value: msg.value}
		c.applyClient(t, t.g.Data(d, c.acts[:0]), arm)
	case fwdMsg:
		t := c.member(msg.to)
		d := protocol.GroupCopy{Plan: msg.plan, Version: msg.version, Value: msg.value}
		c.applyClient(t, t.g.Release(d, c.acts[:0]), arm)
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

// running returns the client's current transaction if it is id, else nil:
// a grant, notice or outcome for any other transaction is late.
func (c *client) running(id ids.Txn) *liveTxn {
	if c.cur != nil && c.cur.id == id {
		return c.cur
	}
	return nil
}

// member finds the g-2PL transaction a delivery or release names: the
// running one, an ended one with flights still open, or — for a victim this
// client has already forgotten — a stub that passes the data straight on.
func (c *client) member(id ids.Txn) *liveTxn {
	if t := c.running(id); t != nil {
		return t
	}
	if t := c.residual[id]; t != nil {
		return t
	}
	t := &liveTxn{id: id, g: protocol.GroupClient{Txn: id}}
	t.g.Abort(nil)
	return t
}

// applyClient emits a g-2PL transaction's ordered actions as messages — the
// single emission site of client-side g-2PL traffic — then files t with the
// residual transactions, or forgets it once it has settled.
func (c *client) applyClient(t *liveTxn, acts []protocol.ClientAction, arm func(time.Duration, func())) {
	c.acts = acts
	for _, a := range acts {
		item := a.Plan.Item
		switch a.Kind {
		case protocol.ClientGranted:
			c.granted(t, item, a.Version, arm)
		case protocol.ClientDone:
			c.cl.net.send(c.id, ids.Server, doneMsg{txn: t.id, item: item})
		case protocol.ClientRelease:
			c.cl.net.send(c.id, a.Client, fwdMsg{
				item: item, from: t.id, to: a.To,
				version: a.Version, value: a.Value,
				release: true, plan: a.Plan,
			})
		case protocol.ClientData:
			c.cl.net.send(c.id, a.Client, dataMsg{txn: a.To, item: item, version: a.Version, value: a.Value, plan: a.Plan})
		case protocol.ClientHome:
			c.cl.net.send(c.id, ids.Server, fwdMsg{item: item, from: t.id, version: a.Version, value: a.Value, plan: a.Plan})
		default:
			panic(fmt.Sprintf("live: client %v got unknown g-2PL action %d", c.id, a.Kind))
		}
	}
	if t.g.Settled() {
		delete(c.residual, t.id)
	} else if t != c.cur {
		c.residual[t.id] = t
	}
}

// commitSharded hands a fully-granted transaction to the 2PC
// coordinator: the commit record and the staged per-shard writes travel
// with the request, and the transaction stays current — not counted —
// until the coordinator's outcome (or a victim notice) comes back.
func (c *client) commitSharded(t *liveTxn) {
	t.committing = true
	rec, writes := t.record()
	writesBy := make(map[int][]writeUpdate)
	for i, w := range writes {
		if c.cl.cfg.Bank {
			w.value = workload.Transfer(t.id, i, t.vals[i])
		}
		s := c.cl.smap.Of(w.item)
		writesBy[s] = append(writesBy[s], w)
	}
	c.cl.net.send(c.id, ids.Coordinator, commitReqMsg{
		txn: t.id, client: c.id, shards: t.touched, rec: rec, writesBy: writesBy,
	})
}

// onOutcome finishes a sharded transaction on the coordinator's reply.
func (c *client) onOutcome(m outcomeMsg, arm func(time.Duration, func())) {
	t := c.running(m.txn)
	if t == nil {
		return
	}
	if m.commit {
		c.committed(t)
		c.beginNext(arm)
		return
	}
	// An abort reply: the commit request crossed a victim notice in
	// flight and the coordinator killed the round. The victim notice
	// normally unwinds the transaction first (per-link FIFO delivers it
	// ahead of this reply); unwind here only if it somehow has not.
	c.aborted(t, arm)
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
	if t == nil || t.committing {
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
	c.aborted(t, arm)
}

// onCoordRestart handles the coordinator's crash-restart announcement: a
// transaction whose commit request is unresolved re-sends it, because its
// voting round may have died with the old process. The re-send is built
// from the same held state, so it is byte-identical to the original; if
// the round actually survived (decided and logged before the crash), the
// restarted coordinator's done tombstone filters the duplicate and the
// original outcome reply — already on the wire — resolves the wait.
func (c *client) onCoordRestart() {
	if t := c.cur; t != nil && t.committing {
		c.commitSharded(t)
	}
}

// onAbort handles a deadlock-victim notice.
func (c *client) onAbort(txn ids.Txn, arm func(time.Duration, func())) {
	if t := c.running(txn); t != nil {
		c.aborted(t, arm)
	} else if c.cl.sharded() {
		// The transaction already finished here (e.g. a stale blocked
		// report got a committed transaction victimed); ack anyway so
		// the coordinator clears its victim mark.
		c.cl.net.send(c.id, ids.Coordinator, abortDoneMsg{txn: txn})
	}
}

// ---- c-2PL ----

// onGrant installs a c-2PL server grant in the cache and resumes the
// transaction (unless it aborted while the grant was in flight — the
// client keeps the cached lock, locks belong to sites).
func (c *client) onGrant(m grantMsg, arm func(time.Duration, func())) {
	t := c.running(m.txn)
	ver, _ := c.cache.Install(m.item, m.mode, m.version, m.value, t != nil)
	if t != nil {
		c.granted(t, m.item, ver, arm)
	}
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
