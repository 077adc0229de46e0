package protocol

import (
	"slices"

	"repro/internal/ids"
	"repro/internal/lock"
	"repro/internal/stats"
	"repro/internal/wfg"
)

// LockRequest is one s-2PL lock request as the server sees it.
type LockRequest struct {
	Txn    ids.Txn
	Client ids.Client
	Item   ids.Item
	Write  bool
	// Epoch is the transaction's operation index at this request — a
	// globally monotone block-episode id the sharded coordinator uses to
	// order block/clear reports across links. The single-server engines
	// ignore it.
	Epoch int
	// Ts is the transaction's priority timestamp for the Wait-Die and
	// Wound-Wait policies: the monotonic id of its first incarnation, kept
	// across restarts so an old transaction eventually wins every
	// conflict. Zero means "use Txn", which is correct for transactions
	// that never restarted.
	Ts ids.Txn
}

// Mode returns the lock mode the request asks for.
func (q LockRequest) Mode() lock.Mode {
	if q.Write {
		return lock.Exclusive
	}
	return lock.Shared
}

// LockActionKind discriminates LockServer outputs.
type LockActionKind int

const (
	// LockGrant delivers the requested item to the requesting client.
	LockGrant LockActionKind = iota
	// LockAbort notifies a deadlock victim; its held locks stay until the
	// victim's release round trip ends with AbortRelease.
	LockAbort
)

// LockAction is one ordered output of the s-2PL server core. Req is the
// request being granted, or the victim's blocked request for an abort, so
// the driver has the destination client and item without keeping its own
// request table. Txn and Client always identify the affected transaction:
// a Wound-Wait victim may hold locks without having a blocked request, in
// which case Req is zero and only Txn/Client carry the destination.
type LockAction struct {
	Kind   LockActionKind
	Req    LockRequest
	Txn    ids.Txn
	Client ids.Client
}

// LockServer is the s-2PL server-side state machine: the lock table, the
// wait-for graph, the blocked set and deadlock resolution. Events come in
// through Request, CommitRelease and AbortRelease; the returned actions
// must be emitted in order.
//
// Every fact about a transaction lives in one recycled record, and the
// action lists are carved from a slab the core owns, so a steady-state
// request, grant, block, abort or release allocates nothing of its own. A
// returned list is never written again: a driver may keep it while it
// calls the core anew.
type LockServer struct {
	policy    VictimPolicy
	deadlock  DeadlockPolicy
	locks     *lock.Manager
	waits     *wfg.Graph
	txns      map[ids.Txn]*lsTxn
	free      []*lsTxn  // recycled records: no fact set, edges emptied
	nblocked  int       // records with blocked set
	nshielded int       // records with shielded set
	cycle     []ids.Txn // Request scratch: the deadlock cycle found
	blockers  []ids.Txn // judgeBlocked scratch: the requester's blockers
	bts       []ids.Txn // judgeBlocked scratch: their timestamps
	causes    stats.AbortCauses
	actionSlab[LockAction]
}

// lsTxn is everything the core knows about one transaction. Each flag is
// one fact's lifetime, and the record lives while any of them holds.
type lsTxn struct {
	id       ids.Txn
	client   ids.Client  // while known: destination for wound notices
	ts       ids.Txn     // while known: priority timestamp (Wait-Die/Wound-Wait)
	req      LockRequest // while queued: the request awaiting a grant or an abort
	edges    []ids.Txn   // while blocked: the stored wait edges
	known    bool        // from a request or adoption until the locks release
	live     bool
	queued   bool
	blocked  bool
	doomed   bool // abort notice in flight, release not yet back
	shielded bool // voted yes in 2PC: wound-immune until decided
}

// NewLockServer returns an empty s-2PL core using the given deadlock
// victim policy (who dies when detection finds a cycle) and deadlock
// policy (whether conflicts block-and-detect or resolve by timestamp
// order).
func NewLockServer(policy VictimPolicy, deadlock DeadlockPolicy) *LockServer {
	return &LockServer{
		policy:   policy,
		deadlock: deadlock,
		locks:    lock.NewManager(),
		waits:    wfg.New(),
		txns:     make(map[ids.Txn]*lsTxn),
	}
}

// record returns txn's record, taking a recycled one if it has none.
func (s *LockServer) record(txn ids.Txn) *lsTxn {
	t := s.txns[txn]
	if t == nil {
		if n := len(s.free); n > 0 {
			t, s.free = s.free[n-1], s.free[:n-1]
		} else {
			t = &lsTxn{}
		}
		t.id = txn
		s.txns[txn] = t
	}
	return t
}

// Request handles an arriving lock request: acquire or block, with
// deadlock detection initiated on block (paper §4). Several cycles can
// pass through the new request; victims are aborted until none remain,
// each abort first granting whatever the victim's cancelled request
// unblocked, then emitting the abort notice.
func (s *LockServer) Request(q LockRequest) []LockAction {
	t := s.record(q.Txn)
	if s.deadlock.Avoidance() && t.doomed {
		// A wound notice is in flight to this still-running transaction;
		// ignoring the request (rather than re-animating the victim) lets
		// the client unwind when the notice lands. Unreachable under
		// detection, whose victims are always blocked and silent.
		return nil
	}
	t.live, t.known, t.client, t.ts = true, true, q.Client, q.Ts
	if t.ts == 0 {
		t.ts = q.Txn
	}
	acts := s.actions()
	if s.locks.Acquire(q.Txn, q.Item, q.Mode()) {
		return s.seal(append(acts, LockAction{Kind: LockGrant, Req: q, Txn: q.Txn, Client: q.Client}))
	}
	t.req, t.queued = q, true
	if s.deadlock.Avoidance() {
		return s.seal(s.judgeBlocked(acts, t))
	}
	t.edges = s.locks.AppendWaitsFor(t.edges[:0], q.Txn)
	s.setBlocked(t)
	for _, b := range t.edges {
		s.waits.AddEdge(q.Txn, b)
	}
	for {
		s.cycle = s.waits.AppendCycle(s.cycle[:0], q.Txn)
		if len(s.cycle) == 0 {
			return s.seal(acts)
		}
		victim := ChooseVictim(s.policy, s.cycle, q.Txn, s.locks.HeldCount(q.Txn), s.victimInfo)
		s.causes.Deadlock++
		acts = s.abortVictim(s.record(victim), acts)
	}
}

// judgeBlocked applies an avoidance policy at the block point: the
// requester either dies (No-Wait on any conflict; Wait-Die when younger
// than a blocker), wounds its younger blockers (Wound-Wait), or waits —
// without ever touching the wait-for graph, which is what keeps the
// graph empty and makes global (coordinator-side) detection unnecessary
// under avoidance. Wounded victims keep their held locks until the
// client's AbortRelease round trip, exactly like detection victims.
func (s *LockServer) judgeBlocked(acts []LockAction, t *lsTxn) []LockAction {
	s.blockers = s.locks.AppendWaitsFor(s.blockers[:0], t.id)
	s.bts = s.bts[:0]
	for _, b := range s.blockers {
		s.bts = append(s.bts, s.tsOf(b))
	}
	die, wound := JudgeBlock(s.deadlock, t.ts, s.bts)
	if die {
		if s.deadlock == PolicyNoWait {
			s.causes.NoWait++
		} else {
			s.causes.Die++
		}
		return s.abortVictim(t, acts)
	}
	for _, i := range wound {
		v := s.txns[s.blockers[i]]
		if v == nil || !v.live || v.shielded {
			// Already wounded (its locks are draining via AbortRelease), or
			// prepared in 2PC: a yes voter must survive to the decision, and
			// it never waits again, so waiting for it cannot cycle.
			continue
		}
		s.causes.Wound++
		acts = s.abortVictim(v, acts)
	}
	if t.queued {
		// Still queued (wounding a queued-ahead blocker can promote the
		// requester immediately); record the block for Blocked/Quiet
		// bookkeeping. No wfg edges: timestamp order keeps waits acyclic.
		t.edges = append(t.edges[:0], s.blockers...)
		s.setBlocked(t)
	}
	return acts
}

// tsOf returns a transaction's priority timestamp, defaulting to its id.
func (s *LockServer) tsOf(txn ids.Txn) ids.Txn {
	if t := s.txns[txn]; t != nil && t.known {
		return t.ts
	}
	return txn
}

// victimInfo is the s-2PL liveness rule for victim selection: any
// transaction that has not yet committed or been aborted is a candidate.
func (s *LockServer) victimInfo(id ids.Txn) (alive bool, held int) {
	return s.Live(id), s.locks.HeldCount(id)
}

// abortVictim performs the server-side half of a deadlock abort: the
// victim's queued request disappears immediately (promoting any waiters
// that unblocks), but its held locks stay until AbortRelease — the client
// owns the in-flight transaction state in a data-shipping system, so the
// victim is notified and responds with the release.
func (s *LockServer) abortVictim(t *lsTxn, acts []LockAction) []LockAction {
	vq := s.doom(t)
	acts = s.grantActions(acts, s.locks.CancelWait(t.id))
	return append(acts, LockAction{Kind: LockAbort, Req: vq, Txn: t.id, Client: t.client})
}

// doom marks t as owing the release round trip and returns its queued
// request, zero if none; the caller cancels it in the lock table.
func (s *LockServer) doom(t *lsTxn) LockRequest {
	s.clearBlocked(t)
	vq := t.dequeue()
	t.live, t.doomed = false, true
	return vq
}

// dequeue takes t's queued request, zero if none.
func (t *lsTxn) dequeue() LockRequest {
	q := t.req
	t.req, t.queued = LockRequest{}, false
	return q
}

// CommitRelease ends a committed transaction: all held locks release in
// one step (the shrinking phase of strict 2PL) and promoted waiters are
// granted.
func (s *LockServer) CommitRelease(txn ids.Txn) []LockAction {
	if t := s.txns[txn]; t != nil {
		t.live = false
	}
	return s.seal(s.grantActions(s.actions(), s.release(txn)))
}

// AbortRelease frees an aborted victim's held locks once its release
// round trip completes, promoting waiting requests. The victim left the
// live set at abort time.
func (s *LockServer) AbortRelease(txn ids.Txn) []LockAction {
	return s.seal(s.grantActions(s.actions(), s.release(txn)))
}

// release frees txn's locks and wait edges and forgets its timestamp,
// client, doom and shield, recycling a record left with no fact. It
// returns the lock table's grants.
func (s *LockServer) release(txn ids.Txn) []lock.Grant {
	grants := s.locks.Release(txn)
	s.waits.RemoveTxn(txn)
	if t := s.txns[txn]; t != nil {
		if t.shielded {
			s.nshielded--
		}
		t.known, t.client, t.ts, t.doomed, t.shielded = false, 0, 0, false, false
		if !t.live && !t.queued && !t.blocked {
			delete(s.txns, txn)
			s.free = append(s.free, t)
		}
	}
	return grants
}

// grantActions converts promoted lock-table grants into ordered grant
// actions — the single funnel every s-2PL grant emission routes through
// (repolint's twophase check pins its callers).
func (s *LockServer) grantActions(acts []LockAction, grants []lock.Grant) []LockAction {
	for _, g := range grants {
		t := s.txns[g.Txn]
		if t == nil || !t.live {
			continue // aborted while queued; nothing to deliver
		}
		s.clearBlocked(t)
		q := t.dequeue()
		acts = append(acts, LockAction{Kind: LockGrant, Req: q, Txn: g.Txn, Client: q.Client})
	}
	return acts
}

// setBlocked marks t blocked behind its stored edges.
func (s *LockServer) setBlocked(t *lsTxn) {
	if !t.blocked {
		t.blocked = true
		s.nblocked++
	}
}

// clearBlocked removes a transaction's stored wait edges after a grant or
// abort.
func (s *LockServer) clearBlocked(t *lsTxn) {
	if !t.blocked {
		return
	}
	for _, b := range t.edges {
		s.waits.RemoveEdge(t.id, b)
	}
	t.edges = t.edges[:0]
	t.blocked = false
	s.nblocked--
}

// CancelBlocked withdraws a transaction's queued request without touching
// its held locks — the participant half of a coordinator-side deadlock
// abort, where the victim notice originates remotely and only the local
// queue entry must disappear (held locks wait for the AbortRelease round
// trip, exactly as in abortVictim). Unknown or unblocked transactions are
// a no-op; promoted waiters are granted.
func (s *LockServer) CancelBlocked(txn ids.Txn) []LockAction {
	s.doom(s.record(txn))
	return s.seal(s.grantActions(s.actions(), s.locks.CancelWait(txn)))
}

// Quiet reports whether no request is blocked and the wait-for graph is
// empty — the live cluster's quiescence condition.
func (s *LockServer) Quiet() bool {
	return s.nblocked == 0 && s.waits.Edges() == 0
}

// HeldLocks returns txn's currently held locks in ascending item order —
// the durable snapshot a 2PC driver logs before a yes vote leaves.
func (s *LockServer) HeldLocks(txn ids.Txn) []RecoveredLock {
	held := s.locks.Held(txn)
	out := make([]RecoveredLock, len(held))
	for i, h := range held {
		out[i] = RecoveredLock{Item: h.Item, Write: h.Mode == lock.Exclusive}
	}
	return out
}

// ClientOf returns the client that issued txn's requests (zero when the
// core has forgotten or never seen it).
func (s *LockServer) ClientOf(txn ids.Txn) ids.Client {
	if t := s.txns[txn]; t != nil {
		return t.client
	}
	return 0
}

// Ts returns txn's priority timestamp, defaulting to its id.
func (s *LockServer) Ts(txn ids.Txn) ids.Txn { return s.tsOf(txn) }

// Adopt reinstates a recovered transaction's locks on a freshly built
// core: live again, shielded (it voted yes and must survive to the
// decision), and every logged lock re-acquired. Adoption runs before the
// restarted core sees any request, so the table holds only other adopted
// transactions' locks — which a prepared set can never conflict with
// (two prepared exclusives on one item cannot have coexisted). A blocked
// acquisition is therefore a recovery bug, not a protocol outcome.
func (s *LockServer) Adopt(txn ids.Txn, client ids.Client, ts ids.Txn, locks []RecoveredLock) {
	t := s.record(txn)
	t.live, t.known, t.client, t.ts = true, true, client, ts
	if ts == 0 {
		t.ts = txn
	}
	for _, l := range locks {
		mode := lock.Shared
		if l.Write {
			mode = lock.Exclusive
		}
		if !s.locks.Acquire(txn, l.Item, mode) {
			panic("protocol: recovered lock blocked during adoption")
		}
	}
	s.shield(t)
}

// Live reports whether txn is still running from this core's view: it
// requested at least one lock and has neither committed nor aborted.
func (s *LockServer) Live(txn ids.Txn) bool {
	t := s.txns[txn]
	return t != nil && t.live
}

// Shield marks txn wound-immune: it voted yes in 2PC and must survive
// to the decision. Cleared when its locks release.
func (s *LockServer) Shield(txn ids.Txn) { s.shield(s.record(txn)) }

// shield marks t wound-immune, counting it.
func (s *LockServer) shield(t *lsTxn) {
	if !t.shielded {
		t.shielded = true
		s.nshielded++
	}
}

// WaitEdges returns a copy of txn's stored wait edges — the transactions
// it is blocked behind, in the lock table's promotion order. Empty when
// txn is not blocked.
func (s *LockServer) WaitEdges(txn ids.Txn) []ids.Txn {
	if t := s.txns[txn]; t != nil && len(t.edges) > 0 {
		return slices.Clone(t.edges)
	}
	return nil
}

// HeldCount returns the number of items txn currently holds.
func (s *LockServer) HeldCount(txn ids.Txn) int { return s.locks.HeldCount(txn) }

// HoldersOf returns the lock holders of item in ascending transaction
// order (test hook).
func (s *LockServer) HoldersOf(item ids.Item) []ids.Txn { return s.locks.HoldersOf(item) }

// QueueLen returns the number of queued requests on item (test hook).
func (s *LockServer) QueueLen(item ids.Item) int { return s.locks.QueueLen(item) }

// Edges returns the wait-for edge count (test hook).
func (s *LockServer) Edges() int { return s.waits.Edges() }

// Blocked reports whether txn currently has stored wait edges (test hook).
func (s *LockServer) Blocked(txn ids.Txn) bool {
	t := s.txns[txn]
	return t != nil && len(t.edges) > 0
}

// Causes returns the abort-cause counters accumulated so far.
func (s *LockServer) Causes() stats.AbortCauses { return s.causes }

// Validate checks the lock-table invariants (test hook).
func (s *LockServer) Validate() error { return s.locks.Validate() }
