package protocol

import (
	"slices"

	"repro/internal/ids"
	"repro/internal/lock"
	"repro/internal/stats"
	"repro/internal/wfg"
)

// The struct-of-maps s-2PL core this package shipped before the
// one-record-per-transaction representation, kept verbatim as the
// reference model the differential tests and FuzzLockServerModel compare
// LockServer against. Only the names changed, and HeldLocks rebuilds from
// the lock table's held slice the map copy it sorted, which is gone.

// modelServer is the s-2PL server-side state machine: the lock table, the
// wait-for graph, the blocked set and deadlock resolution. Events come in
// through Request, CommitRelease and AbortRelease; the returned actions
// must be emitted in order.
type modelServer struct {
	policy   VictimPolicy
	deadlock DeadlockPolicy
	locks    *lock.Manager
	waits    *wfg.Graph
	blocked  map[ids.Txn][]ids.Txn // stored wait edges per blocked txn
	req      map[ids.Txn]LockRequest
	live     map[ids.Txn]bool
	doomed   map[ids.Txn]bool       // abort notice in flight, release not yet back
	shielded map[ids.Txn]bool       // voted yes in 2PC: wound-immune until decided
	ts       map[ids.Txn]ids.Txn    // priority timestamps (Wait-Die/Wound-Wait)
	client   map[ids.Txn]ids.Client // destination for wound notices
	causes   stats.AbortCauses
}

// newModelServer returns an empty s-2PL core using the given deadlock
// victim policy (who dies when detection finds a cycle) and deadlock
// policy (whether conflicts block-and-detect or resolve by timestamp
// order).
func newModelServer(policy VictimPolicy, deadlock DeadlockPolicy) *modelServer {
	return &modelServer{
		policy:   policy,
		deadlock: deadlock,
		locks:    lock.NewManager(),
		waits:    wfg.New(),
		blocked:  make(map[ids.Txn][]ids.Txn),
		req:      make(map[ids.Txn]LockRequest),
		live:     make(map[ids.Txn]bool),
		doomed:   make(map[ids.Txn]bool),
		shielded: make(map[ids.Txn]bool),
		ts:       make(map[ids.Txn]ids.Txn),
		client:   make(map[ids.Txn]ids.Client),
	}
}

// Request handles an arriving lock request: acquire or block, with
// deadlock detection initiated on block (paper §4). Several cycles can
// pass through the new request; victims are aborted until none remain,
// each abort first granting whatever the victim's cancelled request
// unblocked, then emitting the abort notice.
func (s *modelServer) Request(q LockRequest) []LockAction {
	if s.deadlock.Avoidance() && s.doomed[q.Txn] {
		// A wound notice is in flight to this still-running transaction;
		// ignoring the request (rather than re-animating the victim) lets
		// the client unwind when the notice lands. Unreachable under
		// detection, whose victims are always blocked and silent.
		return nil
	}
	s.live[q.Txn] = true
	s.client[q.Txn] = q.Client
	ts := q.Ts
	if ts == 0 {
		ts = q.Txn
	}
	s.ts[q.Txn] = ts
	if s.locks.Acquire(q.Txn, q.Item, q.Mode()) {
		return []LockAction{{Kind: LockGrant, Req: q, Txn: q.Txn, Client: q.Client}}
	}
	s.req[q.Txn] = q
	blockers := s.locks.WaitsFor(q.Txn)
	if s.deadlock.Avoidance() {
		return s.judgeBlocked(q, ts, blockers)
	}
	s.blocked[q.Txn] = blockers
	for _, b := range blockers {
		s.waits.AddEdge(q.Txn, b)
	}
	var acts []LockAction
	for {
		cycle := s.waits.CycleThrough(q.Txn)
		if cycle == nil {
			return acts
		}
		victim := ChooseVictim(s.policy, cycle, q.Txn, s.locks.HeldCount(q.Txn), s.victimInfo)
		s.causes.Deadlock++
		acts = s.abortVictim(victim, acts)
	}
}

// judgeBlocked applies an avoidance policy at the block point: the
// requester either dies (No-Wait on any conflict; Wait-Die when younger
// than a blocker), wounds its younger blockers (Wound-Wait), or waits —
// without ever touching the wait-for graph, which is what keeps the
// graph empty and makes global (coordinator-side) detection unnecessary
// under avoidance. Wounded victims keep their held locks until the
// client's AbortRelease round trip, exactly like detection victims.
func (s *modelServer) judgeBlocked(q LockRequest, ts ids.Txn, blockers []ids.Txn) []LockAction {
	bts := make([]ids.Txn, len(blockers))
	for i, b := range blockers {
		bts[i] = s.tsOf(b)
	}
	die, wound := JudgeBlock(s.deadlock, ts, bts)
	if die {
		if s.deadlock == PolicyNoWait {
			s.causes.NoWait++
		} else {
			s.causes.Die++
		}
		return s.abortVictim(q.Txn, nil)
	}
	var acts []LockAction
	for _, i := range wound {
		v := blockers[i]
		if !s.live[v] || s.shielded[v] {
			// Already wounded (its locks are draining via AbortRelease), or
			// prepared in 2PC: a yes voter must survive to the decision, and
			// it never waits again, so waiting for it cannot cycle.
			continue
		}
		s.causes.Wound++
		acts = s.abortVictim(v, acts)
	}
	if _, waiting := s.req[q.Txn]; waiting {
		// Still queued (wounding a queued-ahead blocker can promote the
		// requester immediately); record the block for Blocked/Quiet
		// bookkeeping. No wfg edges: timestamp order keeps waits acyclic.
		s.blocked[q.Txn] = blockers
	}
	return acts
}

// tsOf returns a transaction's priority timestamp, defaulting to its id.
func (s *modelServer) tsOf(txn ids.Txn) ids.Txn {
	if t, ok := s.ts[txn]; ok {
		return t
	}
	return txn
}

// victimInfo is the s-2PL liveness rule for victim selection: any
// transaction that has not yet committed or been aborted is a candidate.
func (s *modelServer) victimInfo(id ids.Txn) (alive bool, held int) {
	return s.live[id], s.locks.HeldCount(id)
}

// abortVictim performs the server-side half of a deadlock abort: the
// victim's queued request disappears immediately (promoting any waiters
// that unblocks), but its held locks stay until AbortRelease — the client
// owns the in-flight transaction state in a data-shipping system, so the
// victim is notified and responds with the release.
func (s *modelServer) abortVictim(v ids.Txn, acts []LockAction) []LockAction {
	s.clearBlocked(v)
	grants := s.locks.CancelWait(v)
	delete(s.live, v)
	s.doomed[v] = true
	vq := s.req[v]
	delete(s.req, v)
	acts = s.grantActions(acts, grants)
	return append(acts, LockAction{Kind: LockAbort, Req: vq, Txn: v, Client: s.client[v]})
}

// CommitRelease ends a committed transaction: all held locks release in
// one step (the shrinking phase of strict 2PL) and promoted waiters are
// granted.
func (s *modelServer) CommitRelease(txn ids.Txn) []LockAction {
	grants := s.locks.Release(txn)
	s.waits.RemoveTxn(txn)
	delete(s.live, txn)
	s.forget(txn)
	return s.grantActions(nil, grants)
}

// AbortRelease frees an aborted victim's held locks once its release
// round trip completes, promoting waiting requests. The victim left the
// live set at abort time.
func (s *modelServer) AbortRelease(txn ids.Txn) []LockAction {
	grants := s.locks.Release(txn)
	s.waits.RemoveTxn(txn)
	s.forget(txn)
	return s.grantActions(nil, grants)
}

// forget drops a finished transaction's timestamp and client records.
func (s *modelServer) forget(txn ids.Txn) {
	delete(s.doomed, txn)
	delete(s.shielded, txn)
	delete(s.ts, txn)
	delete(s.client, txn)
}

// grantActions converts promoted lock-table grants into ordered grant
// actions — the single funnel every s-2PL grant emission routes through
// (repolint's twophase check pins its callers).
func (s *modelServer) grantActions(acts []LockAction, grants []lock.Grant) []LockAction {
	for _, g := range grants {
		if !s.live[g.Txn] {
			continue // aborted while queued; nothing to deliver
		}
		s.clearBlocked(g.Txn)
		q := s.req[g.Txn]
		delete(s.req, g.Txn)
		acts = append(acts, LockAction{Kind: LockGrant, Req: q, Txn: g.Txn, Client: q.Client})
	}
	return acts
}

// clearBlocked removes a transaction's stored wait edges after a grant or
// abort.
func (s *modelServer) clearBlocked(txn ids.Txn) {
	for _, b := range s.blocked[txn] {
		s.waits.RemoveEdge(txn, b)
	}
	delete(s.blocked, txn)
}

// CancelBlocked withdraws a transaction's queued request without touching
// its held locks — the participant half of a coordinator-side deadlock
// abort, where the victim notice originates remotely and only the local
// queue entry must disappear (held locks wait for the AbortRelease round
// trip, exactly as in abortVictim). Unknown or unblocked transactions are
// a no-op; promoted waiters are granted.
func (s *modelServer) CancelBlocked(txn ids.Txn) []LockAction {
	s.clearBlocked(txn)
	grants := s.locks.CancelWait(txn)
	delete(s.live, txn)
	s.doomed[txn] = true
	delete(s.req, txn)
	return s.grantActions(nil, grants)
}

// Quiet reports whether no request is blocked and the wait-for graph is
// empty — the live cluster's quiescence condition.
func (s *modelServer) Quiet() bool {
	return len(s.blocked) == 0 && s.waits.Edges() == 0
}

// HeldLocks returns txn's currently held locks in ascending item order —
// the durable snapshot a 2PC driver logs before a yes vote leaves.
func (s *modelServer) HeldLocks(txn ids.Txn) []RecoveredLock {
	held := make(map[ids.Item]lock.Mode)
	for _, h := range s.locks.Held(txn) {
		held[h.Item] = h.Mode
	}
	items := make([]ids.Item, 0, len(held))
	//repolint:allow maprange -- keys are sorted before use
	for item := range held {
		items = append(items, item)
	}
	slices.Sort(items)
	out := make([]RecoveredLock, len(items))
	for i, item := range items {
		out[i] = RecoveredLock{Item: item, Write: held[item] == lock.Exclusive}
	}
	return out
}

// ClientOf returns the client that issued txn's requests (zero when the
// core has forgotten or never seen it).
func (s *modelServer) ClientOf(txn ids.Txn) ids.Client { return s.client[txn] }

// Ts returns txn's priority timestamp, defaulting to its id.
func (s *modelServer) Ts(txn ids.Txn) ids.Txn { return s.tsOf(txn) }

// Adopt reinstates a recovered transaction's locks on a freshly built
// core: live again, shielded (it voted yes and must survive to the
// decision), and every logged lock re-acquired. Adoption runs before the
// restarted core sees any request, so the table holds only other adopted
// transactions' locks — which a prepared set can never conflict with
// (two prepared exclusives on one item cannot have coexisted). A blocked
// acquisition is therefore a recovery bug, not a protocol outcome.
func (s *modelServer) Adopt(txn ids.Txn, client ids.Client, ts ids.Txn, locks []RecoveredLock) {
	s.live[txn] = true
	s.client[txn] = client
	if ts == 0 {
		ts = txn
	}
	s.ts[txn] = ts
	for _, l := range locks {
		mode := lock.Shared
		if l.Write {
			mode = lock.Exclusive
		}
		if !s.locks.Acquire(txn, l.Item, mode) {
			panic("protocol: recovered lock blocked during adoption")
		}
	}
	s.shielded[txn] = true
}

// Live reports whether txn is still running from this core's view: it
// requested at least one lock and has neither committed nor aborted.
func (s *modelServer) Live(txn ids.Txn) bool { return s.live[txn] }

// Shield marks txn wound-immune: it voted yes in 2PC and must survive
// to the decision. Cleared when its locks release.
func (s *modelServer) Shield(txn ids.Txn) { s.shielded[txn] = true }

// WaitEdges returns a copy of txn's stored wait edges — the transactions
// it is blocked behind, in the lock table's promotion order. Empty when
// txn is not blocked.
func (s *modelServer) WaitEdges(txn ids.Txn) []ids.Txn {
	edges := s.blocked[txn]
	if len(edges) == 0 {
		return nil
	}
	out := make([]ids.Txn, len(edges))
	copy(out, edges)
	return out
}

// HeldCount returns the number of items txn currently holds.
func (s *modelServer) HeldCount(txn ids.Txn) int { return s.locks.HeldCount(txn) }

// HoldersOf returns the lock holders of item in ascending transaction
// order (test hook).
func (s *modelServer) HoldersOf(item ids.Item) []ids.Txn { return s.locks.HoldersOf(item) }

// QueueLen returns the number of queued requests on item (test hook).
func (s *modelServer) QueueLen(item ids.Item) int { return s.locks.QueueLen(item) }

// Edges returns the wait-for edge count (test hook).
func (s *modelServer) Edges() int { return s.waits.Edges() }

// Blocked reports whether txn currently has stored wait edges (test hook).
func (s *modelServer) Blocked(txn ids.Txn) bool { return len(s.blocked[txn]) > 0 }

// Causes returns the abort-cause counters accumulated so far.
func (s *modelServer) Causes() stats.AbortCauses { return s.causes }

// Validate checks the lock-table invariants (test hook).
func (s *modelServer) Validate() error { return s.locks.Validate() }
