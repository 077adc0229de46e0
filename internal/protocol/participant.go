package protocol

import (
	"maps"
	"slices"

	"repro/internal/ids"
)

// PartActionKind discriminates Participant outputs.
type PartActionKind int

const (
	// PartGrant delivers a granted item to the requesting client.
	PartGrant PartActionKind = iota
	// PartAbort notifies a local (single-shard) deadlock victim's client.
	PartAbort
	// PartBlocked reports a newly blocked transaction, with its local wait
	// edges, to the coordinator for global deadlock detection.
	PartBlocked
	// PartCleared reports that a previously reported block resolved.
	PartCleared
	// PartVote carries this shard's prepare vote to the coordinator.
	PartVote
)

// PartAction is one ordered output of a participant shard core.
type PartAction struct {
	Kind     PartActionKind
	Req      LockRequest // grant/abort: the request being answered
	Txn      ids.Txn
	Client   ids.Client // blocked: whom the coordinator notifies on victim abort
	Epoch    int        // blocked/cleared: block episode; vote: echoed coordinator epoch
	Held     int        // blocked: local items held, for victim selection
	WaitsFor []ids.Txn  // blocked: local wait edges
	Yes      bool       // vote
}

// Participant wraps one shard's LockServer for the 2PC layer: lock
// traffic passes through to the core, while blocks, clears and votes are
// surfaced for the coordinator. Local single-shard deadlocks still
// resolve locally (the core's own cycle detection); only cross-shard
// cycles need the coordinator's assembled graph.
//
// The prepared set — yes voters awaiting their decision — is the core's
// shield: set by the vote or recovery, cleared by the release. Returned
// action lists are never written again.
type Participant struct {
	shard    int
	deadlock DeadlockPolicy
	core     *LockServer
	reported map[ids.Txn]int // block epoch reported and not yet cleared
	actionSlab[PartAction]
}

// NewParticipant returns a participant for shard index shard using the
// given local deadlock victim policy and deadlock policy. Under an
// avoidance policy the participant never reports blocks: timestamp order
// is global (ids are assigned by one monotonic source), so no
// cross-shard cycle can form and the coordinator's detector has nothing
// to assemble.
func NewParticipant(shard int, policy VictimPolicy, deadlock DeadlockPolicy) *Participant {
	return &Participant{
		shard:    shard,
		deadlock: deadlock,
		core:     NewLockServer(policy, deadlock),
		reported: make(map[ids.Txn]int),
	}
}

// Shard returns this participant's shard index.
func (p *Participant) Shard() int { return p.shard }

// Request passes a lock request to the core and reports a resulting block
// to the coordinator with the local wait edges and held count — the raw
// material of global deadlock detection.
func (p *Participant) Request(q LockRequest) []PartAction {
	acts := p.relay(p.actions(), p.core.Request(q))
	if !p.deadlock.Avoidance() && p.core.Blocked(q.Txn) {
		p.reported[q.Txn] = q.Epoch
		acts = append(acts, PartAction{
			Kind:     PartBlocked,
			Txn:      q.Txn,
			Client:   q.Client,
			Epoch:    q.Epoch,
			Held:     p.core.HeldCount(q.Txn),
			WaitsFor: p.core.WaitEdges(q.Txn),
		})
	}
	return p.seal(acts)
}

// Prepare casts this shard's vote: yes iff the transaction is live and
// running free here. The vote echoes the soliciting prepare's epoch so
// the coordinator can tell its own round's answers from a dead
// incarnation's. A no vote unwinds the local state immediately — under
// presumed abort the no voter needs no decision message, so it must not
// leave locks behind for one.
func (p *Participant) Prepare(txn ids.Txn, epoch int) []PartAction {
	acts := p.actions()
	if p.Prepared(txn) || (p.core.Live(txn) && !p.core.Blocked(txn)) {
		// A yes voter is committed to the decision: under Wound-Wait it must
		// not be wounded out from under the voting round.
		p.core.Shield(txn)
		return p.seal(append(acts, PartAction{Kind: PartVote, Txn: txn, Epoch: epoch, Yes: true}))
	}
	acts = p.relay(acts, p.core.CancelBlocked(txn))
	acts = p.clearReport(acts, txn)
	acts = p.relay(acts, p.core.AbortRelease(txn))
	return p.seal(append(acts, PartAction{Kind: PartVote, Txn: txn, Epoch: epoch, Yes: false}))
}

// Involved reports whether this shard still carries state for txn — the
// driver's gate for applying a decision's effects exactly once (a
// duplicate or presumed-abort decision finds nothing and must change
// nothing).
func (p *Participant) Involved(txn ids.Txn) bool {
	return p.Prepared(txn) || p.core.Live(txn)
}

// Prepared reports whether txn has voted yes here and is awaiting the
// decision — the driver's WAL gate: the prepare record must be durable
// before the vote leaves, and a decision record is only worth logging
// for a transaction in this state.
func (p *Participant) Prepared(txn ids.Txn) bool {
	t := p.core.txns[txn]
	return t != nil && t.shielded
}

// RecoveredLock is one lock a crashed participant's WAL says a prepared
// transaction held at vote time.
type RecoveredLock struct {
	Item  ids.Item
	Write bool
}

// RecoveredTxn is one in-doubt transaction after a crash-restart: a
// logged prepare without a logged decision.
type RecoveredTxn struct {
	Txn    ids.Txn
	Client ids.Client
	Ts     ids.Txn
	Locks  []RecoveredLock
}

// PreparedSnapshot returns the durable facts a driver must log before
// emitting a yes vote: the client the outcome concerns, the priority
// timestamp, and the locks held at vote time. Read locks are included
// deliberately — an in-doubt transaction's reads must stay locked
// through recovery too, or a conflicting writer could slip between the
// vote and the decision and the committed read would be of a version
// that no longer precedes it (write skew).
func (p *Participant) PreparedSnapshot(txn ids.Txn) RecoveredTxn {
	return RecoveredTxn{
		Txn:    txn,
		Client: p.core.ClientOf(txn),
		Ts:     p.core.Ts(txn),
		Locks:  p.core.HeldLocks(txn),
	}
}

// Recover re-enters in-doubt transactions on a freshly restarted
// participant: each is adopted into the empty core with its logged locks,
// shielded, so the pending decision finds the same prepared state the
// crash destroyed. Presumed abort covers everything else — transactions
// the crash made the site forget get no votes when their prepares
// arrive, and decisions for them find nothing to apply.
// Must run before the participant sees any post-restart event.
func (p *Participant) Recover(txns []RecoveredTxn) {
	for _, r := range txns {
		p.core.Adopt(r.Txn, r.Client, r.Ts, r.Locks)
	}
}

// Decide applies the coordinator's decision: a commit releases the held
// locks in one step (strictness held through the voting round), an abort
// cancels and releases whatever remains. Both are idempotent on a
// transaction this shard no longer knows.
func (p *Participant) Decide(txn ids.Txn, commit bool) []PartAction {
	if !commit {
		return p.ClientAbort(txn)
	}
	return p.seal(p.relay(p.actions(), p.core.CommitRelease(txn)))
}

// ClientAbort unwinds a transaction the client is abandoning (a global
// deadlock victim's per-shard release): the queued request, if any, is
// cancelled and all held locks release.
func (p *Participant) ClientAbort(txn ids.Txn) []PartAction {
	acts := p.relay(p.actions(), p.core.CancelBlocked(txn))
	acts = p.clearReport(acts, txn)
	return p.seal(p.relay(acts, p.core.AbortRelease(txn)))
}

// relay converts the wrapped core's lock actions into participant
// actions, clearing block reports resolved by a grant or local abort —
// the single funnel every participant grant/abort emission routes through
// (repolint pins its callers).
func (p *Participant) relay(acts []PartAction, lockActs []LockAction) []PartAction {
	for _, a := range lockActs {
		switch a.Kind {
		case LockGrant:
			acts = p.clearReport(acts, a.Txn)
			acts = append(acts, PartAction{Kind: PartGrant, Req: a.Req, Txn: a.Txn, Client: a.Client})
		case LockAbort:
			acts = p.clearReport(acts, a.Txn)
			acts = append(acts, PartAction{Kind: PartAbort, Req: a.Req, Txn: a.Txn, Client: a.Client})
		default:
			panic("protocol: participant relaying unknown lock action")
		}
	}
	return acts
}

// clearReport emits a PartCleared for txn if its block was reported and
// not yet cleared, echoing the reported episode so the coordinator can
// reject it if a newer episode's report overtook it on another link.
func (p *Participant) clearReport(acts []PartAction, txn ids.Txn) []PartAction {
	epoch, ok := p.reported[txn]
	if !ok {
		return acts
	}
	delete(p.reported, txn)
	return append(acts, PartAction{Kind: PartCleared, Txn: txn, Epoch: epoch})
}

// PreparedTxns returns the in-doubt set — every transaction that voted
// yes here and is still awaiting its decision — in ascending id order.
// This is what the termination protocol inquires about and what a
// checkpoint record snapshots.
func (p *Participant) PreparedTxns() []ids.Txn {
	var txns []ids.Txn
	for _, txn := range slices.Sorted(maps.Keys(p.core.txns)) {
		if p.core.txns[txn].shielded {
			txns = append(txns, txn)
		}
	}
	return txns
}

// PreparedCount returns the number of in-doubt transactions.
func (p *Participant) PreparedCount() int { return p.core.nshielded }

// Resync re-emits a PartBlocked report for every block currently
// reported and not yet cleared, with fresh edges and the originally
// reported episode. A restarted coordinator lost its assembled wait-for
// graph (it is volatile by design — blocks are transient), and reports
// are sent once per episode, so without a resync a cross-shard deadlock
// formed before the crash would go undetected forever. The coordinator's
// episode filter absorbs the duplicates this creates when the original
// report is still in flight.
func (p *Participant) Resync() []PartAction {
	var acts []PartAction
	for _, txn := range slices.Sorted(maps.Keys(p.reported)) {
		if !p.core.Blocked(txn) {
			continue // cleared since; the PartCleared is already on the wire
		}
		acts = append(acts, PartAction{
			Kind:     PartBlocked,
			Txn:      txn,
			Client:   p.core.ClientOf(txn),
			Epoch:    p.reported[txn],
			Held:     p.core.HeldCount(txn),
			WaitsFor: p.core.WaitEdges(txn),
		})
	}
	return acts
}

// Quiet reports whether the wrapped core is idle and no vote is awaiting
// its decision.
func (p *Participant) Quiet() bool {
	return p.core.nshielded == 0 && p.core.Quiet()
}

// Core exposes the wrapped lock core (test hook).
func (p *Participant) Core() *LockServer { return p.core }
