package protocol

import (
	"maps"
	"slices"

	"repro/internal/ids"
	"repro/internal/stats"
	"repro/internal/wfg"
)

// CoordActionKind discriminates Coordinator outputs.
type CoordActionKind int

const (
	// CoordPrepare asks one participant shard to vote on a transaction.
	CoordPrepare CoordActionKind = iota
	// CoordDecide delivers the global commit/abort decision to one shard.
	CoordDecide
	// CoordReply reports the final outcome to the requesting client.
	CoordReply
	// CoordVictim notifies a client that its blocked transaction was chosen
	// as a global deadlock victim; the client unwinds with per-shard abort
	// releases and a final AbortDone.
	CoordVictim
)

// CoordAction is one ordered output of the coordinator core.
type CoordAction struct {
	Kind   CoordActionKind
	Txn    ids.Txn
	Shard  int        // destination shard for Prepare/Decide
	Client ids.Client // destination client for Reply/Victim
	Commit bool       // the decision, for Decide/Reply
	Epoch  int        // prepare: the coordinator epoch the vote must echo
}

// coordTxn is everything the coordinator knows about one live
// transaction. Each flag is one fact's lifetime, and the record lives
// while any of them holds: blocked (a block report is stored), voting
// (the voting round is underway), victim (a global deadlock victim
// awaiting its AbortDone) and unacked (a decided commit some shard has
// not acknowledged — in recoverable mode the only state kept after
// deciding, and the only state worth making durable). A transaction is
// never voting and unacked at once, so both phases share the shards.
type coordTxn struct {
	blocked, voting, victim, unacked bool

	id                 ids.Txn
	client             ids.Client // whom a victim notice or the outcome reply goes to
	shard, epoch, held int        // blocked: reporting shard, block episode, items held
	edges              []ids.Txn  // blocked: edges charged to the global graph
	shards             []int      // voting/unacked: participant shards, ascending
	marks              []bool     // voting/unacked: per shard, voted or acked
}

// setShards loads a round's participant shards, ascending and distinct,
// into the record's own storage, every mark cleared.
func (t *coordTxn) setShards(shards []int) {
	t.shards = append(t.shards[:0], shards...)
	slices.Sort(t.shards)
	t.shards = slices.Compact(t.shards)
	t.marks = slices.Grow(t.marks[:0], len(t.shards))[:len(t.shards)]
	clear(t.marks)
}

// mark sets shard's mark and reports whether it was a member of the round
// not marked before.
func (t *coordTxn) mark(shard int) bool {
	i, ok := slices.BinarySearch(t.shards, shard)
	if !ok || t.marks[i] {
		return false
	}
	t.marks[i] = true
	return true
}

// Coordinator is the 2PC commit coordinator as a pure state machine:
// block/clear reports, commit requests, votes and abort completions come
// in; prepares, decisions, replies and victim notices come out, in order.
//
// The protocol is presumed-abort: the coordinator keeps no state for a
// decided transaction, so a vote arriving for an unknown transaction is
// answered with an abort decision (if it was a yes — the participant is
// prepared and waiting) or ignored (a no voter already unwound locally).
// No transport guarantee beyond per-link FIFO is needed: duplicates and
// stale messages land on missing entries and resolve to abort, never to
// a second, conflicting decision.
//
// Deadlock detection is global: participants report blocked transactions
// with their local wait-for edges, the coordinator assembles them into
// one graph and breaks cycles with the shared ChooseVictim policy. The
// assembled graph is conservative — cross-link timing can leave stale
// edges visible after a local grant — so a detected cycle may be
// spurious (an extra abort), but never invisible. Per-link FIFO alone
// does not guarantee that: a transaction blocks at most at one shard at
// a time (its operations are sequential), but the clear from shard A and
// the next block report from shard B travel different links, so the
// coordinator can see them in either order. Each report therefore
// carries its block episode — the transaction's operation index, which
// is globally monotone — and the coordinator ignores any report or clear
// older than the episode it currently stores for that transaction.
// Without the epochs, a late clear from A would silently drop B's live
// edges and a real deadlock could go undetected forever. A stale report
// can still land after its episode was forgotten (transient spurious
// edges), but per-link FIFO guarantees its paired clear follows on the
// same link, so it always resolves.
//
// Every live fact about a transaction sits in one recycled record; only
// the tombstones outlive it. Returned action lists are never written again.
type Coordinator struct {
	policy   VictimPolicy
	deadlock DeadlockPolicy
	waits    *wfg.Graph
	txns     map[ids.Txn]*coordTxn
	free     []*coordTxn // recycled records: no flag set, slices emptied
	cycle    []ids.Txn   // Blocked scratch: the deadlock cycle found
	// alwaysPrepare forces a voting round even for single-shard
	// transactions. One-phase commit is a pure latency win on a reliable
	// cluster, but it is not crash-durable: an acknowledged commit whose
	// decision is still in flight to a crashing shard vanishes — the
	// restarted site has no prepared (WAL-logged) state to pin the
	// install on, and presumed abort makes it skip the writes. Drivers
	// running crash faults set this.
	alwaysPrepare bool
	// ended tombstones finished transactions (replied rounds and completed
	// abort unwinds). Transaction ids are never reused, so a block report
	// arriving for an ended transaction is necessarily stale — the
	// signature case is a report from a shard that crash-restarted before
	// sending the paired clear, arriving after the client's AbortDone.
	// Without the tombstone that report would sit in the blocked set
	// forever (no clear is coming from a site that forgot it sent the
	// report) and the coordinator could even victim the dead transaction,
	// leaving a victim mark no AbortDone will ever close. The value marks
	// a presumed abort, finalized by the termination protocol: an inquiry
	// arrived for a round this incarnation has no record of, so abort was
	// promised to the inquirer and is now irrevocable. A client retrying
	// that round's commit request (its original died with the crashed
	// incarnation) must learn the same verdict — opening a fresh voting
	// round instead could commit, contradicting the promise. Tombstones
	// are terminal state, not part of quiescence.
	ended map[ids.Txn]bool
	// epoch is this coordinator incarnation's number, stamped on every
	// prepare and echoed by the vote it solicits. A vote from another
	// epoch is dropped: after a crash, yes votes solicited by a dead
	// incarnation can sit queued on the shard links, and a retried round
	// that counted them could commit while the participant that cast them
	// has since been aborted by a termination-protocol answer from an
	// incarnation in between. Epoch matching restricts a round to votes
	// its own prepares solicited, which reflect live prepared state. The
	// driver bumps this on every restart via SetEpoch.
	epoch int
	// recoverable turns on commit-round tracking for crash recovery and the
	// termination protocol: every commit decision keeps the round unacked
	// until all its shards acknowledge the decision, so Inquire can
	// re-answer it and Recover can re-drive it after a restart. Off by
	// default — the DES engines and clean live runs keep the classic
	// stateless presumed-abort coordinator, byte-identical to before.
	recoverable bool
	tpc         stats.TwoPC
	causes      stats.AbortCauses
	actionSlab[CoordAction]
}

// NewCoordinator returns an empty commit coordinator using the given
// global deadlock victim policy and deadlock policy. Under an avoidance
// policy the participants never send block reports and the global
// detector stands down (Blocked becomes a no-op): timestamp order is
// global, so cross-shard cycles cannot form.
func NewCoordinator(policy VictimPolicy, deadlock DeadlockPolicy) *Coordinator {
	return &Coordinator{
		policy:   policy,
		deadlock: deadlock,
		waits:    wfg.New(),
		txns:     make(map[ids.Txn]*coordTxn),
		ended:    make(map[ids.Txn]bool),
	}
}

// record returns txn's record, taking a recycled one if it has none.
func (c *Coordinator) record(txn ids.Txn) *coordTxn {
	t := c.txns[txn]
	if t == nil {
		if n := len(c.free); n > 0 {
			t, c.free = c.free[n-1], c.free[:n-1]
		} else {
			t = &coordTxn{}
		}
		t.id = txn
		c.txns[txn] = t
	}
	return t
}

// settle recycles t once no fact about it holds any more.
func (c *Coordinator) settle(t *coordTxn) {
	if t.blocked || t.voting || t.victim || t.unacked {
		return
	}
	delete(c.txns, t.id)
	*t = coordTxn{edges: t.edges[:0], shards: t.shards[:0], marks: t.marks[:0]}
	c.free = append(c.free, t)
}

// end tombstones txn, keeping a presumed-abort mark it already has.
func (c *Coordinator) end(txn ids.Txn) { c.ended[txn] = c.ended[txn] }

// SetRecoverable turns on commit-round tracking (see the recoverable
// field). Call before the first CommitRequest; drivers that log commit
// decisions to a coordinator WAL set this so acknowledged rounds can be
// forgotten and in-doubt inquiries answered.
func (c *Coordinator) SetRecoverable(v bool) { c.recoverable = v }

// SetEpoch sets this incarnation's epoch (see the epoch field). Call
// before the first CommitRequest; a restarting driver passes a number it
// has never used for this coordinator position.
func (c *Coordinator) SetEpoch(epoch int) { c.epoch = epoch }

// Blocked ingests a participant's report that txn is waiting behind
// waitsFor at shard, then hunts for global deadlock cycles through it. A
// report for a transaction already voting or already victimed is stale
// and ignored; a repeat report replaces the stored edges. The reporting
// shard is remembered so ShardRestarted can purge reports a crashed
// shard will never retract.
func (c *Coordinator) Blocked(txn ids.Txn, client ids.Client, shard, epoch, held int, waitsFor []ids.Txn) []CoordAction {
	if c.deadlock.Avoidance() {
		return nil // avoidance: no global graph, nothing to assemble
	}
	if t := c.txns[txn]; c.Done(txn) || t != nil && (t.voting || t.victim || t.blocked && t.epoch >= epoch) {
		return nil // stale, or a newer episode's report won the cross-link race
	}
	t := c.record(txn)
	c.unblock(t)
	t.client, t.shard, t.epoch, t.held = client, shard, epoch, held
	t.edges = append(t.edges[:0], waitsFor...)
	t.blocked = true
	for _, w := range t.edges {
		c.waits.AddEdge(txn, w)
	}
	acts := c.actions()
	for {
		c.cycle = c.waits.AppendCycle(c.cycle[:0], txn)
		if len(c.cycle) == 0 {
			return c.seal(acts)
		}
		victim := ChooseVictim(c.policy, c.cycle, txn, held, c.victimInfo)
		acts = c.forceAbort(c.record(victim), acts)
	}
}

// victimInfo is the coordinator's liveness rule: only a transaction that
// is currently reported blocked — and not already voting or victimed —
// may be chosen over the fallback requester.
func (c *Coordinator) victimInfo(id ids.Txn) (alive bool, held int) {
	t := c.txns[id]
	if t == nil || !t.blocked || t.voting || t.victim || c.Done(id) {
		return false, 0
	}
	return true, t.held
}

// forceAbort records a global deadlock victim: its edges leave the graph
// immediately (breaking the cycle), the victim notice goes to its client,
// and the victim mark holds until the client's AbortDone closes the
// unwind.
func (c *Coordinator) forceAbort(t *coordTxn, acts []CoordAction) []CoordAction {
	act := CoordAction{Kind: CoordVictim, Txn: t.id}
	if t.blocked {
		act.Client = t.client
	}
	c.unblock(t)
	t.victim = true
	c.tpc.ForcedAborts++
	c.causes.Deadlock++
	return append(acts, act)
}

// Cleared drops a transaction's stored wait edges after a participant
// reports its local block resolved. Only the clear matching the stored
// episode may drop them: a slower link can deliver an old episode's
// clear after a newer episode's report, and honoring it would erase live
// edges — hiding a real deadlock.
func (c *Coordinator) Cleared(txn ids.Txn, epoch int) {
	t := c.txns[txn]
	if t == nil || !t.blocked || t.epoch != epoch {
		return
	}
	c.unblock(t)
	c.settle(t)
}

// unblock removes t's stored edges from the global graph and drops its
// block report.
func (c *Coordinator) unblock(t *coordTxn) {
	if !t.blocked {
		return
	}
	for _, w := range t.edges {
		c.waits.RemoveEdge(t.id, w)
	}
	t.edges = t.edges[:0]
	t.blocked = false
}

// CommitRequest starts the commit of a fully-granted transaction touching
// the given shards, in any order. A single-shard transaction commits in
// one phase — the decision ships with the request's reply and no vote is
// collected — unless alwaysPrepare is set; a cross-shard transaction
// enters its voting round. A request racing a victim abort is answered
// with an abort reply, which the client (already unwinding) ignores.
func (c *Coordinator) CommitRequest(txn ids.Txn, client ids.Client, shards []int) []CoordAction {
	if t := c.txns[txn]; t != nil && t.voting {
		return nil // duplicate request; the voting round is underway
	}
	if presumed, ok := c.ended[txn]; ok {
		if presumed {
			// The round died with a crashed incarnation and the termination
			// protocol already promised abort to an inquiring shard; the
			// retried request gets that verdict, never a fresh round.
			c.tpc.Txns++
			c.tpc.Aborts++
			return c.seal(c.decide(c.actions(), txn, nil, false, client, true))
		}
		// A re-sent request for an already-decided round (a client retrying
		// across a coordinator restart whose original request was decided
		// before the crash). The decision and its reply were emitted
		// atomically with the durable commit record — the reply is already
		// on the wire — so answering again would double-count the outcome.
		return nil
	}
	t := c.record(txn)
	t.setShards(shards)
	c.tpc.Txns++
	if len(t.shards) > 1 {
		c.tpc.CrossTxns++
	}
	acts := c.actions()
	switch {
	case t.victim:
		t.victim = false
		c.tpc.Aborts++
		acts = c.decide(acts, txn, nil, false, client, true)
	case len(t.shards) == 1 && !c.alwaysPrepare:
		c.tpc.OnePhase++
		c.tpc.Commits++
		acts = c.decide(acts, txn, t.shards, true, client, true)
	default:
		t.voting, t.client = true, client
		for _, s := range t.shards {
			c.tpc.Prepares++
			acts = append(acts, CoordAction{Kind: CoordPrepare, Txn: txn, Shard: s, Epoch: c.epoch})
		}
	}
	c.settle(t)
	return c.seal(acts)
}

// Vote ingests one participant's vote, solicited by a prepare stamped
// with the given epoch. A vote from another incarnation's epoch is
// dropped — only answers to this round's own prepares reflect live
// prepared state (see the epoch field for the split-decision scenario
// stale votes enable). A vote for an unknown transaction is dropped too:
// every way a round ends (commit, no-vote, timeout, AbortDone) sends
// direct decisions to all its shards, so the voter is not owed an answer
// here. A prepared voter whose round truly vanished resolves through the
// termination protocol (Inquire), the one channel that answers from
// durable state.
func (c *Coordinator) Vote(txn ids.Txn, shard, epoch int, yes bool) []CoordAction {
	if epoch != c.epoch {
		return nil
	}
	t := c.txns[txn]
	if t == nil || !t.voting || !t.mark(shard) {
		return nil
	}
	acts := c.actions()
	if !yes {
		c.tpc.VotesNo++
		c.tpc.Aborts++
		t.voting = false
		// The no voter aborted unilaterally; the others get the decision.
		t.shards = slices.DeleteFunc(t.shards, func(s int) bool { return s == shard })
		acts = c.decide(acts, txn, t.shards, false, t.client, true)
	} else {
		c.tpc.VotesYes++
		if slices.Contains(t.marks, false) {
			return nil
		}
		c.tpc.Commits++
		t.voting = false
		acts = c.decide(acts, txn, t.shards, true, t.client, true)
	}
	c.settle(t)
	return c.seal(acts)
}

// AbortDone closes a victim's unwind: the client has sent its per-shard
// abort releases, so the victim mark and any stale block state drop. If
// a commit request crossed the victim notice in flight, its voting round
// dies here with abort decisions to its shards — the client is already
// gone, so no reply is sent.
func (c *Coordinator) AbortDone(txn ids.Txn) []CoordAction {
	c.end(txn)
	t := c.txns[txn]
	if t == nil {
		return nil
	}
	c.unblock(t)
	t.victim = false
	acts := c.actions()
	if t.voting {
		t.voting = false
		c.tpc.Aborts++
		acts = c.decide(acts, txn, t.shards, false, 0, false)
	}
	c.settle(t)
	return c.seal(acts)
}

// Timeout aborts a stalled voting round (a participant that will never
// vote). Participants that voted yes learn the abort decision; the client
// gets an abort reply. Unknown transactions are a no-op — presumed abort
// covers any straggler votes.
func (c *Coordinator) Timeout(txn ids.Txn) []CoordAction {
	t := c.txns[txn]
	if t == nil || !t.voting {
		return nil
	}
	t.voting = false
	c.tpc.Aborts++
	c.causes.Timeout++
	acts := c.decide(c.actions(), txn, t.shards, false, t.client, true)
	c.settle(t)
	return c.seal(acts)
}

// decide emits a decision: one CoordDecide per listed shard (ascending)
// plus, when reply is set, the client's CoordReply — the single funnel
// every coordinator decision routes through (repolint pins its callers).
func (c *Coordinator) decide(acts []CoordAction, txn ids.Txn, shards []int, commit bool, client ids.Client, reply bool) []CoordAction {
	if reply {
		// The round is over for this transaction; tombstone it so stale
		// block reports (a crashed shard's unretracted report) bounce.
		c.end(txn)
		if c.recoverable && commit {
			// A freshly decided commit: track the round until every shard
			// acknowledges the decision, so inquiries can be re-answered
			// from state rather than wrongly presumed abort.
			t := c.record(txn)
			t.setShards(shards)
			t.unacked = true
		}
	}
	for _, s := range shards {
		acts = append(acts, CoordAction{Kind: CoordDecide, Txn: txn, Shard: s, Commit: commit})
	}
	if reply {
		acts = append(acts, CoordAction{Kind: CoordReply, Txn: txn, Client: client, Commit: commit})
	}
	return acts
}

// Acked records one shard's acknowledgment of a commit decision. Once
// every shard in the round has acknowledged, the round is forgotten —
// the driver may then truncate its durable commit record, because no
// inquiry about it can ever arrive again (the inquirer's prepared state
// resolved when it applied the decision it is now acknowledging). It
// reports whether this acknowledgment forgot the round. Acknowledgments
// for unknown rounds (already forgotten, or a replay resurrecting a
// pre-crash ack) and from shards outside the round are no-ops.
func (c *Coordinator) Acked(txn ids.Txn, shard int) bool {
	t := c.txns[txn]
	if t == nil || !t.unacked || !t.mark(shard) || slices.Contains(t.marks, false) {
		return false
	}
	t.unacked = false
	c.settle(t)
	return true
}

// Unacked reports whether txn is a decided commit round some shard has
// not acknowledged yet (recoverable mode only) — the rounds a driver's
// durable commit log must keep.
func (c *Coordinator) Unacked(txn ids.Txn) bool {
	t := c.txns[txn]
	return t != nil && t.unacked
}

// Inquire answers a prepared participant's termination-protocol inquiry
// about txn. If the voting round is still underway there is nothing to
// say — the decision will arrive on its own. If the round committed and
// is still tracked, the commit decision is re-sent to the inquiring
// shard. Everything else is presumed abort: either the round aborted
// (never logged, by design), or it committed and was fully acknowledged —
// in which case the inquirer's prepared state already resolved and this
// inquiry is a stale duplicate whose abort answer finds nothing to apply.
func (c *Coordinator) Inquire(txn ids.Txn, shard int) []CoordAction {
	if t := c.txns[txn]; t != nil && t.voting {
		return nil
	}
	if c.Unacked(txn) {
		return c.seal(c.decide(c.actions(), txn, []int{shard}, true, 0, false))
	}
	if !c.Done(txn) {
		// A round this incarnation has never heard of: presuming abort
		// here makes the abort irrevocable, so finalize it. Without the
		// tombstone, a retried commit request for the same round could
		// open a fresh voting round, collect the inquirer's stale queued
		// yes votes, and commit while this abort answer is still in
		// flight to the inquirer — a split decision.
		c.ended[txn] = true
	}
	return c.seal(c.decide(c.actions(), txn, []int{shard}, false, 0, false))
}

// RecoveredRound is one decided-but-unacknowledged commit round a
// restarted coordinator's WAL replay produced. Shards may come in any
// order, as the round's commit request listed them.
type RecoveredRound struct {
	Txn    ids.Txn
	Client ids.Client
	Shards []int
}

// Recover re-enters decided commit rounds on a freshly restarted
// coordinator: each is tombstoned (so a retried commit request is not
// answered twice), re-tracked as unacked, and its commit decisions
// re-sent to every shard in ascending order — the decisions, not the
// replies: the original reply left atomically with the durable commit
// record, and presumed abort covers every round the log does not
// mention. Must run before the coordinator sees any post-restart event.
func (c *Coordinator) Recover(rounds []RecoveredRound) []CoordAction {
	acts := c.actions()
	for _, r := range rounds {
		c.end(r.Txn)
		t := c.record(r.Txn)
		t.setShards(r.Shards)
		acts = c.decide(acts, r.Txn, t.shards, true, 0, false)
		t.unacked = c.recoverable
		c.settle(t)
	}
	return c.seal(acts)
}

// ShardRestarted purges every block report the given shard filed: a
// crash-restarted shard forgot it sent them, so no paired clear is ever
// coming, and the stale edges would jam the global graph (and the
// coordinator's quiescence) forever. Per-link FIFO guarantees any report
// the shard sent before crashing arrives before its restart notice, so
// the purge cannot race a live report into oblivion.
func (c *Coordinator) ShardRestarted(shard int) {
	for _, txn := range slices.Sorted(maps.Keys(c.txns)) {
		if t := c.txns[txn]; t.blocked && t.shard == shard {
			c.unblock(t)
			c.settle(t)
		}
	}
}

// SetAlwaysPrepare forces voting rounds for single-shard transactions
// (see the alwaysPrepare field: one-phase commit is not crash-durable).
// Call before the first CommitRequest.
func (c *Coordinator) SetAlwaysPrepare(v bool) { c.alwaysPrepare = v }

// Quiet reports whether no voting round, block report, victim unwind or
// (in recoverable mode) unacknowledged commit decision is in flight —
// no record is left — the live cluster's coordinator quiescence
// condition.
func (c *Coordinator) Quiet() bool {
	return len(c.txns) == 0 && c.waits.Edges() == 0
}

// Done reports whether txn's round concluded (replied, or its victim
// unwind completed) — the driver's filter for client retries of decided
// rounds across a coordinator restart.
func (c *Coordinator) Done(txn ids.Txn) bool {
	_, ok := c.ended[txn]
	return ok
}

// Counters returns the accumulated 2PC phase counters.
func (c *Coordinator) Counters() stats.TwoPC { return c.tpc }

// Causes returns the coordinator's abort-cause counters (global deadlock
// victims and timed-out voting rounds).
func (c *Coordinator) Causes() stats.AbortCauses { return c.causes }
