package engine

import (
	"fmt"
	"slices"

	"repro/internal/history"
	"repro/internal/ids"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// s2pcWrite is one staged write of a sharded transaction: the value it
// installs if the commit decision lands at its shard.
type s2pcWrite struct {
	item  ids.Item
	value int64
}

// s2pcState is what a transaction carries under sharded s-2PL with a 2PC
// commit, beyond the harness's share.
type s2pcState struct {
	vals    []int64 // granted value per completed op, for bank transfers
	touched []int   // shards touched, in first-touch order
	rec     history.Committed
	// writesBy stages the per-shard writes between the commit request and
	// the decisions that install them.
	writesBy map[int][]s2pcWrite
}

type s2pcTxn = txn[s2pcState]

// touch records a shard in the transaction's participant set.
func (x *s2pcState) touch(s int) {
	if !slices.Contains(x.touched, s) {
		x.touched = append(x.touched, s)
	}
}

// shards returns the participant set in ascending order.
func (x *s2pcState) shards() []int {
	out := slices.Clone(x.touched)
	slices.Sort(out)
	return out
}

// s2pcRun adapts the sharded protocol cores — K protocol.Participant lock
// shards plus one protocol.Coordinator — to the discrete-event kernel.
// Every decision lives in the cores; this driver owns the version/value
// store and message delivery, mirroring s2plRun. Unlike the single-server
// engines it drains to quiescence after the commit target (collector.drain)
// instead of stopping mid-event, so the final store never holds half a
// distributed commit.
type s2pcRun struct {
	*harness[s2pcState]
	smap    protocol.RangeShardMap
	coord   *protocol.Coordinator
	parts   []*protocol.Participant
	version map[ids.Item]ids.Txn
	value   map[ids.Item]int64
}

func runS2PLSharded(cfg Config) (Result, error) {
	r := &s2pcRun{
		smap:    protocol.NewRangeShardMap(cfg.Shards, cfg.Workload.Items),
		coord:   protocol.NewCoordinator(cfg.Victim, cfg.Deadlock),
		version: make(map[ids.Item]ids.Txn),
		value:   make(map[ids.Item]int64),
	}
	for s := 0; s < cfg.Shards; s++ {
		r.parts = append(r.parts, protocol.NewParticipant(s, cfg.Victim, cfg.Deadlock))
	}
	if cfg.InitialBalance != 0 {
		for i := 0; i < cfg.Workload.Items; i++ {
			r.value[ids.Item(i)] = cfg.InitialBalance
		}
	}
	r.harness = newRun(cfg, "2pc", r.sendRequest, r.shardedCommit)
	r.col.drain = true
	res, err := r.finish()
	if err != nil {
		return res, err
	}
	res.TwoPC = r.coord.Counters()
	res.Causes = r.coord.Causes()
	for _, p := range r.parts {
		res.Causes.Merge(p.Core().Causes())
	}
	res.Values = r.value
	return res, nil
}

// sendRequest ships the current operation's lock request to its owning
// shard.
func (r *s2pcRun) sendRequest(t *s2pcTxn) {
	op := t.op()
	s := r.smap.Of(op.Item)
	t.x.touch(s)
	t.reqSent = r.kernel.Now()
	epoch := t.opIdx
	r.net.Send(sizeRequest, "2pc.req", func() { r.shardRequest(s, t, op, epoch) })
}

// shardRequest is one shard's request handler: the participant core
// acquires, blocks (reporting the block to the coordinator) or resolves a
// local deadlock, and this driver emits its decisions.
func (r *s2pcRun) shardRequest(s int, t *s2pcTxn, op workload.Op, epoch int) {
	r.applyPart(s, r.parts[s].Request(protocol.LockRequest{
		Txn: t.id, Client: t.client.id, Item: op.Item, Write: op.Write, Epoch: epoch, Ts: t.ts,
	}))
}

// applyPart emits a participant core's ordered decisions onto the
// simulated network — the single delivery site for sharded grants, local
// abort notices and the shard→coordinator control traffic.
func (r *s2pcRun) applyPart(s int, acts []protocol.PartAction) {
	for _, a := range acts {
		switch a.Kind {
		case protocol.PartGrant:
			t := r.active[a.Txn]
			if t == nil {
				continue // unwound while the grant was pending
			}
			r.sendPartGrant(t, workload.Op{Item: a.Req.Item, Write: a.Req.Write})
		case protocol.PartAbort:
			t := r.active[a.Txn]
			if t == nil {
				continue
			}
			// A local (single-shard) deadlock victim: same unwind contract
			// as single-server s-2PL, except the release fans out to every
			// touched shard and the coordinator learns the abort completed.
			r.kill(t)
			r.col.abortEnq++
			r.net.Send(sizeControl, "2pc.abort", func() { r.clientAbort(t) })
		case protocol.PartBlocked:
			txn, cli, epoch, held, waits := a.Txn, a.Client, a.Epoch, a.Held, a.WaitsFor
			r.net.Send(sizeControl, "2pc.blocked", func() {
				r.applyCoord(r.coord.Blocked(txn, cli, s, epoch, held, waits))
			})
		case protocol.PartCleared:
			txn, epoch := a.Txn, a.Epoch
			r.net.Send(sizeControl, "2pc.cleared", func() { r.coord.Cleared(txn, epoch) })
		case protocol.PartVote:
			txn, epoch, yes := a.Txn, a.Epoch, a.Yes
			r.net.Send(sizeControl, "2pc.vote", func() {
				r.applyCoord(r.coord.Vote(txn, s, epoch, yes))
			})
		default:
			panic(fmt.Sprintf("engine: unknown participant action kind %d", int(a.Kind)))
		}
	}
}

// sendPartGrant ships the data item (with its committed version and
// value) from its shard to the requesting client.
func (r *s2pcRun) sendPartGrant(t *s2pcTxn, op workload.Op) {
	ver, val := r.version[op.Item], r.value[op.Item]
	r.net.Send(sizeData, "2pc.grant", func() { r.clientPartGrant(t, op, ver, val) })
}

// clientPartGrant is the client's grant handler. A conservative
// coordinator victim notice can unwind the transaction mid-think (its
// stale wait edges made it look blocked) — one reason the harness's timers
// re-check liveness before acting.
func (r *s2pcRun) clientPartGrant(t *s2pcTxn, op workload.Op, ver ids.Txn, val int64) {
	if !t.live() {
		return // unwound while the grant was in flight
	}
	r.waited(t)
	t.x.vals = append(t.x.vals, val)
	r.granted(t, op, ver)
}

// shardedCommit starts the commit at the client: the writes are staged
// per shard (for a bank run, the transfer amounts derive from the granted
// balances) and the commit request goes to the coordinator, which decides
// in one phase for a single-shard transaction or runs the voting round.
// Response time stops at the outcome's arrival, not here.
func (r *s2pcRun) shardedCommit(t *s2pcTxn) {
	t.x.rec = t.record()
	t.x.writesBy = make(map[int][]s2pcWrite)
	widx := 0
	for i, op := range t.profile.Ops {
		if !op.Write {
			continue
		}
		// Non-bank runs install the writer's id as the value — a version
		// stamp; bank runs apply the transfer rule to the granted balance.
		val := int64(t.id)
		if r.cfg.Bank {
			val = workload.Transfer(t.id, widx, t.x.vals[i])
		}
		widx++
		s := r.smap.Of(op.Item)
		t.x.writesBy[s] = append(t.x.writesBy[s], s2pcWrite{item: op.Item, value: val})
	}
	shards := t.x.shards()
	r.net.Send(sizeControl+sizeData*len(t.x.rec.Writes), "2pc.commitreq", func() {
		r.applyCoord(r.coord.CommitRequest(t.id, t.client.id, shards))
	})
}

// applyCoord emits the coordinator core's ordered decisions onto the
// simulated network — the single delivery site for prepares, decisions,
// outcome replies and victim notices.
func (r *s2pcRun) applyCoord(acts []protocol.CoordAction) {
	for _, a := range acts {
		switch a.Kind {
		case protocol.CoordPrepare:
			s, txn, epoch := a.Shard, a.Txn, a.Epoch
			r.net.Send(sizeControl, "2pc.prepare", func() { r.shardPrepare(s, txn, epoch) })
		case protocol.CoordDecide:
			s, txn, commit := a.Shard, a.Txn, a.Commit
			var writes []s2pcWrite
			if commit {
				if t := r.active[txn]; t != nil {
					writes = t.x.writesBy[s]
				}
			}
			r.net.Send(sizeControl+sizeData*len(writes), "2pc.decide", func() {
				r.shardDecide(s, txn, commit, writes)
			})
		case protocol.CoordReply:
			txn, commit := a.Txn, a.Commit
			r.net.Send(sizeControl, "2pc.outcome", func() { r.clientOutcome(txn, commit) })
		case protocol.CoordVictim:
			txn := a.Txn
			r.col.abortEnq++
			r.net.Send(sizeControl, "2pc.victim", func() { r.clientVictim(txn) })
		default:
			panic(fmt.Sprintf("engine: unknown coordinator action kind %d", int(a.Kind)))
		}
	}
}

// shardPrepare delivers a prepare at its shard and routes the vote back.
func (r *s2pcRun) shardPrepare(s int, txn ids.Txn, epoch int) {
	r.applyPart(s, r.parts[s].Prepare(txn, epoch))
}

// shardDecide delivers the commit/abort decision at one shard. Commit
// writes install only while the shard still carries the transaction
// (Participant.Involved) — a duplicate or presumed-abort decision must
// change nothing.
func (r *s2pcRun) shardDecide(s int, txn ids.Txn, commit bool, writes []s2pcWrite) {
	if commit && r.parts[s].Involved(txn) {
		for _, w := range writes {
			r.version[w.item] = txn
			r.value[w.item] = w.value
		}
	}
	r.applyPart(s, r.parts[s].Decide(txn, commit))
}

// clientOutcome is the client's end of the commit: a commit outcome
// closes the transaction (response time measured to here, matching the
// single-server protocol's commit point at the client), an abort outcome
// — a commit request that raced a victim abort — unwinds it.
func (r *s2pcRun) clientOutcome(txn ids.Txn, commit bool) {
	t := r.active[txn]
	if t == nil {
		return // already unwound; the coordinator was acked elsewhere
	}
	if !commit {
		r.unwindAbort(t)
		return
	}
	delete(r.active, txn)
	r.committed(t, t.x.rec)
	r.scheduleNext(t.client)
}

// clientVictim handles the coordinator's global-deadlock victim notice.
// A notice for a transaction that already unwound (a local victim notice
// or abort reply won the race) is still acknowledged, so the
// coordinator's victim mark always clears.
func (r *s2pcRun) clientVictim(txn ids.Txn) {
	t := r.active[txn]
	if t == nil {
		r.net.Send(sizeControl, "2pc.abortdone", func() {
			r.applyCoord(r.coord.AbortDone(txn))
		})
		return
	}
	r.unwindAbort(t)
}

// clientAbort handles a shard's local victim notice.
func (r *s2pcRun) clientAbort(t *s2pcTxn) {
	r.unwindAbort(t)
}

// unwindAbort is the client's abort unwind, shared by every abort path:
// count the abort, release at every touched shard, tell the coordinator
// the unwind finished, replace the transaction after an idle period.
func (r *s2pcRun) unwindAbort(t *s2pcTxn) {
	delete(r.active, t.id)
	r.aborted(t)
	for _, s := range t.x.shards() {
		r.net.Send(sizeControl, "2pc.abortrel", func() { r.shardAbortRelease(s, t.id) })
	}
	r.net.Send(sizeControl, "2pc.abortdone", func() {
		r.applyCoord(r.coord.AbortDone(t.id))
	})
	r.scheduleNext(t.client)
}

// shardAbortRelease delivers one shard's share of a client-side abort
// unwind.
func (r *s2pcRun) shardAbortRelease(s int, txn ids.Txn) {
	r.applyPart(s, r.parts[s].ClientAbort(txn))
}
