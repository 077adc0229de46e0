package protocol

import (
	"testing"

	"repro/internal/ids"
)

// The termination protocol and coordinator crash-recovery at the pure
// core (DESIGN.md §16): in-doubt shards inquire, the coordinator answers
// from tracked commit rounds or presumes abort — irrevocably — and a
// restarted coordinator re-drives its logged rounds.

// An inquiry while the voting round is still underway says nothing; once
// the round commits, a (duplicate) inquiry is re-answered with the
// commit decision for just the inquiring shard.
func TestInquirePendingThenCommitted(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	c.SetRecoverable(true)
	c.CommitRequest(1, 3, []int{0, 1})
	c.Vote(1, 0, 0, true)
	if acts := c.Inquire(1, 0); len(acts) != 0 {
		t.Fatalf("inquiry during a pending round must wait: %+v", acts)
	}
	c.Vote(1, 1, 0, true) // round commits
	acts := c.Inquire(1, 1)
	if len(acts) != 1 || acts[0].Kind != CoordDecide || !acts[0].Commit || acts[0].Shard != 1 {
		t.Fatalf("inquiry after commit must re-send the commit decision: %+v", acts)
	}
	// Idempotent: the same inquiry again gets the same answer.
	acts = c.Inquire(1, 1)
	if len(acts) != 1 || !acts[0].Commit {
		t.Fatalf("duplicate inquiry must be re-answered identically: %+v", acts)
	}
}

// An inquiry about a round the coordinator has no record of is presumed
// abort — and that abort is final: a commit request for the same
// transaction arriving later (the client retrying across a restart) is
// answered with an abort reply, never a fresh voting round that could
// contradict the promise already on the wire.
func TestInquireUnknownPresumesAbortIrrevocably(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	c.SetRecoverable(true)
	acts := c.Inquire(7, 2)
	if len(acts) != 1 || acts[0].Kind != CoordDecide || acts[0].Commit || acts[0].Shard != 2 {
		t.Fatalf("unknown round must presume abort to the inquirer: %+v", acts)
	}
	acts = c.CommitRequest(7, 4, []int{0, 2})
	if len(acts) != 1 || acts[0].Kind != CoordReply || acts[0].Commit || acts[0].Client != 4 {
		t.Fatalf("retried request after presumed abort must get an abort reply: %+v", acts)
	}
	if !c.Quiet() {
		t.Fatal("coordinator not quiet after presumed abort")
	}
}

// Once every shard acknowledged a commit decision the round is forgotten
// (the log-truncation point); a straggling duplicate inquiry is then
// presumed abort — safe, because the inquirer's prepared state already
// resolved to produce its ack, so the abort answer finds nothing.
func TestInquireAfterFullAckPresumesAbort(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	c.SetRecoverable(true)
	c.CommitRequest(1, 3, []int{0, 1})
	c.Vote(1, 0, 0, true)
	c.Vote(1, 1, 0, true)
	c.Acked(1, 0)
	if c.Quiet() {
		t.Fatal("round must stay tracked until every shard acks")
	}
	c.Acked(1, 1)
	c.Acked(1, 1) // duplicate acks are no-ops
	if !c.Quiet() {
		t.Fatal("fully-acked round must be forgotten")
	}
	acts := c.Inquire(1, 0)
	if len(acts) != 1 || acts[0].Commit {
		t.Fatalf("inquiry after truncation must presume abort: %+v", acts)
	}
}

// Recover re-enters logged rounds: commit decisions are re-sent to every
// shard, a retried commit request is absorbed by the tombstone (its
// reply left before the crash), and collecting the acks drains the
// coordinator to quiet.
func TestRecoverRedrivesLoggedRounds(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	c.SetRecoverable(true)
	c.SetEpoch(1)
	acts := c.Recover([]RecoveredRound{
		{Txn: 5, Client: 2, Shards: []int{0, 2}},
		{Txn: 9, Client: 4, Shards: []int{1}},
	})
	if len(acts) != 3 {
		t.Fatalf("recovery must re-send every logged decision: %+v", acts)
	}
	for _, a := range acts {
		if a.Kind != CoordDecide || !a.Commit {
			t.Fatalf("recovered rounds re-decide commit, never reply: %+v", a)
		}
	}
	if !c.Done(5) || !c.Done(9) {
		t.Fatal("recovered rounds must be tombstoned done")
	}
	if acts := c.CommitRequest(5, 2, []int{0, 2}); len(acts) != 0 {
		t.Fatalf("retried request for a recovered round must be absorbed: %+v", acts)
	}
	c.Acked(5, 0)
	c.Acked(5, 2)
	c.Acked(9, 1)
	if !c.Quiet() {
		t.Fatal("coordinator not quiet once recovered rounds are acked")
	}
}

// A recovered round collects its acknowledgments afresh in the core: it
// is forgotten only once every one of its shards acked, whatever order
// the log listed them in, and acks from outside the round or repeated
// acks do not count.
func TestRecoveredRoundForgottenAfterEveryAck(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	c.SetRecoverable(true)
	acts := c.Recover([]RecoveredRound{{Txn: 5, Client: 2, Shards: []int{2, 0}}})
	if len(acts) != 2 || acts[0].Shard != 0 || acts[1].Shard != 2 {
		t.Fatalf("recovery must re-decide every shard in ascending order: %+v", acts)
	}
	for _, shard := range []int{2, 2, 1} { // an ack, its repeat, and one from outside the round
		if c.Acked(5, shard) || !c.Unacked(5) {
			t.Fatalf("round forgotten on shard %d's ack, before shard 0 acked", shard)
		}
	}
	if !c.Acked(5, 0) || c.Unacked(5) || !c.Quiet() {
		t.Fatal("the last shard's ack must forget the round")
	}
	if c.Acked(5, 0) {
		t.Fatal("an ack for a forgotten round must be a no-op")
	}
}

// A vote stamped with another incarnation's epoch is dropped: only
// answers to this round's own prepares count, so a retried round cannot
// commit off votes a dead incarnation solicited. This is the fuzz-found
// split-decision scenario pinned as a table test.
func TestVoteEpochMismatchDropped(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	c.SetRecoverable(true)
	c.SetEpoch(2)
	acts := c.CommitRequest(1, 3, []int{0, 1})
	for _, a := range acts {
		if a.Kind != CoordPrepare || a.Epoch != 2 {
			t.Fatalf("prepares must carry the incarnation epoch: %+v", a)
		}
	}
	if acts := c.Vote(1, 0, 1, true); len(acts) != 0 {
		t.Fatalf("stale-epoch vote must be dropped: %+v", acts)
	}
	if acts := c.Vote(1, 1, 1, true); len(acts) != 0 {
		t.Fatalf("stale-epoch vote must be dropped: %+v", acts)
	}
	c.Vote(1, 0, 2, true)
	acts = c.Vote(1, 1, 2, true)
	if len(acts) != 3 || !acts[0].Commit {
		t.Fatalf("current-epoch votes must decide the round: %+v", acts)
	}
}

// ShardRestarted purges exactly the restarted shard's block reports: no
// clear is ever coming from a site that forgot it sent them, while other
// shards' reports must survive the purge.
func TestShardRestartedPurgesOnlyItsReports(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	c.Blocked(1, 10, 0, 0, 1, []ids.Txn{2})
	c.Blocked(3, 12, 1, 0, 1, []ids.Txn{4})
	c.ShardRestarted(0)
	if c.Quiet() {
		t.Fatal("shard 1's report must survive shard 0's restart purge")
	}
	c.Cleared(3, 0)
	if !c.Quiet() {
		t.Fatal("coordinator not quiet after the surviving report cleared")
	}
}

// Resync re-files only still-blocked reports with their original
// episodes, so the restarted coordinator's episode filter can absorb
// duplicates when the original report is still in flight.
func TestParticipantResync(t *testing.T) {
	p := NewParticipant(0, VictimRequester, PolicyDetect)
	p.Request(LockRequest{Txn: 1, Client: 10, Item: 5, Write: true, Epoch: 0})
	acts := p.Request(LockRequest{Txn: 2, Client: 11, Item: 5, Write: true, Epoch: 3})
	if len(acts) != 1 || acts[0].Kind != PartBlocked {
		t.Fatalf("expected a block report: %+v", acts)
	}
	re := p.Resync()
	if len(re) != 1 || re[0].Kind != PartBlocked || re[0].Txn != 2 || re[0].Epoch != 3 {
		t.Fatalf("resync must re-file the live report with its episode: %+v", re)
	}
	p.ClientAbort(2)
	if re := p.Resync(); len(re) != 0 {
		t.Fatalf("resync after the block resolved must re-file nothing: %+v", re)
	}
	p.ClientAbort(1)
}
