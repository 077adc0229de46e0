package protocol

import (
	"testing"

	"repro/internal/ids"
)

func kinds(acts []CoordAction) []CoordActionKind {
	out := make([]CoordActionKind, len(acts))
	for i, a := range acts {
		out[i] = a.Kind
	}
	return out
}

func TestShardMapsCoverAllShards(t *testing.T) {
	for _, k := range []int{1, 2, 4, 7} {
		m := NewRangeShardMap(k, 100)
		seen := make([]bool, k)
		for i := 0; i < 100; i++ {
			s := m.Of(ids.Item(i))
			if s < 0 || s >= k {
				t.Fatalf("K=%d item %d mapped outside [0,%d): %d", k, i, k, s)
			}
			seen[s] = true
		}
		for s := 0; s < k; s++ {
			if !seen[s] {
				t.Fatalf("K=%d shard %d unused", k, s)
			}
		}
	}
}

func TestRangeShardMapContiguous(t *testing.T) {
	m := NewRangeShardMap(4, 25)
	last := 0
	for i := 0; i < 25; i++ {
		s := m.Of(ids.Item(i))
		if s < last {
			t.Fatalf("range map not monotone: item %d on shard %d after shard %d", i, s, last)
		}
		last = s
	}
	if m.Of(24) != 3 {
		t.Fatalf("remainder items must clamp to the last shard, got %d", m.Of(24))
	}
}

// A single-shard commit takes the one-phase path: decision and reply in
// one step, no prepares.
func TestCoordinatorOnePhase(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	acts := c.CommitRequest(1, 3, []int{2})
	if len(acts) != 2 || acts[0].Kind != CoordDecide || !acts[0].Commit || acts[0].Shard != 2 ||
		acts[1].Kind != CoordReply || !acts[1].Commit || acts[1].Client != 3 {
		t.Fatalf("one-phase commit actions wrong: %+v", acts)
	}
	tpc := c.Counters()
	if tpc.OnePhase != 1 || tpc.Commits != 1 || tpc.Prepares != 0 || tpc.CrossTxns != 0 {
		t.Fatalf("one-phase counters wrong: %+v", tpc)
	}
	if !c.Quiet() {
		t.Fatal("coordinator not quiet after one-phase commit")
	}
}

// A cross-shard commit runs the voting round: prepares out, all-yes votes
// back, then commit decisions to every shard plus the client reply.
func TestCoordinatorTwoPhaseCommit(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	acts := c.CommitRequest(1, 3, []int{1, 0})
	if len(acts) != 2 || acts[0].Kind != CoordPrepare || acts[0].Shard != 0 ||
		acts[1].Kind != CoordPrepare || acts[1].Shard != 1 {
		t.Fatalf("prepare round wrong (want ascending shards): %+v", acts)
	}
	if acts := c.Vote(1, 0, 0, true); len(acts) != 0 {
		t.Fatalf("first yes vote must not decide: %+v", acts)
	}
	acts = c.Vote(1, 1, 0, true)
	want := []CoordActionKind{CoordDecide, CoordDecide, CoordReply}
	got := kinds(acts)
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("all-yes decision wrong: %+v", acts)
	}
	for _, a := range acts {
		if !a.Commit {
			t.Fatalf("all-yes round must commit: %+v", a)
		}
	}
	if tpc := c.Counters(); tpc.Commits != 1 || tpc.VotesYes != 2 || tpc.Prepares != 2 || tpc.CrossTxns != 1 {
		t.Fatalf("two-phase counters wrong: %+v", tpc)
	}
	if !c.Quiet() {
		t.Fatal("coordinator not quiet after decided round")
	}
}

// A no vote aborts the round: the no voter unwound unilaterally, the
// other shards get abort decisions, the client an abort reply.
func TestCoordinatorVoteNoAborts(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	c.CommitRequest(1, 3, []int{0, 1, 2})
	acts := c.Vote(1, 1, 0, false)
	if len(acts) != 3 || acts[0].Shard != 0 || acts[1].Shard != 2 || acts[2].Kind != CoordReply {
		t.Fatalf("no-vote actions wrong: %+v", acts)
	}
	for _, a := range acts {
		if a.Commit {
			t.Fatalf("no-vote round must abort: %+v", a)
		}
	}
	// Straggler votes after the decision are dropped — the round's direct
	// abort decisions already covered every shard, and answering a stray
	// yes vote with abort could race a restarted coordinator's retried
	// round into a split decision. In-doubt voters use Inquire instead.
	if acts := c.Vote(1, 0, 0, true); len(acts) != 0 {
		t.Fatalf("late yes vote must be dropped: %+v", acts)
	}
	if acts := c.Vote(1, 2, 0, false); len(acts) != 0 {
		t.Fatalf("late no vote needs nothing: %+v", acts)
	}
	if !c.Quiet() {
		t.Fatal("coordinator not quiet after aborted round")
	}
}

// Duplicate votes and duplicate commit requests must not double-decide.
func TestCoordinatorDuplicatesIgnored(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	c.CommitRequest(1, 3, []int{0, 1})
	if acts := c.CommitRequest(1, 3, []int{0, 1}); len(acts) != 0 {
		t.Fatalf("duplicate commit request must be ignored: %+v", acts)
	}
	c.Vote(1, 0, 0, true)
	if acts := c.Vote(1, 0, 0, true); len(acts) != 0 {
		t.Fatalf("duplicate vote must be ignored: %+v", acts)
	}
	if acts := c.Vote(1, 5, 0, true); len(acts) != 0 {
		t.Fatalf("vote from a non-member shard must be ignored: %+v", acts)
	}
}

// A cross-shard cycle assembled from two shards' reports is broken by a
// victim notice, and the client's AbortDone closes the unwind.
func TestCoordinatorGlobalDeadlock(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	if acts := c.Blocked(1, 10, 0, 0, 1, []ids.Txn{2}); len(acts) != 0 {
		t.Fatalf("no cycle yet: %+v", acts)
	}
	acts := c.Blocked(2, 11, 0, 0, 1, []ids.Txn{1})
	if len(acts) != 1 || acts[0].Kind != CoordVictim || acts[0].Txn != 2 || acts[0].Client != 11 {
		t.Fatalf("victim choice wrong (requester policy): %+v", acts)
	}
	if tpc := c.Counters(); tpc.ForcedAborts != 1 {
		t.Fatalf("forced abort not counted: %+v", tpc)
	}
	c.Cleared(1, 0)
	c.AbortDone(2)
	if !c.Quiet() {
		t.Fatal("coordinator not quiet after unwind")
	}
}

// Timeout on a stalled round aborts it; every shard that might be
// prepared learns the decision.
func TestCoordinatorTimeout(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	c.CommitRequest(1, 3, []int{0, 1})
	c.Vote(1, 0, 0, true)
	acts := c.Timeout(1)
	if len(acts) != 3 || acts[0].Kind != CoordDecide || acts[0].Commit {
		t.Fatalf("timeout must abort the round: %+v", acts)
	}
	if acts := c.Timeout(1); len(acts) != 0 {
		t.Fatalf("timeout of unknown txn must be a no-op: %+v", acts)
	}
	if !c.Quiet() {
		t.Fatal("coordinator not quiet after timeout")
	}
}

// A commit request that raced a victim notice is answered with an abort
// reply and consumes the victim mark.
func TestCoordinatorVictimRace(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	c.Blocked(1, 10, 0, 0, 1, []ids.Txn{2})
	acts := c.Blocked(2, 11, 0, 0, 1, []ids.Txn{1})
	if len(acts) != 1 || acts[0].Kind != CoordVictim {
		t.Fatalf("expected victim: %+v", acts)
	}
	acts = c.CommitRequest(2, 11, []int{0, 1})
	if len(acts) != 1 || acts[0].Kind != CoordReply || acts[0].Commit {
		t.Fatalf("raced commit request must get an abort reply: %+v", acts)
	}
	c.Cleared(1, 0)
	c.AbortDone(2)
	if !c.Quiet() {
		t.Fatal("coordinator not quiet after raced unwind")
	}
}

// Block-episode epochs order cross-link report/clear races: a stale
// clear must not erase a newer episode's edges, a stale report must not
// replace them, and the matching clear still resolves.
func TestCoordinatorEpochOrdering(t *testing.T) {
	c := NewCoordinator(VictimRequester, PolicyDetect)
	// Episode 3 at shard B is the live report.
	c.Blocked(1, 10, 0, 3, 1, []ids.Txn{2})
	// Episode 1's clear from shard A arrives late: must be ignored.
	c.Cleared(1, 1)
	if c.Quiet() {
		t.Fatal("stale clear erased a live episode's edges")
	}
	// Episode 1's report arrives even later: must not replace episode 3.
	if acts := c.Blocked(1, 10, 0, 1, 2, []ids.Txn{3}); len(acts) != 0 {
		t.Fatalf("stale report produced actions: %+v", acts)
	}
	c.Cleared(1, 1) // the stale report's paired clear: no stored match
	if c.Quiet() {
		t.Fatal("stale report replaced a newer episode")
	}
	// The matching clear resolves the live episode.
	c.Cleared(1, 3)
	if !c.Quiet() {
		t.Fatal("coordinator not quiet after matching clear")
	}
}

// Participant basics: grant, vote, decide; the wrapped core's single-shard
// deadlock handling still works underneath.
func TestParticipantPrepareDecide(t *testing.T) {
	p := NewParticipant(0, VictimRequester, PolicyDetect)
	acts := p.Request(LockRequest{Txn: 1, Client: 0, Item: 5, Write: true})
	if len(acts) != 1 || acts[0].Kind != PartGrant {
		t.Fatalf("uncontended request must grant: %+v", acts)
	}
	acts = p.Prepare(1, 0)
	if len(acts) != 1 || acts[0].Kind != PartVote || !acts[0].Yes {
		t.Fatalf("prepare of a granted txn must vote yes: %+v", acts)
	}
	if !p.Involved(1) {
		t.Fatal("prepared txn must be involved")
	}
	if acts := p.Decide(1, true); len(acts) != 0 {
		t.Fatalf("commit decision with no waiters emits nothing: %+v", acts)
	}
	if p.Involved(1) {
		t.Fatal("decided txn must no longer be involved")
	}
	if !p.Quiet() {
		t.Fatal("participant not quiet after decide")
	}
}

// A blocked transaction reports its wait edges; the grant that unblocks
// it reports the clear before the grant.
func TestParticipantBlockReportAndClear(t *testing.T) {
	p := NewParticipant(0, VictimRequester, PolicyDetect)
	p.Request(LockRequest{Txn: 1, Client: 0, Item: 5, Write: true})
	acts := p.Request(LockRequest{Txn: 2, Client: 1, Item: 5, Write: true})
	if len(acts) != 1 || acts[0].Kind != PartBlocked || acts[0].Txn != 2 ||
		len(acts[0].WaitsFor) != 1 || acts[0].WaitsFor[0] != 1 {
		t.Fatalf("block report wrong: %+v", acts)
	}
	acts = p.Decide(1, true)
	if len(acts) != 2 || acts[0].Kind != PartCleared || acts[0].Txn != 2 || acts[1].Kind != PartGrant {
		t.Fatalf("clear must precede the promoting grant: %+v", acts)
	}
}

// Prepare of a transaction this shard does not hold in good standing
// votes no and unwinds locally.
func TestParticipantVoteNoUnwinds(t *testing.T) {
	p := NewParticipant(0, VictimRequester, PolicyDetect)
	acts := p.Prepare(99, 0)
	if len(acts) != 1 || acts[0].Kind != PartVote || acts[0].Yes {
		t.Fatalf("prepare of unknown txn must vote no: %+v", acts)
	}
	p.Request(LockRequest{Txn: 1, Client: 0, Item: 5, Write: true})
	p.Request(LockRequest{Txn: 2, Client: 1, Item: 5, Write: true})
	acts = p.Prepare(2, 0) // blocked, not prepared
	var vote *PartAction
	for i := range acts {
		if acts[i].Kind == PartVote {
			vote = &acts[i]
		}
	}
	if vote == nil || vote.Yes {
		t.Fatalf("prepare of a blocked txn must vote no: %+v", acts)
	}
	if p.Core().Blocked(2) || p.Core().Live(2) {
		t.Fatal("no vote must unwind the local state")
	}
}

// ClientAbort releases held locks and cancels a queued request, emitting
// the promotion grants and the clear report.
func TestParticipantClientAbort(t *testing.T) {
	p := NewParticipant(0, VictimRequester, PolicyDetect)
	p.Request(LockRequest{Txn: 1, Client: 0, Item: 5, Write: true})
	p.Request(LockRequest{Txn: 2, Client: 1, Item: 5, Write: true})
	acts := p.ClientAbort(2)
	if len(acts) != 1 || acts[0].Kind != PartCleared || acts[0].Txn != 2 {
		t.Fatalf("aborting a reported-blocked txn must clear the report: %+v", acts)
	}
	if acts := p.ClientAbort(1); len(acts) != 0 {
		t.Fatalf("aborting the holder with no waiters left emits nothing: %+v", acts)
	}
	if !p.Quiet() {
		t.Fatal("participant not quiet after aborts")
	}
	if err := p.Core().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoPCRoundAllocs pins the 2PC cores' floor: in steady state a
// recoverable two-shard round (both locks, the commit request, both
// prepares and votes, both decisions and acknowledgements) and a
// one-phase commit allocate no action list or round record of their own.
func TestTwoPCRoundAllocs(t *testing.T) {
	coord := NewCoordinator(VictimRequester, PolicyDetect)
	coord.SetRecoverable(true)
	parts := []*Participant{
		NewParticipant(0, VictimRequester, PolicyDetect),
		NewParticipant(1, VictimRequester, PolicyDetect),
	}
	txn := ids.Txn(0)
	shards := []int{1, 0}
	round := func() {
		txn++
		for s, p := range parts {
			p.Request(LockRequest{Txn: txn, Item: ids.Item(50*s + int(txn)%32), Write: true})
		}
		var decisions []CoordAction
		for _, a := range coord.CommitRequest(txn, 0, shards) {
			vote := parts[a.Shard].Prepare(txn, a.Epoch)
			decisions = coord.Vote(txn, a.Shard, vote[0].Epoch, vote[0].Yes)
		}
		for _, a := range decisions[:2] {
			parts[a.Shard].Decide(txn, a.Commit)
			coord.Acked(txn, a.Shard)
		}
	}
	onePhase := func() {
		txn++
		parts[0].Request(LockRequest{Txn: txn, Item: ids.Item(int(txn) % 32), Write: true})
		coord.CommitRequest(txn, 0, shards[1:])
		parts[0].Decide(txn, true)
		coord.Acked(txn, 0)
	}
	for _, c := range []struct {
		name string
		op   func()
	}{{"two-shard round", round}, {"one-phase commit", onePhase}} {
		// The tombstone map's amortized growth is the only allocation left.
		if n := testing.AllocsPerRun(1000, c.op); n > 0 {
			t.Errorf("%s: %v allocs, want 0", c.name, n)
		}
	}
	if !coord.Quiet() || !parts[0].Quiet() || !parts[1].Quiet() {
		t.Fatal("cores not quiet after every round was acknowledged")
	}
}
