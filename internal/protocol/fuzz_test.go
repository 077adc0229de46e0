package protocol

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ids"
)

// The 2PC fuzz harness models the smallest cluster with interesting
// cross-shard structure: three participant shards owning two items each
// (range map: items 2s and 2s+1 on shard s) and six scripted all-write
// transactions whose item lists collide pairwise in opposite orders, so
// both local and cross-shard deadlocks arise depending on interleaving.
//
// Messages travel over per-link FIFO queues — the only guarantee the
// live transport's ARQ gives the protocol layer. Fuzz bytes choose which
// link delivers next, inject duplicate deliveries on the coordinator-
// facing links (the 2PC layer must be dup-tolerant by presumed-abort
// design), fire coordinator timeouts at random transactions, crash the
// coordinator mid-script (volatile state dies; the modeled commit log
// survives and Recover re-drives it, with clients retrying unresolved
// commit requests and participants re-filing block reports), and fire
// termination-protocol inquiries from prepared shards. The invariants
// checked after a deterministic drain are the atomicity core of the
// tentpole: no transaction applies commit at one shard and abort at
// another — across any number of coordinator incarnations — an applied
// commit is applied at every participant shard, the client-visible
// outcome matches the applied decisions, and all cores quiesce.

const (
	fzShards = 3
	fzItems  = 6
)

// fzScript is the item list of each scripted transaction (all writes).
// Txn i+1 runs script i from client i.
var fzScript = [][]int{
	{0, 2},    // shards 0,1
	{2, 0},    // reverse of the above: cross-shard deadlock bait
	{4, 1},    // shards 2,0
	{1, 4},    // reverse
	{3, 5},    // shards 1,2
	{5, 3, 0}, // reverse, plus shard 0: three-party cycles possible
}

// Message kinds for the fuzz links.
const (
	fzReq = iota // client -> shard: lock request
	fzClientAbort
	fzGrant // shard -> client
	fzLocalAbort
	fzBlocked // shard -> coordinator
	fzCleared
	fzVote
	fzPrepare // coordinator -> shard
	fzDecide
	fzCommitReq // client -> coordinator
	fzAbortDone
	fzReply // coordinator -> client
	fzVictim
	fzInquire // shard -> coordinator: termination-protocol inquiry
	fzAck     // shard -> coordinator: commit-decision acknowledgment
)

type fzMsg struct {
	kind   int
	txn    ids.Txn
	shard  int
	item   ids.Item
	epoch  int
	commit bool
	yes    bool
	client ids.Client
	held   int
	waits  []ids.Txn
	shards []int
}

// Link layout: 0..2 client->shard, 3..5 shard->client, 6..8
// shard->coordinator, 9..11 coordinator->shard, 12 client->coordinator,
// 13 coordinator->client. Links 6..13 carry the 2PC layer and accept
// duplicate deliveries; the lock links (0..5) ride exactly-once ARQ in
// the live system and stay exactly-once here.
const (
	fzC2S      = 0
	fzS2C      = 3
	fzS2Co     = 6
	fzCo2S     = 9
	fzC2Co     = 12
	fzCo2C     = 13
	fzNumLinks = 14
	fzDupBase  = fzS2Co
)

type fzTxnState struct {
	granted    int
	done       int // 0 running, 1 committed, 2 aborted
	sentCommit bool
}

type fzHarness struct {
	t       *testing.T
	pol     DeadlockPolicy
	coord   *Coordinator
	parts   []*Participant
	smap    RangeShardMap
	links   [fzNumLinks][]fzMsg
	state   []fzTxnState
	applied [][]int // [txn index][shard]: 0 none, 1 commit, 2 abort

	// The modeled coordinator WAL: commit rounds logged (atomically with
	// the decision that produced them) and not yet fully acknowledged.
	// Fully-acked rounds leave the log — the truncation model — so a
	// crash recovers exactly the decided-but-unacked residue.
	wlog   []RecoveredRound
	logged map[ids.Txn]bool
	acked  map[ids.Txn]map[int]bool
	epoch  int // current coordinator incarnation number
}

func newFzHarness(t *testing.T, pol DeadlockPolicy) *fzHarness {
	h := &fzHarness{
		t:       t,
		pol:     pol,
		coord:   NewCoordinator(VictimLeastHeld, pol),
		smap:    NewRangeShardMap(fzShards, fzItems),
		state:   make([]fzTxnState, len(fzScript)),
		applied: make([][]int, len(fzScript)),
		logged:  make(map[ids.Txn]bool),
		acked:   make(map[ids.Txn]map[int]bool),
	}
	h.coord.SetRecoverable(true)
	for s := 0; s < fzShards; s++ {
		h.parts = append(h.parts, NewParticipant(s, VictimLeastHeld, pol))
	}
	for i := range fzScript {
		h.applied[i] = make([]int, fzShards)
		h.sendRequest(i)
	}
	return h
}

// crashCoord kills the coordinator between messages: every piece of
// volatile state (voting rounds, the deadlock graph, tombstones, ack
// progress) dies; only the commit log survives. Recovery re-drives the
// logged rounds, then — as in the live cluster — clients with an
// unresolved commit request re-send it and every participant re-files
// its live block reports.
func (h *fzHarness) crashCoord() {
	h.coord = NewCoordinator(VictimLeastHeld, h.pol)
	h.coord.SetRecoverable(true)
	h.epoch++
	h.coord.SetEpoch(h.epoch)
	rounds := make([]RecoveredRound, len(h.wlog))
	copy(rounds, h.wlog)
	for _, r := range rounds {
		h.acked[r.Txn] = make(map[int]bool) // acks are volatile
	}
	h.routeCoord(h.coord.Recover(rounds))
	for i := range fzScript {
		st := h.state[i]
		if st.sentCommit && st.done == 0 {
			h.push(fzC2Co, fzMsg{kind: fzCommitReq, txn: fzTxnOf(i),
				client: fzClientOf(i), shards: h.fzShardSet(i)})
		}
	}
	for s, p := range h.parts {
		h.routePart(s, p.Resync())
	}
}

// inquireAll fires the termination protocol from shard s: one inquiry
// per in-doubt (prepared) transaction.
func (h *fzHarness) inquireAll(s int) {
	for _, txn := range h.parts[s].PreparedTxns() {
		h.push(fzS2Co+s, fzMsg{kind: fzInquire, txn: txn, shard: s})
	}
}

// noteAck records one shard's commit-decision ack, dropping the round
// from the modeled log once every shard acknowledged — the point where a
// real coordinator may truncate the record.
func (h *fzHarness) noteAck(txn ids.Txn, shard int) {
	h.coord.Acked(txn, shard)
	set := h.acked[txn]
	if set == nil {
		return // round already truncated (or never logged)
	}
	set[shard] = true
	if len(set) == len(h.fzShardSet(fzIndexOf(txn))) {
		delete(h.acked, txn)
		h.wlog = slices.DeleteFunc(h.wlog, func(r RecoveredRound) bool { return r.Txn == txn })
	}
}

func (h *fzHarness) push(link int, m fzMsg) { h.links[link] = append(h.links[link], m) }

func fzTxnOf(i int) ids.Txn       { return ids.Txn(i + 1) }
func fzIndexOf(txn ids.Txn) int   { return int(txn) - 1 }
func fzClientOf(i int) ids.Client { return ids.Client(i) }

// fzShardSet returns txn i's full participant shard set, ascending.
func (h *fzHarness) fzShardSet(i int) []int {
	var set []int
	for _, it := range fzScript[i] {
		s := h.smap.Of(ids.Item(it))
		if !slices.Contains(set, s) {
			set = append(set, s)
		}
	}
	slices.Sort(set)
	return set
}

// sendRequest enqueues txn i's next lock request.
func (h *fzHarness) sendRequest(i int) {
	item := ids.Item(fzScript[i][h.state[i].granted])
	h.push(fzC2S+h.smap.Of(item), fzMsg{kind: fzReq, txn: fzTxnOf(i), item: item, epoch: h.state[i].granted})
}

// unwind kills txn i client-side: abort releases to every participant
// shard in its script (idempotent at shards it never reached) and the
// coordinator's AbortDone.
func (h *fzHarness) unwind(i int) {
	h.state[i].done = 2
	for _, s := range h.fzShardSet(i) {
		h.push(fzC2S+s, fzMsg{kind: fzClientAbort, txn: fzTxnOf(i)})
	}
	h.push(fzC2Co, fzMsg{kind: fzAbortDone, txn: fzTxnOf(i)})
}

// routePart enqueues a participant core's outputs onto its outgoing links.
func (h *fzHarness) routePart(s int, acts []PartAction) {
	for _, a := range acts {
		switch a.Kind {
		case PartGrant:
			h.push(fzS2C+s, fzMsg{kind: fzGrant, txn: a.Req.Txn, item: a.Req.Item})
		case PartAbort:
			// a.Txn, not a.Req.Txn: a Wound-Wait victim holds locks without
			// a blocked request, so its abort action carries a zero Req.
			h.push(fzS2C+s, fzMsg{kind: fzLocalAbort, txn: a.Txn})
		case PartBlocked:
			h.push(fzS2Co+s, fzMsg{kind: fzBlocked, txn: a.Txn, shard: s, client: a.Client, epoch: a.Epoch, held: a.Held, waits: a.WaitsFor})
		case PartCleared:
			h.push(fzS2Co+s, fzMsg{kind: fzCleared, txn: a.Txn, epoch: a.Epoch})
		case PartVote:
			h.push(fzS2Co+s, fzMsg{kind: fzVote, txn: a.Txn, shard: s, epoch: a.Epoch, yes: a.Yes})
		default:
			h.t.Fatalf("unknown participant action %v", a.Kind)
		}
	}
}

// routeCoord enqueues the coordinator's outputs onto its outgoing links.
func (h *fzHarness) routeCoord(acts []CoordAction) {
	for _, a := range acts {
		switch a.Kind {
		case CoordPrepare:
			h.push(fzCo2S+a.Shard, fzMsg{kind: fzPrepare, txn: a.Txn, epoch: a.Epoch})
		case CoordDecide:
			if a.Commit && !h.logged[a.Txn] {
				// First commit decision for this round: the log append is
				// atomic with the decision (no crash opcode can interleave),
				// exactly the WAL-before-wire discipline of the live site.
				h.logged[a.Txn] = true
				i := fzIndexOf(a.Txn)
				h.wlog = append(h.wlog, RecoveredRound{Txn: a.Txn, Client: fzClientOf(i), Shards: h.fzShardSet(i)})
				h.acked[a.Txn] = make(map[int]bool)
			}
			h.push(fzCo2S+a.Shard, fzMsg{kind: fzDecide, txn: a.Txn, commit: a.Commit})
		case CoordReply:
			h.push(fzCo2C, fzMsg{kind: fzReply, txn: a.Txn, commit: a.Commit})
		case CoordVictim:
			h.push(fzCo2C, fzMsg{kind: fzVictim, txn: a.Txn})
		default:
			h.t.Fatalf("unknown coordinator action %v", a.Kind)
		}
	}
}

// process applies one delivered message to its destination entity.
func (h *fzHarness) process(link int, m fzMsg) {
	switch m.kind {
	case fzReq:
		s := link - fzC2S
		h.routePart(s, h.parts[s].Request(LockRequest{
			Txn: m.txn, Client: fzClientOf(fzIndexOf(m.txn)), Item: m.item, Write: true, Epoch: m.epoch,
		}))
	case fzClientAbort:
		s := link - fzC2S
		h.routePart(s, h.parts[s].ClientAbort(m.txn))
	case fzGrant:
		i := fzIndexOf(m.txn)
		st := &h.state[i]
		if st.done != 0 {
			return // unwound while the grant was in flight
		}
		st.granted++
		if st.granted < len(fzScript[i]) {
			h.sendRequest(i)
			return
		}
		if !st.sentCommit {
			st.sentCommit = true
			h.push(fzC2Co, fzMsg{kind: fzCommitReq, txn: m.txn,
				client: fzClientOf(i), shards: h.fzShardSet(i)})
		}
	case fzLocalAbort:
		i := fzIndexOf(m.txn)
		if h.state[i].done != 0 {
			return
		}
		h.unwind(i)
	case fzBlocked:
		h.routeCoord(h.coord.Blocked(m.txn, m.client, m.shard, m.epoch, m.held, m.waits))
	case fzCleared:
		h.coord.Cleared(m.txn, m.epoch)
	case fzVote:
		h.routeCoord(h.coord.Vote(m.txn, m.shard, m.epoch, m.yes))
	case fzPrepare:
		s := link - fzCo2S
		h.routePart(s, h.parts[s].Prepare(m.txn, m.epoch))
	case fzDecide:
		s := link - fzCo2S
		involved := h.parts[s].Involved(m.txn)
		h.routePart(s, h.parts[s].Decide(m.txn, m.commit))
		if m.commit {
			// Ack every commit decision, duplicates included, like the live
			// shard: a restarted coordinator re-sends already-applied rounds
			// and needs the re-acks to drain them.
			h.push(fzS2Co+s, fzMsg{kind: fzAck, txn: m.txn, shard: s})
		}
		if involved {
			i := fzIndexOf(m.txn)
			want := 2
			if m.commit {
				want = 1
			}
			if prev := h.applied[i][s]; prev != 0 && prev != want {
				h.t.Fatalf("txn %v shard %d applied decision %d then %d", m.txn, s, prev, want)
			}
			h.applied[i][s] = want
		}
	case fzCommitReq:
		h.routeCoord(h.coord.CommitRequest(m.txn, m.client, m.shards))
	case fzAbortDone:
		h.routeCoord(h.coord.AbortDone(m.txn))
	case fzReply:
		i := fzIndexOf(m.txn)
		st := &h.state[i]
		if st.done != 0 {
			return // duplicate reply, or the victim notice won the race
		}
		if m.commit {
			st.done = 1
			return
		}
		h.unwind(i)
	case fzInquire:
		h.routeCoord(h.coord.Inquire(m.txn, m.shard))
	case fzAck:
		h.noteAck(m.txn, m.shard)
	case fzVictim:
		i := fzIndexOf(m.txn)
		if h.state[i].done != 0 {
			// Already gone (or even committed, off a stale block report):
			// ack anyway so the coordinator's victim mark always clears.
			h.push(fzC2Co, fzMsg{kind: fzAbortDone, txn: m.txn})
			return
		}
		h.unwind(i)
	default:
		h.t.Fatalf("unknown message kind %d", m.kind)
	}
}

// deliver pops and processes the head of the first nonempty link at or
// after start (wrapping), optionally re-enqueueing a copy of the message
// to model at-least-once delivery. Reports whether anything moved.
func (h *fzHarness) deliver(start int, dup bool) bool {
	for k := 0; k < fzNumLinks; k++ {
		link := (start + k) % fzNumLinks
		if len(h.links[link]) == 0 {
			continue
		}
		if dup && link < fzDupBase {
			continue // lock links are exactly-once
		}
		m := h.links[link][0]
		h.links[link] = h.links[link][1:]
		h.process(link, m)
		// Block reports are the one 2PC message the coordinator's
		// conservative graph needs exactly-once: a duplicate would land
		// after its matching clear was already consumed, so no paired
		// clear follows it and the stale edge it plants is never removed
		// (epochs order cross-link races, not same-link replays).
		// Everything else must tolerate dups.
		if dup && m.kind != fzBlocked {
			h.push(link, m)
		}
		return true
	}
	return false
}

// FuzzCoordinator2PC drives the sharded lock cluster's pure cores — one
// Coordinator, three Participants — through fuzz-chosen interleavings of
// per-link FIFO deliveries, duplicate deliveries of 2PC-layer messages,
// coordinator timeouts, coordinator crash-recoveries, and termination-
// protocol inquiries, then drains (resolving any residual in-doubt state
// through the termination protocol) and checks atomicity: a transaction
// never applies commit at one shard and abort at another — across
// coordinator incarnations — an applied commit reaches every shard it
// touched, client-visible outcomes match applied decisions, and every
// core quiesces.
func FuzzCoordinator2PC(f *testing.F) {
	f.Add([]byte{})
	for pol := byte(0); pol < 4; pol++ {
		// The first byte selects the deadlock policy; the same delivery
		// schedules are seeded under all four.
		f.Add([]byte{pol, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
		f.Add([]byte{pol, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
		f.Add([]byte{pol, 0, 0, 0, 240, 241, 1, 1, 224, 225, 2, 2, 245, 230, 12, 13})
		f.Add([]byte{pol, 3, 14, 159, 26, 53, 58, 97, 93, 238, 46, 224, 251, 83, 27, 9})
		// Crash the coordinator mid-commit, then again, with inquiries and
		// timeouts interleaved: the recovery/termination soak.
		f.Add([]byte{pol, 0, 1, 2, 3, 4, 5, 6, 12, 7, 8, 240, 9, 10, 232, 233, 234,
			11, 12, 13, 248, 226, 240, 0, 1, 2, 3, 250, 235, 12, 13})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pol := PolicyDetect
		if len(data) > 0 {
			pol = DeadlockPolicies()[int(data[0])%len(DeadlockPolicies())]
			data = data[1:]
		}
		h := newFzHarness(t, pol)
		for _, b := range data {
			switch {
			case b >= 248:
				// Coordinator timeout on a fuzz-chosen transaction.
				h.routeCoord(h.coord.Timeout(fzTxnOf(int(b-248) % len(fzScript))))
			case b >= 240:
				h.crashCoord()
			case b >= 232:
				// Termination protocol from a fuzz-chosen shard: inquire
				// about every transaction it holds prepared.
				h.inquireAll(int(b-232) % fzShards)
			case b >= 224:
				h.deliver(fzDupBase+int(b-224)%(fzNumLinks-fzDupBase), true)
			default:
				h.deliver(int(b)%fzNumLinks, false)
			}
		}
		// Deterministic drain: always the first nonempty link. A shard can
		// be left in doubt when its round died with a crashed coordinator
		// incarnation, so between drains the termination protocol fires for
		// every still-prepared transaction; each inquiry resolves at least
		// one, so the rounds are bounded.
		for round := 0; ; round++ {
			if round > 50 {
				t.Fatalf("in-doubt transactions never terminated")
			}
			for i := 0; ; i++ {
				if i > 100000 {
					t.Fatalf("cluster did not drain: links %v", lens(h.links[:]))
				}
				if !h.deliver(0, false) {
					break
				}
			}
			indoubt := false
			for s, p := range h.parts {
				if p.PreparedCount() > 0 {
					h.inquireAll(s)
					indoubt = true
				}
			}
			if !indoubt {
				break
			}
		}

		for i := range fzScript {
			st := h.state[i]
			if st.done == 0 {
				t.Fatalf("txn %v never finished (granted %d of %d)",
					fzTxnOf(i), st.granted, len(fzScript[i]))
			}
			committed, aborted := 0, 0
			for s := 0; s < fzShards; s++ {
				switch h.applied[i][s] {
				case 1:
					committed++
				case 2:
					aborted++
				}
			}
			if committed > 0 && aborted > 0 {
				t.Fatalf("txn %v applied commit at %d shards and abort at %d: atomicity broken",
					fzTxnOf(i), committed, aborted)
			}
			if committed > 0 && committed != len(h.fzShardSet(i)) {
				t.Fatalf("txn %v committed at %d of %d shards", fzTxnOf(i), committed, len(h.fzShardSet(i)))
			}
			if (st.done == 1) != (committed > 0) {
				t.Fatalf("txn %v client outcome %d but %d shards applied commit",
					fzTxnOf(i), st.done, committed)
			}
		}
		for s, p := range h.parts {
			if !p.Quiet() {
				t.Fatalf("participant %d not quiet after drain", s)
			}
			if err := p.Core().Validate(); err != nil {
				t.Fatalf("participant %d lock table invalid: %v", s, err)
			}
		}
		if !h.coord.Quiet() {
			t.Fatalf("coordinator not quiet after drain")
		}
	})
}

// lens summarizes link queue depths for failure messages.
func lens(links [][]fzMsg) []string {
	var out []string
	for i, q := range links {
		if len(q) > 0 {
			out = append(out, fmt.Sprintf("%d:%d", i, len(q)))
		}
	}
	return out
}
