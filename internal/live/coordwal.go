package live

// The coordinator's write-ahead log (DESIGN.md §16). Presumed abort makes
// it tiny: only commit decisions are logged — forced before the first
// commit Decide leaves the site — because an abort needs no durable trace
// (a restarted coordinator answers any inquiry it has no record of with
// abort, which is exactly the decision an unlogged round must resolve
// to). Each commit record carries the round's shards and staged writes so
// a restarted coordinator can re-send complete decisions from its
// replayed rounds.

// coordRecKind discriminates coordinator WAL records.
type coordRecKind int

const (
	// coordCommit is one decided commit round, logged before any of its
	// Decide messages leave.
	coordCommit coordRecKind = iota
	// coordCheckpoint snapshots the decided-but-unacknowledged rounds.
	// Fully-acknowledged rounds are omitted — no inquiry for them can
	// ever arrive (every shard resolved its prepared state to produce the
	// ack) — so the checkpoint is the truncation high-water mark: the log
	// prefix before it is dropped.
	coordCheckpoint
)

// coordRound is one commit round's payload — its commit request — held
// from the request (or WAL replay) until the coordinator core forgets the
// round; a WAL commit record is a copy of it. Acknowledgments live only
// in the core: logging them would double the write traffic for
// bookkeeping a restart rebuilds by re-sending decisions and collecting
// acks again.
type coordRound struct {
	commitReqMsg
	logged bool // its commit record is in the WAL
}

// coordRec is one coordinator WAL append.
type coordRec struct {
	kind     coordRecKind
	round    coordRound   // coordCommit
	ckRounds []coordRound // coordCheckpoint: unacked rounds, ascending txn
}

// coordWAL is the coordinator's write-ahead log: appended and synced
// before the Decide transmissions it makes durable.
type coordWAL struct{ durableLog[coordRec] }

// replay rebuilds the restarted coordinator's durable state: every commit
// round logged at or after the last checkpoint, in decision order.
// Acknowledgments are volatile, so recovery re-sends every replayed
// round's decisions and collects acks again. A round that was fully
// acknowledged before the crash but not yet truncated is resurrected too;
// its re-sent decisions find nothing to apply at the shards, which simply
// ack again until the round drains.
func (w *coordWAL) replay() (rounds []coordRound, replayed int64) {
	for _, r := range w.records {
		replayed++
		switch r.kind {
		case coordCommit:
			rounds = append(rounds, r.round)
		case coordCheckpoint:
			rounds = append([]coordRound(nil), r.ckRounds...)
		}
	}
	return rounds, replayed
}
