package live

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// crashSeq is the rng sequence selector reserved for the crash fault,
// distinct from the chaos and workload streams so enabling crashes never
// shifts their decisions.
const crashSeq = 0xC7A58

// CrashConfig injects whole-site crash-restart faults into the shard
// sites: after processing a protocol message a site may crash, losing
// every piece of volatile state — its participant (locks, queued
// requests, 2PC votes) and its slice of the versioned store — and
// immediately restart by replaying its WAL. Crashes are drawn from a
// deterministic per-shard stream derived from Config.Seed. The crash
// point sits between messages, never inside one: the in-memory WAL's
// append is atomic with the state transition it logs, which is the
// contract a torn-write-detecting on-disk log would restore.
type CrashConfig struct {
	// Prob is the per-message probability that a shard site crashes after
	// processing the message.
	Prob float64
	// CoordProb is the per-message probability that the coordinator site
	// crashes after processing the message, restarting from its own WAL
	// (decided-but-unacknowledged commit rounds; aborts are presumed and
	// never logged). Independent of Prob, so correlated shard+coordinator
	// outages are expressible.
	CoordProb float64
	// Max caps the crash-restarts per site (each shard and the
	// coordinator count separately), so a run always retains enough
	// healthy windows to make progress. Zero means the default of 2.
	Max int
}

// enabled reports whether any crash fault is configured.
func (c CrashConfig) enabled() bool { return c.Prob > 0 || c.CoordProb > 0 }

// max resolves the zero cap to the documented default.
func (c CrashConfig) max() int64 {
	if c.Max == 0 {
		return 2
	}
	return int64(c.Max)
}

// validate reports the first bad crash knob.
func (c CrashConfig) validate() error {
	switch {
	case c.Prob < 0 || c.Prob > 1:
		return fmt.Errorf("live: Crash.Prob must be in [0, 1], got %v", c.Prob)
	case c.CoordProb < 0 || c.CoordProb > 1:
		return fmt.Errorf("live: Crash.CoordProb must be in [0, 1], got %v", c.CoordProb)
	case c.Max < 0:
		return fmt.Errorf("live: Crash.Max must be >= 0, got %d", c.Max)
	}
	return nil
}

// coordCrashSplit selects the coordinator's crash stream, far outside
// any plausible shard index so the streams never collide.
const coordCrashSplit = 1 << 31

// newCrashStream returns shard idx's deterministic crash stream. Each
// shard derives its stream from the seed and its index alone, never from
// shared stream state, so the crash points are independent of scheduling.
func newCrashStream(seed uint64, idx int) *rng.Stream {
	return rng.New(seed, crashSeq).Split(uint64(idx))
}

// newCoordCrashStream returns the coordinator's deterministic crash
// stream, independent of every shard's.
func newCoordCrashStream(seed uint64) *rng.Stream {
	return rng.New(seed, crashSeq).Split(coordCrashSplit)
}

// walRecordKind discriminates WAL records.
type walRecordKind int

const (
	// walPrepare is logged before a yes vote leaves the site: the
	// transaction's identity, priority timestamp and held locks — enough
	// to re-enter the prepared (in-doubt) state after a crash.
	walPrepare walRecordKind = iota
	// walDecide is logged when a decision reaches the site: commit
	// records carry the writes the site installs; abort records are
	// logged for prepared transactions so redo can tell a decided
	// transaction from an in-doubt one.
	walDecide
	// walCheckpoint is a fuzzy checkpoint: a snapshot of the store (the
	// accumulated effect of every decided record before it) plus the
	// still-in-doubt prepared set. Once appended, every earlier record is
	// redundant — replay starts from the snapshot — so the log prefix is
	// truncated, bounding both log growth and replay work.
	walCheckpoint
)

// walRecord is one append.
type walRecord struct {
	kind   walRecordKind
	txn    ids.Txn
	client ids.Client               // prepare: whom the outcome concerns
	ts     ids.Txn                  // prepare: priority timestamp for re-locking
	locks  []protocol.RecoveredLock // prepare: locks held at vote time
	commit bool                     // decide
	writes []writeUpdate            // decide: installs on commit

	// Checkpoint payload: the store snapshot and the in-doubt prepared
	// set (prepare-kind records, ascending txn order) at checkpoint time.
	ckVersions map[ids.Item]ids.Txn
	ckValues   map[ids.Item]int64
	ckPrepared []walRecord
}

// durableLog is the write-ahead discipline the shard log and the
// coordinator log share. The log is in-memory — the store it protects is
// in-memory too — but the discipline is the real one: a record is
// appended, and the sync point passed, before the state transition it
// makes durable (the vote transmission, the install, the Decide
// transmissions). The syncFn seam is where a disk-backed implementation
// would fsync, and where tests observe the durability point.
type durableLog[R any] struct {
	records     []R
	appends     int64
	checkpoints int64
	truncated   int64  // records dropped by checkpoint truncation
	sinceCkpt   int    // appends since the last checkpoint
	syncFn      func() // fsync seam; nil means the sync point is a no-op
}

// append adds one record and passes the sync point.
func (w *durableLog[R]) append(r R) {
	w.records = append(w.records, r)
	w.appends++
	w.sinceCkpt++
	if w.syncFn != nil {
		w.syncFn()
	}
}

// checkpoint appends the checkpoint record and truncates the now-redundant
// prefix: everything the snapshot already captures is dropped, so
// records[0] is always the latest checkpoint afterwards. Truncating only
// after the append passes the sync point mirrors the on-disk discipline —
// the old prefix is deleted only once the snapshot is durable.
func (w *durableLog[R]) checkpoint(r R) {
	w.append(r)
	w.checkpoints++
	cut := len(w.records) - 1
	w.truncated += int64(cut)
	w.records = append([]R(nil), w.records[cut:]...)
	w.sinceCkpt = 0
}

// wal is one shard site's write-ahead log.
type wal struct{ durableLog[walRecord] }

// replay rebuilds a crashed site's durable state: committed writes are
// re-installed into versions/values in log order, and every prepared
// transaction without a decision record is returned as in-doubt, in
// first-prepare order — the presumed-abort residue the participant must
// re-enter 2PC with (its vote may already sit at the coordinator, so the
// decision can still be commit).
func (w *wal) replay(versions map[ids.Item]ids.Txn, values map[ids.Item]int64) (indoubt []walRecord, replayed int64) {
	prepared := make(map[ids.Txn]walRecord)
	var order []ids.Txn
	for _, r := range w.records {
		replayed++
		switch r.kind {
		case walPrepare:
			if _, ok := prepared[r.txn]; !ok {
				order = append(order, r.txn)
			}
			prepared[r.txn] = r
		case walDecide:
			delete(prepared, r.txn)
			if r.commit {
				for _, u := range r.writes {
					versions[u.item] = r.txn
					values[u.item] = u.value
				}
			}
		case walCheckpoint:
			// The snapshot supersedes everything replayed so far. After
			// truncation a checkpoint is always records[0], but replay does
			// not rely on that — a mid-log checkpoint (truncation disabled)
			// resets just the same.
			clear(versions)
			clear(values)
			for i, v := range r.ckVersions {
				versions[i] = v
			}
			for i, v := range r.ckValues {
				values[i] = v
			}
			prepared = make(map[ids.Txn]walRecord)
			order = order[:0]
			for _, p := range r.ckPrepared {
				order = append(order, p.txn)
				prepared[p.txn] = p
			}
		}
	}
	for _, txn := range order {
		if r, ok := prepared[txn]; ok {
			indoubt = append(indoubt, r)
		}
	}
	return indoubt, replayed
}
