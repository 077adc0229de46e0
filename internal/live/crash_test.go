package live

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// TestWALReplay pins the redo pass on a hand-built log: committed writes
// reinstall in log order, decided transactions (commit or abort) are not
// in-doubt, and the in-doubt residue comes back in first-prepare order.
func TestWALReplay(t *testing.T) {
	syncs := 0
	w := &wal{}
	w.syncFn = func() { syncs++ }
	lk := []protocol.RecoveredLock{{Item: 1, Write: true}}
	w.append(walRecord{kind: walPrepare, txn: 10, client: 1, ts: 10, locks: lk})
	w.append(walRecord{kind: walPrepare, txn: 20, client: 2, ts: 20})
	w.append(walRecord{kind: walDecide, txn: 20, commit: true, writes: []writeUpdate{{item: 2, value: 77}}})
	w.append(walRecord{kind: walPrepare, txn: 30, client: 3, ts: 30})
	w.append(walRecord{kind: walDecide, txn: 30, commit: false})
	w.append(walRecord{kind: walPrepare, txn: 40, client: 4, ts: 40})
	// A later commit overwrites an earlier one's version in log order.
	w.append(walRecord{kind: walDecide, txn: 50, commit: true, writes: []writeUpdate{{item: 2, value: 99}}})

	if w.appends != 7 || syncs != 7 {
		t.Fatalf("appends=%d syncs=%d, want 7 7 — every append must pass the sync point", w.appends, syncs)
	}
	versions := make(map[ids.Item]ids.Txn)
	values := make(map[ids.Item]int64)
	indoubt, replayed := w.replay(versions, values)
	if replayed != 7 {
		t.Fatalf("replayed = %d, want 7", replayed)
	}
	if versions[2] != 50 || values[2] != 99 {
		t.Fatalf("redo state: versions[2]=%v values[2]=%d, want 50 99 (log order)", versions[2], values[2])
	}
	if len(indoubt) != 2 || indoubt[0].txn != 10 || indoubt[1].txn != 40 {
		t.Fatalf("indoubt = %v, want txns [10 40] in first-prepare order", indoubt)
	}
	if len(indoubt[0].locks) != 1 || indoubt[0].locks[0] != (protocol.RecoveredLock{Item: 1, Write: true}) {
		t.Fatalf("in-doubt record lost its lock snapshot: %+v", indoubt[0])
	}
	// Aborted-after-prepare (txn 30) must be neither in-doubt nor installed.
	if _, ok := versions[0]; ok {
		t.Fatal("abort decision installed writes")
	}
}

// TestWALClientAbortLogsDecide pins the release-vs-decision race fix: a
// client's abort release can overtake the coordinator's abort decision
// on a prepared shard, and it must leave the same walDecide record the
// decision would have. Without it, the logged prepare replays as
// in-doubt after a crash and re-adopts locks the unwind already freed —
// which a later holder's own prepare record then conflicts with.
func TestWALClientAbortLogsDecide(t *testing.T) {
	cfg := bankLiveConfig(2, 1, ChaosConfig{})
	cfg.WAL = true
	cl, err := newCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss := cl.shards[0]
	if acts := ss.part.Request(protocol.LockRequest{Txn: 100, Client: 0, Item: 0, Write: true, Ts: 100}); len(acts) != 1 || acts[0].Kind != protocol.PartGrant {
		t.Fatalf("seed lock not granted: %+v", acts)
	}
	ss.shardPrepare(prepareMsg{txn: 100})
	if !ss.part.Prepared(100) || ss.wal.appends != 1 {
		t.Fatalf("prepare not logged: prepared=%v appends=%d", ss.part.Prepared(100), ss.wal.appends)
	}
	ss.shardRelease(releaseMsg{txn: 100, aborted: true})
	if ss.wal.appends != 2 {
		t.Fatalf("client abort of a prepared transaction logged no decide (appends=%d)", ss.wal.appends)
	}
	indoubt, _ := ss.wal.replay(map[ids.Item]ids.Txn{}, map[ids.Item]int64{})
	if len(indoubt) != 0 {
		t.Fatalf("released transaction still in-doubt after replay: %v", indoubt)
	}
	// The duplicate unwind — the decision arriving after the release —
	// must not log a second decide for a transaction the shard forgot.
	ss.shardDecide(decisionMsg{txn: 100, commit: false})
	if ss.wal.appends != 2 {
		t.Fatalf("late duplicate abort decision logged again (appends=%d)", ss.wal.appends)
	}
}

// crashBankConfig is the failure-suite workhorse: the bank transfer
// workload with WAL logging on and shard sites crashing roughly every
// fiftieth message (capped per site), so runs exercise redo, in-doubt
// recovery and the restart-abort path while still making progress.
func crashBankConfig(k int, seed uint64, chaos ChaosConfig) Config {
	cfg := bankLiveConfig(k, seed, chaos)
	cfg.WAL = true
	cfg.Crash = CrashConfig{Prob: 0.02}
	return cfg
}

// TestShardedWALCleanRun pins that logging alone changes no outcome: a
// crash-free WAL run reaches its target with appends recorded and no
// replay ever running.
func TestShardedWALCleanRun(t *testing.T) {
	cfg := bankLiveConfig(4, 3, ChaosConfig{})
	cfg.WAL = true
	res := runSharded(t, cfg)
	want := int64(cfg.Workload.Items) * cfg.InitialBalance
	if got := bankSum(res, cfg.Workload.Items); got != want {
		t.Fatalf("global balance %d, want %d", got, want)
	}
	st := res.Stats
	if st.WALAppends == 0 {
		t.Fatal("WAL run logged nothing")
	}
	if st.Crashes != 0 || st.CoordRestarts != 0 || st.WALReplayed != 0 {
		t.Fatalf("crash-free run reports crashes=%d coordRestarts=%d replayed=%d",
			st.Crashes, st.CoordRestarts, st.WALReplayed)
	}
}

// TestShardedCrashRestartBankInvariant is the acceptance oracle for the
// crash fault: shard sites crash mid-run (losing locks, votes and their
// slice of the store), redo their WAL and rejoin — and every seed must
// still reach its commit target with a serializable history and an
// exactly conserved global balance. A lost committed write, a doubly
// installed transfer or a forgotten prepared transaction all move the
// sum. CI runs this under -race.
func TestShardedCrashRestartBankInvariant(t *testing.T) {
	var crashes, replayed, restarts int64
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := crashBankConfig(4, seed, ChaosConfig{})
			res := runSharded(t, cfg)
			want := int64(cfg.Workload.Items) * cfg.InitialBalance
			if got := bankSum(res, cfg.Workload.Items); got != want {
				t.Fatalf("global balance %d, want %d: crash-restart tore a transfer", got, want)
			}
			st := res.Stats
			if st.WALAppends == 0 {
				t.Fatal("crash run logged nothing")
			}
			if st.Causes.Restart != 0 && st.Causes.Restart > st.Aborts {
				t.Fatalf("restart aborts %d exceed total aborts %d", st.Causes.Restart, st.Aborts)
			}
			crashes += st.Crashes
			replayed += st.WALReplayed
			restarts += st.Causes.Restart
		})
	}
	// Crash points depend on message counts, which vary with scheduling;
	// over three seeds at Prob 0.02 a zero total means the fault is wired
	// to nothing.
	if crashes == 0 {
		t.Fatalf("no shard site ever crashed across all seeds")
	}
	if replayed == 0 {
		t.Fatalf("%d crashes replayed no WAL records", crashes)
	}
	t.Logf("crashes=%d replayed=%d restartAborts=%d", crashes, replayed, restarts)
}

// TestShardedCrashUnderChaos composes the failure modes: crash-restart
// on top of loss and partition windows. Atomicity and serializability
// must survive the composition, not just each fault alone.
func TestShardedCrashUnderChaos(t *testing.T) {
	modes := []struct {
		name  string
		chaos ChaosConfig
	}{
		{"drop", ChaosConfig{Drop: 0.15}},
		{"part", ChaosConfig{Partition: PartitionConfig{Prob: 0.5, Down: 20 * time.Millisecond, Every: 200 * time.Millisecond}}},
		{"drop+part", ChaosConfig{Drop: 0.1, Partition: PartitionConfig{Prob: 0.4, Down: 15 * time.Millisecond, Every: 150 * time.Millisecond}}},
	}
	for _, mode := range modes {
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", mode.name, seed), func(t *testing.T) {
				cfg := crashBankConfig(3, seed, mode.chaos)
				res := runSharded(t, cfg)
				want := int64(cfg.Workload.Items) * cfg.InitialBalance
				if got := bankSum(res, cfg.Workload.Items); got != want {
					t.Fatalf("global balance %d, want %d under %s", got, want, mode.name)
				}
			})
		}
	}
}

// TestShardedCrashMaxCapsFaults pins the Max knob: a run configured for
// at most one crash per site can never report more than Shards crashes.
func TestShardedCrashMaxCapsFaults(t *testing.T) {
	cfg := crashBankConfig(4, 1, ChaosConfig{})
	cfg.Crash = CrashConfig{Prob: 0.05, Max: 1}
	res := runSharded(t, cfg)
	if res.Stats.Crashes > int64(cfg.Shards) {
		t.Fatalf("crashes = %d with Max 1 over %d shards", res.Stats.Crashes, cfg.Shards)
	}
}

// TestCoordWALReplay pins the coordinator log on a hand-built history:
// a checkpoint record supersedes (and truncates) the prefix before it,
// and replay returns the checkpointed rounds plus every commit logged
// after. Acknowledgments are not in the log at all: they live in the
// coordinator core, whose recovered rounds collect them afresh
// (TestRecoveredRoundForgottenAfterEveryAck).
func TestCoordWALReplay(t *testing.T) {
	syncs := 0
	w := &coordWAL{}
	w.syncFn = func() { syncs++ }
	w.append(coordRec{kind: coordCommit, round: coordRound{commitReqMsg: commitReqMsg{txn: 10, client: 1, shards: []int{0, 1}}}})
	w.append(coordRec{kind: coordCommit, round: coordRound{commitReqMsg: commitReqMsg{txn: 20, client: 2, shards: []int{1}}}})
	// Txn 10 fully acked before the checkpoint: it is omitted from the
	// snapshot and its record vanishes with the truncated prefix.
	w.checkpoint(coordRec{kind: coordCheckpoint, ckRounds: []coordRound{
		{commitReqMsg: commitReqMsg{txn: 20, client: 2, shards: []int{1}}},
	}})
	// A post-checkpoint commit.
	w.append(coordRec{kind: coordCommit, round: coordRound{commitReqMsg: commitReqMsg{txn: 30, client: 3, shards: []int{2, 0}}}})

	if w.appends != 4 || syncs != 4 {
		t.Fatalf("appends=%d syncs=%d, want 4 4 — every append (checkpoints too) must pass the sync point", w.appends, syncs)
	}
	if w.checkpoints != 1 || w.truncated != 2 {
		t.Fatalf("checkpoints=%d truncated=%d, want 1 2", w.checkpoints, w.truncated)
	}
	if len(w.records) != 2 || w.records[0].kind != coordCheckpoint {
		t.Fatalf("records[0] must be the latest checkpoint after truncation: %+v", w.records)
	}
	rounds, replayed := w.replay()
	if replayed != 2 {
		t.Fatalf("replayed = %d, want 2 (only the suffix from the checkpoint on)", replayed)
	}
	if len(rounds) != 2 || rounds[0].txn != 20 || rounds[1].txn != 30 {
		t.Fatalf("rounds = %+v, want txns [20 30] in decision order", rounds)
	}
}

// TestCoordRetryAfterPresumedAbortGetsReply pins the liveness hole the
// coordinator-crash soak found: a crash loses a pending round, the
// in-doubt shard's inquiry makes the restarted coordinator presume
// abort, and then the client's retried commit request arrives. The
// tombstone the inquiry left must not absorb the retry at the site
// layer — the abort promise was made to the shard, never to the client,
// so the client is still owed a reply. Absorbing it stalls that client
// forever.
func TestCoordRetryAfterPresumedAbortGetsReply(t *testing.T) {
	cfg := bankLiveConfig(2, 1, ChaosConfig{})
	cfg.WAL = true
	cfg.Crash = CrashConfig{CoordProb: 0.5}
	cl, err := newCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs := cl.coord
	req := commitReqMsg{txn: 7, client: 1, shards: []int{0, 1}}
	cs.coordCommitReq(req) // round opens, prepares go out
	cs.crashRestart()      // the pending round is volatile and dies
	cs.coordInquire(inquireMsg{txn: 7, shard: 0})
	if cs.resolvedAbort != 1 {
		t.Fatalf("inquiry for the lost round must resolve presumed-abort: %d", cs.resolvedAbort)
	}
	cs.coordCommitReq(req) // the client's retry, sent on coordRestartMsg
	if _, ok := cs.rounds[7]; ok {
		t.Fatal("retry after presumed abort leaked its stored request")
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-cl.clients[1].mbox.ch:
			out, ok := m.(outcomeMsg)
			if !ok {
				continue // the restart broadcast precedes the reply
			}
			if out.txn != 7 || out.commit {
				t.Fatalf("retry must be answered with the presumed abort: %+v", out)
			}
			return
		case <-deadline:
			t.Fatal("retried commit request after presumed abort got no reply")
		}
	}
}

// TestShardedCoordCrashBankInvariant is the acceptance oracle for the
// tentpole fault: the coordinator itself crashes mid-run — losing its
// pending voting rounds, block-report graph, and collected acks — then
// restarts from its WAL, re-drives decided-but-unacked commits, and
// answers in-doubt inquiries (presuming abort for anything unlogged).
// Every seed must still reach its commit target with a serializable
// history and an exactly conserved balance: a torn decision shows up as
// a moved sum, a stalled in-doubt shard as a missed target. CI runs
// this under -race.
func TestShardedCoordCrashBankInvariant(t *testing.T) {
	var restarts, inquiries, resolved int64
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := bankLiveConfig(4, seed, ChaosConfig{})
			cfg.WAL = true
			cfg.Crash = CrashConfig{CoordProb: 0.01}
			res := runSharded(t, cfg)
			want := int64(cfg.Workload.Items) * cfg.InitialBalance
			if got := bankSum(res, cfg.Workload.Items); got != want {
				t.Fatalf("global balance %d, want %d: coordinator restart tore a decision", got, want)
			}
			st := res.Stats
			if st.Crashes != 0 {
				t.Fatalf("coordinator-only fault crashed %d shard sites", st.Crashes)
			}
			restarts += st.CoordRestarts
			inquiries += st.Inquiries
			resolved += st.InDoubtResolvedCommit + st.InDoubtResolvedAbort
		})
	}
	// Crash points depend on message counts, which vary with scheduling;
	// over three seeds at CoordProb 0.01 a zero total means the fault is
	// wired to nothing.
	if restarts == 0 {
		t.Fatal("coordinator never crashed across all seeds")
	}
	t.Logf("coordRestarts=%d inquiries=%d inDoubtResolved=%d", restarts, inquiries, resolved)
}

// TestCountersSurviveCrashRestart pins, deterministically and at the
// sites, that a crash-restart loses no counter: the dead incarnation's
// abort causes and 2PC counters stay in the site's totals, and a round
// that was still voting when the coordinator died is accounted as the
// presumed abort it is.
func TestCountersSurviveCrashRestart(t *testing.T) {
	cfg := crashBankConfig(2, 1, ChaosConfig{})
	cfg.Deadlock = protocol.PolicyNoWait
	cl, err := newCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss := cl.shards[0]
	ss.shardRequest(reqMsg{txn: 1, client: 0, item: 0, write: true, ts: 1})
	ss.shardRequest(reqMsg{txn: 2, client: 1, item: 0, write: true, ts: 2})
	if c := ss.causes(); c.NoWait != 1 {
		t.Fatalf("set-up: the conflicting request was not a no-wait abort: %+v", c)
	}
	ss.crashRestart()
	if c := ss.causes(); c.NoWait != 1 {
		t.Fatalf("shard restart lost the dead incarnation's abort causes: %+v", c)
	}

	cs := cl.coord
	cs.coordCommitReq(commitReqMsg{txn: 3, client: 0, shards: []int{0, 1}})
	cs.crashRestart()
	want := stats.TwoPC{Prepares: 2, Aborts: 1, CrossTxns: 1, Txns: 1}
	if got := cs.counters(); got != want {
		t.Fatalf("coordinator restart: counters %+v, want %+v", got, want)
	}
}

// TestShardedCoordCrashCountersReconcile is the end-to-end invariant the
// lost counters used to break: on a sharded run whose coordinator
// crashes, every commit a client saw was decided by some incarnation, so
// the 2PC commit count over all incarnations equals the run's commits
// (runSharded also checks Txns = Commits + Aborts over all of them).
func TestShardedCoordCrashCountersReconcile(t *testing.T) {
	var restarts int64
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := bankLiveConfig(4, seed, ChaosConfig{})
			cfg.WAL = true
			cfg.Crash = CrashConfig{CoordProb: 0.03}
			st := runSharded(t, cfg).Stats
			if st.TwoPC.Commits != st.Commits {
				t.Fatalf("2PC commits %d over %d coordinator restarts, clients committed %d",
					st.TwoPC.Commits, st.CoordRestarts, st.Commits)
			}
			restarts += st.CoordRestarts
		})
	}
	if restarts == 0 {
		t.Fatal("coordinator never crashed across all seeds")
	}
}

// TestShardedCorrelatedCrashChaos is the full failure matrix: shard
// crashes AND coordinator crashes on top of loss and partition windows.
// This is where the termination protocol earns its keep — a shard left
// prepared by a crashed coordinator (or whose decision was dropped by
// the network) must inquire its way to the decision rather than stall,
// and the answer must agree with what any other shard was told.
func TestShardedCorrelatedCrashChaos(t *testing.T) {
	modes := []struct {
		name  string
		chaos ChaosConfig
	}{
		{"drop", ChaosConfig{Drop: 0.15}},
		{"part", ChaosConfig{Partition: PartitionConfig{Prob: 0.5, Down: 20 * time.Millisecond, Every: 200 * time.Millisecond}}},
	}
	for _, mode := range modes {
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", mode.name, seed), func(t *testing.T) {
				cfg := crashBankConfig(3, seed, mode.chaos)
				cfg.Crash.CoordProb = 0.005
				res := runSharded(t, cfg)
				want := int64(cfg.Workload.Items) * cfg.InitialBalance
				if got := bankSum(res, cfg.Workload.Items); got != want {
					t.Fatalf("global balance %d, want %d under correlated crashes + %s", got, want, mode.name)
				}
			})
		}
	}
}

// TestWALCheckpointBoundsLog pins the truncation contract: with fuzzy
// checkpoints every N appends, no site's log — shard or coordinator —
// retains more than one checkpoint interval of records (plus the
// checkpoint itself and the handful a single message can append before
// the roll), even across a crash soak. Without truncation the logs grow
// with the run; with it the replay cost after a crash is bounded by N.
func TestWALCheckpointBoundsLog(t *testing.T) {
	const every = 32
	cfg := crashBankConfig(4, 2, ChaosConfig{})
	cfg.Crash.CoordProb = 0.005
	cfg.WALCheckpointEvery = every
	cl, err := newCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.run()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Workload.Items) * cfg.InitialBalance
	if got := bankSum(res, cfg.Workload.Items); got != want {
		t.Fatalf("global balance %d, want %d", got, want)
	}
	st := res.Stats
	if st.WALCheckpoints == 0 || st.WALTruncated == 0 {
		t.Fatalf("checkpoint soak rolled nothing: checkpoints=%d truncated=%d", st.WALCheckpoints, st.WALTruncated)
	}
	// maybeCheckpoint runs after every message, so a log can exceed the
	// interval only by the appends of the single message that tripped it.
	const slack = 4
	for _, ss := range cl.shards {
		if n := len(ss.wal.records); n > every+slack {
			t.Fatalf("shard %d log holds %d records, want <= %d: truncation not keeping up", ss.idx, n, every+slack)
		}
	}
	if n := len(cl.coord.cwal.records); n > every+slack {
		t.Fatalf("coordinator log holds %d records, want <= %d: truncation not keeping up", n, every+slack)
	}
	t.Logf("appends=%d checkpoints=%d truncated=%d crashes=%d coordRestarts=%d",
		st.WALAppends, st.WALCheckpoints, st.WALTruncated, st.Crashes, st.CoordRestarts)
}
