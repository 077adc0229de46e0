package live

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/protocol"
)

// TestChaosPolicyMatrix soaks every deadlock policy under the worst
// chaos mode (reorder + duplication + jitter + drop) across all three
// protocols. runChaos asserts every client reaches its full commit
// target, which is the live no-starvation property: a Wait-Die or
// Wound-Wait victim restarts with its original timestamp, so it must
// eventually win every conflict and finish. CI runs this under -race.
func TestChaosPolicyMatrix(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	chaos := ChaosConfig{Reorder: 0.35, Duplicate: 0.3, Jitter: 400 * time.Microsecond, Drop: 0.2}
	for _, pol := range protocol.DeadlockPolicies() {
		for _, p := range []Protocol{S2PL, G2PL, C2PL} {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%v/%v/seed%d", pol, p, seed), func(t *testing.T) {
					cfg := chaosConfig(p, seed, chaos)
					cfg.Deadlock = pol
					runChaos(t, cfg)
				})
			}
		}
	}
}

// TestShardedPolicyChaos runs the 2PC sharded topology under every
// policy with message loss in play: wound notices, vote rounds and ARQ
// retransmissions interleave, and the run must still reach its target
// with a serializable history.
func TestShardedPolicyChaos(t *testing.T) {
	for _, pol := range protocol.DeadlockPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := shardedLiveConfig(3, 1, ChaosConfig{Drop: 0.2})
			cfg.Deadlock = pol
			runSharded(t, cfg)
		})
	}
}

// TestPolicyStatsSurface checks the per-run Stats a policy sweep reads:
// the percentile estimates are ordered and the abort-cause split only
// uses the counters its policy may touch (single-server s-2PL, whose
// core never falls back to cycle detection under avoidance).
func TestPolicyStatsSurface(t *testing.T) {
	for _, pol := range protocol.DeadlockPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := chaosConfig(S2PL, 1, ChaosConfig{})
			cfg.Deadlock = pol
			res := mustRun(t, cfg)
			st := res.Stats
			if st.P50 <= 0 || st.P95 < st.P50 || st.P99 < st.P95 {
				t.Errorf("percentiles out of order: p50=%v p95=%v p99=%v", st.P50, st.P95, st.P99)
			}
			c := st.Causes
			switch pol {
			case protocol.PolicyDetect:
				if c.Wound+c.Die+c.NoWait != 0 {
					t.Errorf("detect produced avoidance causes: %+v", c)
				}
			case protocol.PolicyNoWait:
				if c.Deadlock+c.Wound+c.Die != 0 {
					t.Errorf("nowait produced non-nowait causes: %+v", c)
				}
			case protocol.PolicyWaitDie:
				if c.Deadlock+c.Wound+c.NoWait != 0 {
					t.Errorf("waitdie produced non-die causes: %+v", c)
				}
			case protocol.PolicyWoundWait:
				if c.Deadlock+c.Die+c.NoWait != 0 {
					t.Errorf("woundwait produced non-wound causes: %+v", c)
				}
			default:
				t.Fatalf("unknown policy %v", pol)
			}
		})
	}
}

// TestWoundWaitAlwaysPrepares pins the wound-vs-one-phase-commit fix: a
// Wound-Wait cluster must run a voting round even for single-shard
// transactions. Wound-Wait is the one policy that kills a RUNNING
// holder, so a shard's wound can race the coordinator's unilateral
// one-phase commit — the audit logs a commit whose writes the wounded
// shard refuses to install. The prepare serializes the two at the
// shard: it either shields the transaction or finds it wounded and
// votes no.
func TestWoundWaitAlwaysPrepares(t *testing.T) {
	cfg := shardedLiveConfig(3, 1, ChaosConfig{})
	cfg.Deadlock = protocol.PolicyWoundWait
	cfg.WAL = true
	cfg.Crash = CrashConfig{CoordProb: 0.01} // coordinator-only: shards never crash
	cl, err := newCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.coord.coordCommitReq(commitReqMsg{txn: 1, client: 0, shards: []int{0}})
	tpc := cl.coord.coord.Counters()
	if tpc.OnePhase != 0 || tpc.Prepares != 1 {
		t.Fatalf("single-shard commit under Wound-Wait must run a voting round: %+v", tpc)
	}
	// A restarted coordinator is a fresh core: it has to be built the way
	// the first one was, or the one-phase fast path is back.
	cl.coord.crashRestart()
	cl.coord.coordCommitReq(commitReqMsg{txn: 2, client: 1, shards: []int{1}})
	tpc = cl.coord.coord.Counters()
	if tpc.OnePhase != 0 || tpc.Prepares != 1 {
		t.Fatalf("single-shard commit after a coordinator restart must still run a voting round: %+v", tpc)
	}
}
