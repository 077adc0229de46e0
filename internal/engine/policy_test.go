package engine

import (
	"fmt"
	"testing"

	"repro/internal/protocol"
	"repro/internal/serial"
)

// TestPoliciesSerializable sweeps every deadlock policy across every
// protocol and applies the serializability oracle: whatever the policy
// aborts (or refuses to block), the committed history must stay
// equivalent to a serial one.
func TestPoliciesSerializable(t *testing.T) {
	for _, pol := range protocol.DeadlockPolicies() {
		for _, proto := range []Protocol{S2PL, G2PL, C2PL} {
			t.Run(fmt.Sprintf("%v/%v", pol, proto), func(t *testing.T) {
				cfg := testConfig(proto)
				cfg.Deadlock = pol
				res := mustRun(t, cfg)
				if err := serial.Check(res.History); err != nil {
					t.Fatalf("not serializable under %v: %v", pol, err)
				}
				if res.Commits < int64(cfg.TargetCommits) {
					t.Fatalf("commits = %d, want >= %d", res.Commits, cfg.TargetCommits)
				}
			})
		}
	}
}

// TestPolicyCauseAccounting pins which abort-cause counters each policy
// is allowed to touch. The single-server s-2PL and c-2PL cores must
// never report a cycle under an avoidance policy (their wait graphs stay
// empty by construction); g-2PL keeps its dispatch-time cycle check as a
// backstop, so only the blocking-time causes are constrained there.
func TestPolicyCauseAccounting(t *testing.T) {
	for _, proto := range []Protocol{S2PL, C2PL} {
		for _, pol := range protocol.DeadlockPolicies() {
			t.Run(fmt.Sprintf("%v/%v", pol, proto), func(t *testing.T) {
				cfg := testConfig(proto)
				cfg.RecordHistory = false
				cfg.Deadlock = pol
				res := mustRun(t, cfg)
				c := res.Causes
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
}

// TestShardedPoliciesSerializable runs the 2PC sharded topology under
// every policy: wounds and dies now interleave with prepare/decide
// rounds, and the serializability and commit-target oracles must hold.
func TestShardedPoliciesSerializable(t *testing.T) {
	for _, pol := range protocol.DeadlockPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := shardedConfig(3, 1)
			cfg.Deadlock = pol
			res := mustRun(t, cfg)
			if err := serial.Check(res.History); err != nil {
				t.Fatalf("sharded run not serializable under %v: %v", pol, err)
			}
			if res.Commits < int64(cfg.TargetCommits) {
				t.Fatalf("commits = %d, want >= %d", res.Commits, cfg.TargetCommits)
			}
		})
	}
}

// TestPolicyTailMetricsPopulated: every run must fill the percentile
// samples the policy matrix reports — a policy sweep whose p99 column
// silently read zero would compare nothing.
func TestPolicyTailMetricsPopulated(t *testing.T) {
	for _, pol := range protocol.DeadlockPolicies() {
		cfg := testConfig(S2PL)
		cfg.RecordHistory = false
		cfg.Deadlock = pol
		res := mustRun(t, cfg)
		if res.RespSample.N() == 0 {
			t.Errorf("%v: RespSample empty", pol)
		}
		p50, p99 := res.RespSample.Percentile(0.50), res.RespSample.Percentile(0.99)
		if p50 <= 0 || p99 < p50 {
			t.Errorf("%v: percentiles p50=%v p99=%v", pol, p50, p99)
		}
		if res.BlockedSample.N() == 0 {
			t.Errorf("%v: BlockedSample empty", pol)
		}
	}
}
