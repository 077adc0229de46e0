#!/usr/bin/env bash
# CI entry point: the same gate a developer runs locally with `make check`,
# plus the race-enabled pass over the concurrent packages. Kept as a script
# so the GitHub workflow, local hooks and any other automation stay in
# lockstep.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== make check (gofmt, go vet, repolint, build, tests, bench smoke) =="
make check

# Machine-readable lint report: every finding, suppressed ones included,
# archived as a build artifact so a review can audit what the
# //repolint:allow comments currently waive without re-running the tool.
echo "== repolint -format=json: archive machine-readable report =="
mkdir -p artifacts
lint_start=$(date +%s)
go run ./cmd/repolint -format=json >artifacts/repolint.json
lint_end=$(date +%s)
echo "repolint: full-module JSON pass took $((lint_end - lint_start))s," \
	"$(grep -c '"check"' artifacts/repolint.json || true) finding(s) archived"

# The DES command must print the same bytes for the same flags: two
# traced runs of one point, timing lines dropped, compared with diff.
echo "== DES command determinism: experiments -id point, twice =="
des_dir=$(mktemp -d)
go build -o "$des_dir/experiments" ./cmd/experiments
for run in a b; do
	"$des_dir/experiments" -id point -commits 500 -reps 2 -trace |
		grep -v '^   (' >"$des_dir/$run.txt"
done
diff "$des_dir/a.txt" "$des_dir/b.txt"
rm -rf "$des_dir"

echo "== race detector: live cluster + history audit =="
make race

echo "== race detector: live c-2PL serializability oracle + leak check =="
go test -race ./internal/live -run 'C2PL|TestShutdownLeaksNoGoroutines' -count=1

echo "== race detector: adversarial-network chaos sweep (short seeds) =="
go test -race -short ./internal/live -run 'TestChaos|TestStallTimeout|TestZeroLatency' -count=1

echo "== race detector: lossy links — ARQ retransmission + drop chaos =="
go test -race ./internal/live -run 'TestARQ|TestChaosDrop|TestResequencer' -count=1
# The same transport core on modelled time: the twin of the live
# partition test at 5 000 seeds, and FuzzTransport's random interleavings.
go test ./internal/transport -run TestPartitionTwin -twin.seeds 5000 -count=1
go test ./internal/transport -run '^$' -fuzz FuzzTransport -fuzztime 10s

echo "== race detector: sharded 2PC cluster — chaos matrix + bank invariant =="
go test -race -short ./internal/live -run 'TestSharded' -count=1

echo "== race detector: failure layer — partition windows, crash-restart, WAL redo =="
go test -race ./internal/live -run 'TestChaosPartition|TestWAL|TestShardedCrash' -count=1
go test ./internal/engine -run 'TestPartitionWindowDelaysButCompletes|TestShardedBankSurvivesPartition' -count=1
go test ./internal/netmodel -count=1

echo "== race detector: coordinator-crash soak — termination protocol + WAL checkpointing =="
go test -race ./internal/live -run 'TestShardedCoordCrash|TestShardedCorrelatedCrash|TestWALCheckpointBoundsLog|TestCoordWALReplay|TestCoordRetryAfterPresumedAbort' -count=1
go test ./internal/protocol -run 'TestInquire|TestRecover|TestVoteEpoch|TestShardRestarted|TestParticipant|TestCoordinator|TestTwoPCRoundAllocs' -count=1

echo "== race detector: deadlock-policy sweep (4 policies x 3 protocols, oracle-checked) =="
go test -race ./internal/live -run 'TestChaosPolicyMatrix|TestShardedPolicyChaos|TestPolicyStatsSurface' -count=1
go test ./internal/engine -run 'TestPolic|TestShardedPolic' -count=1
go test ./internal/protocol -run 'TestJudgeBlock|TestNoWait|TestWaitDie|TestWoundWait' -count=1

echo "== golden trajectories: conformance against committed hashes =="
go test ./internal/engine -run Golden

# A change to the golden file is a change to every pinned trajectory; it
# must never ride along unannounced. If HEAD touches the goldens, the
# commit message body has to carry a "golden-regen:" line explaining the
# regeneration (go test ./internal/engine -run TestGoldenTrajectories -update).
GOLDEN=internal/engine/testdata/golden_trajectories.txt
if git rev-parse --verify -q HEAD^ >/dev/null &&
	! git diff --quiet HEAD^ HEAD -- "$GOLDEN"; then
	echo "== golden file changed in HEAD; checking for a golden-regen note =="
	if ! git log -1 --format=%B | grep -q '^golden-regen:'; then
		echo "FAIL: $GOLDEN changed without a 'golden-regen:' note in the commit" >&2
		echo "message body. Regenerate deliberately and say why, e.g.:" >&2
		echo "    golden-regen: MR1W gate change moves every g-2PL trajectory" >&2
		exit 1
	fi
fi

echo "== fuzz: forward-list reorder + precedence-graph invariants (10s each) =="
go test ./internal/fwdlist -run '^$' -fuzz FuzzForwardListReorder -fuzztime 10s
go test ./internal/prec -run '^$' -fuzz FuzzPrecAcyclic -fuzztime 10s

echo "== fuzz: wait-for and precedence graphs, lock table and s-2PL core against their map-based reference models (10s each) =="
go test ./internal/wfg -run '^$' -fuzz FuzzWFGModel -fuzztime 10s
go test ./internal/prec -run '^$' -fuzz FuzzPrecModel -fuzztime 10s
go test ./internal/lock -run '^$' -fuzz FuzzLockModel -fuzztime 10s
go test ./internal/protocol -run '^$' -fuzz FuzzLockServerModel -fuzztime 10s

echo "== fuzz: 2PC coordinator/participant atomicity (10s) =="
go test ./internal/protocol -run '^$' -fuzz FuzzCoordinator2PC -fuzztime 10s

echo "== fuzz: g-2PL server and client cores, one cluster (10s each) =="
go test ./internal/protocol -run '^$' -fuzz FuzzGroupServer -fuzztime 10s
go test ./internal/protocol -run '^$' -fuzz FuzzGroupClient -fuzztime 10s

echo "CI gate passed."
