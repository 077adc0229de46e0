package engine

import (
	"runtime"
	"testing"

	"repro/internal/workload"
)

// TestCostBudgets pins what a commit costs on the three DES benchmark
// workloads, at their benchmark points shrunk to 2 000 measured commits
// on seed 1. Kernel events and network messages per commit are exact: a
// change that moves them changed behaviour. Heap allocations per commit
// may fall freely but rise by at most 10 % over the recorded floor;
// lowering a floor is how a performance change keeps its gain.
func TestCostBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const target, warmup = 2_000, 200
	const commits = target + warmup // per commit counts warm-up too, as the benchmark does
	bank := workload.Default()
	bank.Items, bank.MinTxnItems, bank.MaxTxnItems, bank.ReadProb = 100, 2, 2, 0
	for _, c := range []struct {
		name            string
		cfg             Config
		events, msgs    uint64
		allocsPerCommit float64
	}{
		{"des_s2pl", Config{Protocol: S2PL}, 39_691, 26_467, 46.7},
		{"des_g2pl", Config{Protocol: G2PL}, 43_118, 29_612, 76.6},
		{"des_shard", Config{Protocol: S2PL, Shards: 4, CrossRatio: 0.3, Bank: true, InitialBalance: 1000}, 28_828, 22_048, 42.2},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Clients, cfg.Latency, cfg.Seed, cfg.TraceHash = 50, 500, 1, true
			cfg.TargetCommits, cfg.WarmupCommits = target, warmup
			cfg.Workload = workload.Default()
			if cfg.Bank {
				cfg.Workload = bank
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			allocs := float64(after.Mallocs-before.Mallocs) / commits
			t.Logf("events %d (%.2f/commit), msgs %d (%.2f/commit), %.1f allocs/commit",
				res.Events, float64(res.Events)/commits, res.Messages, float64(res.Messages)/commits, allocs)
			if res.Events != c.events {
				t.Errorf("fired %d events (%.2f/commit), budget is exactly %d", res.Events, float64(res.Events)/commits, c.events)
			}
			if uint64(res.Messages) != c.msgs {
				t.Errorf("sent %d messages (%.2f/commit), budget is exactly %d", res.Messages, float64(res.Messages)/commits, c.msgs)
			}
			if allocs > 1.1*c.allocsPerCommit {
				t.Errorf("%.1f allocs/commit, budget is %.1f + 10%%", allocs, c.allocsPerCommit)
			}
		})
	}
}
