package engine

import (
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/serial"
	"repro/internal/workload"
)

// shardedConfig returns a contended sharded configuration that finishes
// quickly under `go test`.
func shardedConfig(k int, seed uint64) Config {
	cfg := testConfig(S2PL)
	cfg.Seed = seed
	cfg.Shards = k
	cfg.CrossRatio = 0.4
	return cfg
}

func TestShardedValidateRejectsBadConfigs(t *testing.T) {
	base := shardedConfig(2, 1)
	mutations := []func(*Config){
		func(c *Config) { c.Shards = -1 },
		func(c *Config) { c.Protocol = G2PL },
		func(c *Config) { c.Protocol = C2PL },
		func(c *Config) { c.CrossRatio = 1.5 },
		func(c *Config) { c.Bank = true }, // workload not 2-item all-write
		func(c *Config) { c.Shards = 30 }, // shard range below MaxTxnItems
	}
	for i, m := range mutations {
		cfg := base
		m(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("mutation %d: invalid sharded config accepted", i)
		}
	}
}

// TestShardedOneShardIsSingleServer pins the K=1 equivalence the golden
// suite relies on: Shards <= 1 routes through the unchanged single-server
// engine, so its trajectory is byte-identical to the unsharded run.
func TestShardedOneShardIsSingleServer(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		base := goldenConfig(S2PL, seed)
		base.TraceHash = true
		one := base
		one.Shards = 1
		h0, h1 := hashOf(t, base), hashOf(t, one)
		if h0 != h1 {
			t.Fatalf("seed %d: Shards=1 trajectory %x differs from single-server %x", seed, h1, h0)
		}
		res := mustRun(t, one)
		if res.Values != nil || res.TwoPC.Txns != 0 {
			t.Fatalf("seed %d: single-server run carries sharded results", seed)
		}
	}
}

// TestShardedDeterministic proves run-to-run determinism of the sharded
// engine at the trajectory level.
func TestShardedDeterministic(t *testing.T) {
	for _, k := range []int{2, 4} {
		cfg := shardedConfig(k, 3)
		cfg.TraceHash = true
		if h1, h2 := hashOf(t, cfg), hashOf(t, cfg); h1 != h2 {
			t.Fatalf("K=%d: trajectory hashes differ across identical runs: %x vs %x", k, h1, h2)
		}
	}
}

// TestShardedSerializable runs the oracle over the sharded engine across
// shard counts, cross-shard ratios and seeds, and checks the 2PC phase
// counters are coherent with the run. The default-ratio runs keep the
// "hash=false" names they have always been reported under; at CrossRatio
// 1 every transaction draws its items from the whole pool, the
// cross-shard-heaviest placement the range map allows.
func TestShardedSerializable(t *testing.T) {
	for _, k := range []int{2, 4} {
		for _, mix := range []struct {
			name  string
			cross float64
		}{{"hash=false", 0.4}, {"cross=1", 1}} {
			for _, seed := range []uint64{1, 2} {
				name := fmt.Sprintf("K%d/%s/seed%d", k, mix.name, seed)
				t.Run(name, func(t *testing.T) {
					cfg := shardedConfig(k, seed)
					cfg.CrossRatio = mix.cross
					res := mustRun(t, cfg)
					if res.Commits != int64(cfg.TargetCommits) {
						t.Fatalf("commits = %d, want %d", res.Commits, cfg.TargetCommits)
					}
					if err := serial.Check(res.History); err != nil {
						t.Fatalf("sharded s-2PL execution not serializable: %v", err)
					}
					tpc := res.TwoPC
					if tpc.Txns == 0 || tpc.CrossTxns == 0 {
						t.Fatalf("no cross-shard traffic: %+v", tpc)
					}
					if tpc.Prepares == 0 || tpc.VotesYes == 0 {
						t.Fatalf("no voting rounds ran: %+v", tpc)
					}
					if tpc.Commits+tpc.Aborts != tpc.Txns {
						t.Fatalf("commit requests unaccounted: %+v", tpc)
					}
					if cr := tpc.CrossRatio(); cr <= 0 || cr >= 1 {
						t.Fatalf("cross ratio %v out of range", cr)
					}
					if res.Values == nil {
						t.Fatal("sharded run returned no value store")
					}
				})
			}
		}
	}
}

// TestShardedBankInvariant is the cross-shard atomicity oracle end to
// end: bank transfers move a deterministic amount between two accounts
// under 2PC, the run drains to quiescence, and the global balance sum
// must come back exactly — a torn commit (installed at one shard, aborted
// at the other) would show up as a changed total.
func TestShardedBankInvariant(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			wl := workload.Default()
			wl.MinTxnItems = 2
			wl.MaxTxnItems = 2
			wl.ReadProb = 0
			cfg := Config{
				Protocol:       S2PL,
				Clients:        10,
				Workload:       wl,
				Latency:        50,
				Seed:           seed,
				TargetCommits:  400,
				WarmupCommits:  50,
				RecordHistory:  true,
				MaxTime:        50_000_000,
				Shards:         4,
				CrossRatio:     0.6,
				Bank:           true,
				InitialBalance: 100,
			}
			res := mustRun(t, cfg)
			if res.Commits != int64(cfg.TargetCommits) {
				t.Fatalf("commits = %d", res.Commits)
			}
			if err := serial.Check(res.History); err != nil {
				t.Fatalf("bank execution not serializable: %v", err)
			}
			var sum int64
			for i := 0; i < wl.Items; i++ {
				sum += res.Values[ids.Item(i)]
			}
			want := int64(wl.Items) * cfg.InitialBalance
			if sum != want {
				t.Fatalf("global balance %d, want %d: a transfer tore across shards", sum, want)
			}
			if res.TwoPC.CrossTxns == 0 || res.TwoPC.Prepares == 0 {
				t.Fatalf("bank run exercised no cross-shard commits: %+v", res.TwoPC)
			}
		})
	}
}

// TestShardedBankSurvivesPartition drops the outage window on the 2PC
// path: prepares, votes and decisions caught mid-flight are held to the
// heal point, and atomicity must come out intact — the balance sum is
// exact and the history serializable.
func TestShardedBankSurvivesPartition(t *testing.T) {
	wl := workload.Default()
	wl.MinTxnItems = 2
	wl.MaxTxnItems = 2
	wl.ReadProb = 0
	cfg := Config{
		Protocol:       S2PL,
		Clients:        10,
		Workload:       wl,
		Latency:        50,
		Seed:           1,
		TargetCommits:  400,
		WarmupCommits:  50,
		RecordHistory:  true,
		MaxTime:        50_000_000,
		Shards:         4,
		CrossRatio:     0.6,
		Bank:           true,
		InitialBalance: 100,
		PartitionAt:    10_000,
		PartitionFor:   8_000,
	}
	res := mustRun(t, cfg)
	if res.Commits != int64(cfg.TargetCommits) {
		t.Fatalf("commits = %d", res.Commits)
	}
	if res.Held == 0 {
		t.Fatal("partition window caught no 2PC traffic")
	}
	if err := serial.Check(res.History); err != nil {
		t.Fatalf("partitioned bank execution not serializable: %v", err)
	}
	var sum int64
	for i := 0; i < wl.Items; i++ {
		sum += res.Values[ids.Item(i)]
	}
	if want := int64(wl.Items) * cfg.InitialBalance; sum != want {
		t.Fatalf("global balance %d, want %d: the partition tore a transfer", sum, want)
	}
}

// TestShardedZipfHotShard checks the skew knob reaches the sharded
// engine: with range sharding, a Zipf access pattern concentrates
// shard-confined transactions on the shard owning the hot head of the
// item space, and the extra contention is visible as more deadlock
// aborts than the uniform pattern produces under the same seeds.
func TestShardedZipfHotShard(t *testing.T) {
	run := func(access workload.Pattern, theta float64) int64 {
		var aborts int64
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := shardedConfig(4, seed)
			cfg.RecordHistory = false
			cfg.CrossRatio = 0.2
			cfg.Workload.Access = access
			cfg.Workload.ZipfTheta = theta
			res := mustRun(t, cfg)
			aborts += res.Aborts
		}
		return aborts
	}
	uniform := run(workload.Uniform, 0)
	hot := run(workload.Zipf, 0.9)
	if hot <= uniform {
		t.Fatalf("hot-shard skew did not raise contention: zipf aborts %d <= uniform %d", hot, uniform)
	}
}
