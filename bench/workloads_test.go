package bench_test

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/history"
	"repro/internal/ids"
	"repro/internal/live"
	"repro/internal/serial"
	wl "repro/internal/workload"
)

// workload is one benchmark workload: a closed loop at a stated client
// count through one of the system's two public drivers. Exactly one of
// des and live is set.
type workload struct {
	name string
	des  *engine.Config
	live *live.Config
}

func (w workload) isDES() bool { return w.des != nil }

// Closed-loop population: the paper's Table 1 operating point for the
// simulator, and enough goroutine clients to saturate two cores live.
const (
	desClients  = 50
	liveClients = 8
	// sWAN is the paper's Table 2 small-WAN one-way latency, in ticks.
	sWAN = 500
	// bankBalance seeds every account of the bank-transfer workloads.
	bankBalance = 1000
)

// scaled shrinks a workload size for the smoke mode; never below one.
func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 1 {
		return v
	}
	return 1
}

// saturation is the paper's access profile with think and idle time
// removed: every live workload runs it, so the wall clock measures code
// and never time.Sleep granularity.
func saturation() wl.Config {
	c := wl.Default()
	c.ThinkMin, c.ThinkMax, c.IdleMin, c.IdleMax = 0, 0, 0, 0
	return c
}

// bank turns a profile into 2-item all-write transfers over 100 accounts,
// the shape engine.Config.Bank and live.Config.Bank require.
func bank(c wl.Config) wl.Config {
	c.Items = 100
	c.MinTxnItems, c.MaxTxnItems = 2, 2
	c.ReadProb = 0
	return c
}

// workloads returns the seven workloads at the given size scale (1 is the
// benchmark, 0.01 the smoke mode). Names are final: later changes are
// judged by them. BENCHMARK.json says why each one exists.
func workloads(scale float64) []workload {
	des := func(p engine.Protocol, target int) engine.Config {
		return engine.Config{
			Protocol:      p,
			Clients:       desClients,
			Workload:      wl.Default(),
			Latency:       sWAN,
			TargetCommits: scaled(target, scale),
			WarmupCommits: scaled(target/10, scale),
			TraceHash:     true,
		}
	}
	desShard := des(engine.S2PL, 40_000)
	desShard.Workload = bank(wl.Default())
	desShard.Shards, desShard.CrossRatio = 4, 0.3
	desShard.Bank, desShard.InitialBalance = true, bankBalance

	cluster := func(p live.Protocol, txns int) live.Config {
		return live.Config{
			Protocol:      p,
			Clients:       liveClients,
			Workload:      saturation(),
			TxnsPerClient: scaled(txns, scale),
		}
	}
	shardWAL := cluster(live.S2PL, 5_000)
	shardWAL.Workload = bank(saturation())
	shardWAL.Shards, shardWAL.CrossRatio = 4, 0.3
	shardWAL.Bank, shardWAL.InitialBalance = true, bankBalance
	shardWAL.WAL, shardWAL.WALCheckpointEvery = true, 256

	faults := shardWAL
	faults.TxnsPerClient = scaled(2_500, scale)
	faults.Chaos = live.ChaosConfig{Drop: 0.002, Duplicate: 0.01, Reorder: 0.05}
	faults.ARQ = live.ARQConfig{RTO: 2 * time.Millisecond}
	faults.Crash = live.CrashConfig{Prob: 0.0005, CoordProb: 0.0005, Max: 20}

	s2pl, g2pl := des(engine.S2PL, 20_000), des(engine.G2PL, 20_000)
	liveS2PL, liveG2PL := cluster(live.S2PL, 5_000), cluster(live.G2PL, 5_000)
	return []workload{
		{name: "des_s2pl", des: &s2pl},
		{name: "des_g2pl", des: &g2pl},
		{name: "des_shard", des: &desShard},
		{name: "live_s2pl", live: &liveS2PL},
		{name: "live_g2pl", live: &liveG2PL},
		{name: "live_shard_wal", live: &shardWAL},
		{name: "live_faults", live: &faults},
	}
}

func workloadByName(name string, scale float64) (workload, bool) {
	for _, w := range workloads(scale) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// liveTick is the wall-clock length internal/live gives one simulation
// time unit (its unexported tick constant). The benchmark uses it to
// state simulated commit latencies in the same unit as live ones.
const liveTick = 20 * time.Microsecond

// rep is what one timed Run call produced.
type rep struct {
	wall    time.Duration
	commits int64 // every commit the call performed (DES: warm-up included)
	aborts  int64
	msgs    int64
	mallocs uint64
	bytes   uint64
	// Client-observed begin-to-commit latency in microseconds. Live: wall
	// clock. DES: virtual time, one tick counted as liveTick.
	p50, p99, mean float64
	usefulPct      float64 // commits over finished transaction instances

	des  engine.Result // zero for live workloads
	live live.Stats    // zero for DES workloads

	// verify checks the call's output; it runs outside the timed region.
	verify func() error
}

// run makes one timed Run call on the given seed.
func (w workload) run(seed uint64) (rep, error) {
	if w.isDES() {
		cfg := *w.des
		cfg.Seed = seed
		return runDES(cfg, nil)
	}
	cfg := *w.live
	cfg.Seed = seed
	return runLive(cfg)
}

// checked follows a timed call with its output check. The rep is valid
// whenever the Run call itself succeeded, whatever the check says.
func checked(r rep, err error) (rep, error) {
	if err != nil {
		return r, err
	}
	return r, r.verify()
}

// timed brackets fn with the allocation counters and the wall clock.
func timed(fn func()) (wall time.Duration, mallocs, bytes uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall = time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// runDES times one engine.Run call. returned, when non-nil, is called
// the moment Run returns, still inside the timed region: the tracer
// closes its last span there.
func runDES(cfg engine.Config, returned func()) (rep, error) {
	var res engine.Result
	var err error
	r := rep{}
	r.wall, r.mallocs, r.bytes = timed(func() {
		res, err = engine.Run(cfg)
		if returned != nil {
			returned()
		}
	})
	if err != nil {
		return r, err
	}
	us := float64(liveTick) / float64(time.Microsecond)
	r.commits = int64(cfg.TargetCommits + cfg.WarmupCommits)
	r.aborts = res.Aborts
	r.msgs = res.Messages
	r.p50 = res.RespSample.Percentile(0.50) * us
	r.p99 = res.RespSample.Percentile(0.99) * us
	r.mean = res.MeanResponse() * us
	r.usefulPct = 100 - res.AbortPct()
	r.des = res
	r.verify = func() error {
		if res.Commits != int64(cfg.TargetCommits) {
			return fmt.Errorf("commit target missed: %d of %d", res.Commits, cfg.TargetCommits)
		}
		if cfg.Bank {
			return checkBank(res.Values, cfg.Workload.Items, cfg.InitialBalance)
		}
		return nil
	}
	return r, nil
}

func runLive(cfg live.Config) (rep, error) {
	var res *live.Result
	var err error
	r := rep{}
	r.wall, r.mallocs, r.bytes = timed(func() { res, err = live.Run(cfg) })
	if err != nil {
		return r, err
	}
	st := res.Stats
	r.commits, r.aborts, r.msgs = st.Commits, st.Aborts, st.Messages
	r.p50 = float64(st.P50) / float64(time.Microsecond)
	r.p99 = float64(st.P99) / float64(time.Microsecond)
	r.mean = float64(st.MeanResponse) / float64(time.Microsecond)
	r.usefulPct = 100 * float64(st.Commits) / float64(st.Commits+st.Aborts)
	r.live = st
	r.verify = func() error {
		if want := int64(cfg.Clients * cfg.TxnsPerClient); st.Commits != want {
			return fmt.Errorf("commit target missed: %d of %d", st.Commits, want)
		}
		if err := checkHistory(res.History); err != nil {
			return err
		}
		if cfg.Bank {
			return checkBank(res.Values, cfg.Workload.Items, cfg.InitialBalance)
		}
		return nil
	}
	return r, nil
}

// checkHistory is the serializability oracle every live repetition (and
// every DES determinism re-run) passes through.
func checkHistory(log *history.Log) error {
	if log == nil {
		return fmt.Errorf("no history recorded")
	}
	if err := serial.Check(log); err != nil {
		return fmt.Errorf("history not serializable: %w", err)
	}
	return nil
}

// checkBank asserts the transfer invariant: the balance sum is what the
// accounts were seeded with.
func checkBank(values map[ids.Item]int64, items int, initial int64) error {
	var sum int64
	for _, v := range values {
		sum += v
	}
	if want := int64(items) * initial; len(values) != items || sum != want {
		return fmt.Errorf("bank invariant broken: %d accounts sum to %d, want %d accounts and %d", len(values), sum, items, want)
	}
	return nil
}

// checkDeterminism re-runs a DES repetition on its own seed, this time
// recording the history, and requires the same trajectory and a
// serializable execution. History recording observes the run without
// scheduling anything, so the hash must not move.
func (w workload) checkDeterminism(seed uint64, first rep) error {
	cfg := *w.des
	cfg.Seed = seed
	cfg.RecordHistory = true
	again, err := engine.Run(cfg)
	if err != nil {
		return err
	}
	a, b := first.des, again
	if a.TrajectoryHash != b.TrajectoryHash || a.Commits != b.Commits || a.Messages != b.Messages {
		return fmt.Errorf("same seed, different run: hash %016x/%016x commits %d/%d messages %d/%d",
			a.TrajectoryHash, b.TrajectoryHash, a.Commits, b.Commits, a.Messages, b.Messages)
	}
	return checkHistory(again.History)
}
