package live

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/serial"
	"repro/internal/workload"
)

func testConfig(p Protocol) Config {
	wl := workload.Default()
	wl.Items = 10
	return Config{
		Protocol:      p,
		Clients:       8,
		Latency:       200 * time.Microsecond,
		Workload:      wl,
		TxnsPerClient: 12,
		Seed:          1,
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("live.Run(%v): %v", cfg.Protocol, err)
	}
	return res
}

func TestValidate(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Clients = 0 },
		func(c *Config) { c.Latency = -time.Second },
		func(c *Config) { c.TxnsPerClient = 0 },
		func(c *Config) { c.Protocol = Protocol(7) },
		func(c *Config) { c.Workload.Items = 0 },
		func(c *Config) { c.StallTimeout = -time.Second },
		func(c *Config) { c.Chaos.Reorder = 2 },
		func(c *Config) { c.Chaos.Duplicate = -0.5 },
		func(c *Config) { c.Chaos.Jitter = -time.Millisecond },
		func(c *Config) { c.Chaos.Drop = 1.5 },
		func(c *Config) { c.Chaos.Drop = -0.1 },
		func(c *Config) { c.ARQ.RTO = -time.Millisecond },
		func(c *Config) { c.ARQ = ARQConfig{RTO: 10 * time.Millisecond, MaxRTO: time.Millisecond} },
		func(c *Config) { c.ARQ.RetransmitCap = -1 },
		func(c *Config) { c.ARQ.AckDelay = -time.Microsecond },
		func(c *Config) { c.Chaos.Partition.Prob = -0.1 },
		func(c *Config) { c.Chaos.Partition.Prob = 1.5 },
		func(c *Config) { c.Chaos.Partition = PartitionConfig{Prob: 0.5, Down: -time.Millisecond} },
		func(c *Config) {
			c.Chaos.Partition = PartitionConfig{Prob: 0.5, Down: 10 * time.Millisecond, Every: 5 * time.Millisecond}
		},
		func(c *Config) { c.Crash.Prob = -0.1 },
		func(c *Config) { c.Crash.Prob = 1.5 },
		func(c *Config) { c.Crash.Max = -1 },
		// WAL and Crash are sharded-mode features: a single-site run has no
		// shard sites to log or crash.
		func(c *Config) { c.WAL = true },
		func(c *Config) { c.Shards = 2; c.Crash = CrashConfig{Prob: 0.1}; c.WAL = false },
		func(c *Config) { c.Crash = CrashConfig{Prob: 0.1}; c.WAL = true },
	}
	for i, mut := range cases {
		cfg := testConfig(S2PL)
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestProtocolString(t *testing.T) {
	if S2PL.String() != "s-2PL" || G2PL.String() != "g-2PL" || C2PL.String() != "c-2PL" {
		t.Fatal("protocol names wrong")
	}
}

func TestS2PLLiveCompletes(t *testing.T) {
	res := mustRun(t, testConfig(S2PL))
	want := int64(8 * 12)
	if res.Stats.Commits != want {
		t.Fatalf("commits = %d, want %d", res.Stats.Commits, want)
	}
	if res.Stats.Messages == 0 {
		t.Fatal("no messages counted")
	}
	if res.Stats.MeanResponse <= 0 {
		t.Fatal("mean response not positive")
	}
}

func TestG2PLLiveCompletes(t *testing.T) {
	res := mustRun(t, testConfig(G2PL))
	want := int64(8 * 12)
	if res.Stats.Commits != want {
		t.Fatalf("commits = %d, want %d", res.Stats.Commits, want)
	}
}

func TestC2PLLiveCompletes(t *testing.T) {
	res := mustRun(t, testConfig(C2PL))
	want := int64(8 * 12)
	if res.Stats.Commits != want {
		t.Fatalf("commits = %d, want %d", res.Stats.Commits, want)
	}
	if res.Stats.Messages == 0 {
		t.Fatal("no messages counted")
	}
}

func TestS2PLLiveSerializable(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := testConfig(S2PL)
		cfg.Seed = seed
		res := mustRun(t, cfg)
		if err := serial.Check(res.History); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestG2PLLiveSerializable(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := testConfig(G2PL)
		cfg.Seed = seed
		res := mustRun(t, cfg)
		if err := serial.Check(res.History); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestG2PLLiveServerStateBounded pins the g-2PL footprint at both ends to
// the transactions in progress. The server gets no commit message, so a
// transaction has to leave the precedence graph and the transaction table
// with its last done report; a server that keeps them grows with the
// commit count (4 992 precedence nodes after these 6 400 commits) and every
// ordering walks the dead. A client forgets an ended transaction once it
// has passed on everything it was sent, so after shutdown none is left.
func TestG2PLLiveServerStateBounded(t *testing.T) {
	cfg := Config{Protocol: G2PL, Clients: 8, Workload: workload.Default(), TxnsPerClient: 800, Seed: 1}
	cl, err := newCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.run()
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Check(res.History); err != nil {
		t.Fatal(err)
	}
	// The site goroutines are gone; the cores are safe to read.
	waits, order, txns := cl.server.group.Footprint()
	if waits != 0 || order > cfg.Clients || txns > cfg.Clients {
		t.Fatalf("after %d commits the server still holds %d wait edges, %d precedence nodes, %d transactions; want 0, <=%d, <=%d",
			res.Stats.Commits, waits, order, txns, cfg.Clients, cfg.Clients)
	}
	for _, c := range cl.clients {
		if len(c.residual) != 0 {
			t.Fatalf("after %d commits client %v still keeps %d ended transactions", res.Stats.Commits, c.id, len(c.residual))
		}
	}
}

func TestC2PLLiveSerializable(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := testConfig(C2PL)
		cfg.Seed = seed
		res := mustRun(t, cfg)
		if err := serial.Check(res.History); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestG2PLLiveBasicModeSerializable(t *testing.T) {
	cfg := testConfig(G2PL)
	cfg.NoMR1W = true
	res := mustRun(t, cfg)
	if err := serial.Check(res.History); err != nil {
		t.Fatal(err)
	}
}

func TestLiveContended(t *testing.T) {
	for _, p := range []Protocol{S2PL, G2PL, C2PL} {
		cfg := testConfig(p)
		cfg.Workload.Items = 4
		cfg.Workload.MaxTxnItems = 3
		cfg.Workload.ReadProb = 0.3
		cfg.Clients = 10
		cfg.TxnsPerClient = 8
		res := mustRun(t, cfg)
		if err := serial.Check(res.History); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Stats.Commits != 80 {
			t.Fatalf("%v commits = %d", p, res.Stats.Commits)
		}
	}
}

func TestLiveReadOnly(t *testing.T) {
	for _, p := range []Protocol{S2PL, G2PL, C2PL} {
		cfg := testConfig(p)
		cfg.Workload.ReadProb = 1.0
		res := mustRun(t, cfg)
		if err := serial.Check(res.History); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if p != G2PL && res.Stats.Aborts != 0 {
			t.Fatalf("read-only %v aborted %d", p, res.Stats.Aborts)
		}
	}
}

func TestLiveWriteOnly(t *testing.T) {
	for _, p := range []Protocol{S2PL, G2PL, C2PL} {
		cfg := testConfig(p)
		cfg.Workload.ReadProb = 0
		res := mustRun(t, cfg)
		if err := serial.Check(res.History); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
}

func TestLiveZeroLatency(t *testing.T) {
	cfg := testConfig(G2PL)
	cfg.Latency = 0
	res := mustRun(t, cfg)
	if err := serial.Check(res.History); err != nil {
		t.Fatal(err)
	}
}

func TestLiveSingleClientNoAborts(t *testing.T) {
	for _, p := range []Protocol{S2PL, G2PL, C2PL} {
		cfg := testConfig(p)
		cfg.Clients = 1
		cfg.TxnsPerClient = 20
		res := mustRun(t, cfg)
		if res.Stats.Aborts != 0 {
			t.Fatalf("%v: single client aborted %d times", p, res.Stats.Aborts)
		}
		if err := serial.Check(res.History); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
}

// TestLiveValuesMatchVersions checks the store carries real data end to
// end: a writer installs its own id as both version and value, the two
// travel together in every grant, forward and return, so after a run each
// item's value at the server must equal its version — and some item must
// have been written at all.
func TestLiveValuesMatchVersions(t *testing.T) {
	for _, p := range []Protocol{S2PL, G2PL, C2PL} {
		cl, err := newCluster(testConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.run(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		// The site goroutines are gone; the store is safe to read.
		if len(cl.server.versions) == 0 {
			t.Fatalf("%v: no item was ever written", p)
		}
		for item, ver := range cl.server.versions {
			if val := cl.server.values[item]; val != int64(ver) {
				t.Fatalf("%v: %v rests at version %v with value %d", p, item, ver, val)
			}
		}
	}
}

// TestShutdownLeaksNoGoroutines runs a full cluster under both protocols
// and asserts that every goroutine the cluster started — server loop,
// client loops, delivery timers, shutdown drain helpers — has exited once
// Run returns. The retry loop tolerates the runtime's lag in reaping
// finished goroutines. CI runs this under -race, so it doubles as the
// quiesce/shutdown data-race probe.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	for _, p := range []Protocol{S2PL, G2PL, C2PL} {
		before := runtime.NumGoroutine()
		mustRun(t, testConfig(p))
		after := runtime.NumGoroutine()
		deadline := time.Now().Add(5 * time.Second)
		for after > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("%v: cluster leaked goroutines: %d before, %d after\n%s",
				p, before, after, buf[:n])
		}
	}
}
