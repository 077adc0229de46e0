package engine

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The golden-trajectory suite pins the exact kernel event schedule of a
// seed×protocol×params matrix. A refactor that preserves behaviour leaves
// every hash untouched; one that changes the message schedule — even by
// reordering two same-tick sends — fails here before any statistic moves.
//
// Regenerate after an intentional protocol change with:
//
//	go test ./internal/engine -run TestGoldenTrajectories -update

var updateGolden = flag.Bool("update", false, "rewrite the golden trajectory hashes")

const goldenPath = "testdata/golden_trajectories.txt"

// goldenCase is one matrix point: small enough that the whole matrix runs
// in a few seconds, contended enough that grants, recalls, deadlocks and
// aborts all appear in the trajectory.
type goldenCase struct {
	name string
	cfg  Config
	// base names the same configuration without its partition window. A
	// partition case must hash differently from its base (and hold
	// messages, see hashOf), or the window fell outside the run and the
	// row pins nothing.
	base string
}

func goldenConfig(p Protocol, seed uint64) Config {
	wl := workload.Default()
	return Config{
		Protocol:      p,
		Clients:       8,
		Workload:      wl,
		Latency:       50,
		Seed:          seed,
		TargetCommits: 120,
		WarmupCommits: 20,
		MaxTime:       50_000_000,
	}
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, p := range []Protocol{S2PL, G2PL, C2PL} {
		for _, seed := range []uint64{1, 7} {
			cfg := goldenConfig(p, seed)
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%s/seed%d", p, seed),
				cfg:  cfg,
			})
			// A second parameter point per protocol: higher contention and,
			// for g-2PL, the ablation-relevant toggles exercised.
			hot := cfg
			hot.Workload.Items = 10
			hot.Workload.ReadProb = 0.25
			if p == G2PL {
				hot.WindowDelay = 20
				hot.MaxForwardList = 3
			}
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%s/seed%d/hot", p, seed),
				cfg:  hot,
			})
			// Ablation points pinning the optimization-specific paths: the
			// MR1W delivery/gating rules for g-2PL and the cache-retention
			// (recall/release burst) rules for c-2PL.
			switch p {
			case G2PL:
				abl := hot
				abl.NoMR1W = true
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s/seed%d/nomr1w", p, seed),
					cfg:  abl,
				})
			case C2PL:
				abl := hot
				abl.NoCache = true
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s/seed%d/nocache", p, seed),
					cfg:  abl,
				})
			}
		}
	}
	// Sharded s-2PL points (tentpole): K shard sites plus the 2PC
	// coordinator, range-mapped, with a cross-shard fraction big enough
	// that prepares, votes and global-deadlock victims all appear. The
	// single-server points above are untouched — K <= 1 routes through
	// the unchanged engine, pinned by TestShardedOneShardIsSingleServer.
	for _, k := range []int{2, 4} {
		for _, seed := range []uint64{1, 7} {
			cfg := goldenConfig(S2PL, seed)
			cfg.Shards = k
			cfg.CrossRatio = 0.4
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%s/shards%d/seed%d", S2PL, k, seed),
				cfg:  cfg,
			})
		}
	}
	// Deadlock-policy points at the hot parameters: wounds and dies fire
	// 150-260 times per run on every engine, including mid-think, so these
	// rows pin the clients' "still live?" re-checks in the think and commit
	// timers — paths the detect-only rows above never reach.
	for _, pol := range []protocol.DeadlockPolicy{protocol.PolicyWoundWait, protocol.PolicyWaitDie} {
		for _, k := range []int{0, 2} {
			for _, p := range []Protocol{S2PL, G2PL, C2PL} {
				if k > 0 && p != S2PL {
					continue
				}
				cfg := goldenConfig(p, 1)
				cfg.Workload.Items = 10
				cfg.Workload.ReadProb = 0.25
				cfg.Deadlock = pol
				name := fmt.Sprintf("%s/seed1/hot/%s", p, pol)
				if k > 0 {
					cfg.Shards = k
					cfg.CrossRatio = 0.4
					name = fmt.Sprintf("%s/shards%d/seed1/hot/%s", p, k, pol)
				}
				cases = append(cases, goldenCase{name: name, cfg: cfg})
			}
		}
	}
	// Two g-2PL client-side paths at the same hot parameters that no row
	// above reaches: a read-expansion extra is on no forward list and
	// releases straight to the server (9 of them in this run), and
	// least-held is the only victim rule that reads the clients' held counts
	// (98 cycles resolved by them, 75 aborts against the requester rule's 78).
	for _, v := range []struct {
		name string
		set  func(*Config)
	}{
		{"readexpand", func(c *Config) { c.ReadExpand = true }},
		{"leastheld", func(c *Config) { c.Victim = protocol.VictimLeastHeld }},
	} {
		cfg := goldenConfig(G2PL, 1)
		cfg.Workload.Items = 10
		cfg.Workload.ReadProb = 0.25
		v.set(&cfg)
		cases = append(cases, goldenCase{name: fmt.Sprintf("%s/seed1/hot/%s", G2PL, v.name), cfg: cfg})
	}
	// Partition-window points (DESIGN.md §15): one outage inside every
	// run (the shortest lasts 12 760 ticks), long enough to catch in-flight
	// rounds of every protocol, plus a sharded point where held
	// prepare/decide messages stress 2PC. The window changes delivery
	// times, so these carry their own hashes; every case above runs with
	// PartitionFor 0 and must stay byte-identical.
	for _, base := range []string{"s-2PL/seed1", "g-2PL/seed1", "c-2PL/seed1", "s-2PL/shards2/seed1"} {
		i := slices.IndexFunc(cases, func(c goldenCase) bool { return c.name == base })
		cfg := cases[i].cfg
		cfg.PartitionAt = 4_000
		cfg.PartitionFor = 1_200
		cases = append(cases, goldenCase{name: base + "/partition", cfg: cfg, base: base})
	}
	return cases
}

// hashOf runs the config on a fresh kernel and returns its trajectory hash.
func hashOf(t *testing.T, cfg Config) uint64 {
	t.Helper()
	cfg.TraceHash = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%v): %v", cfg.Protocol, err)
	}
	if res.TrajectoryHash == 0 {
		t.Fatalf("Run(%v): TraceHash set but TrajectoryHash is zero", cfg.Protocol)
	}
	if cfg.PartitionFor > 0 && res.Held == 0 {
		t.Errorf("partition window [%d,%d) held no message: it lies outside the run (duration %d)",
			cfg.PartitionAt, cfg.PartitionAt+cfg.PartitionFor, res.Duration)
	}
	return res.TrajectoryHash
}

func readGolden(t *testing.T) map[string]uint64 {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	defer f.Close()
	out := make(map[string]uint64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		h, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			t.Fatalf("malformed golden hash in %q: %v", line, err)
		}
		out[fields[0]] = h
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	return out
}

func writeGolden(t *testing.T, hashes map[string]uint64) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("# Golden kernel trajectory hashes (FNV-1a 64 over the event stream).\n")
	sb.WriteString("# Regenerate: go test ./internal/engine -run TestGoldenTrajectories -update\n")
	names := make([]string, 0, len(hashes))
	for name := range hashes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "%s %s\n", name, sim.FormatHash(hashes[name]))
	}
	if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenTrajectories compares every matrix point against the
// committed hash, failing on any drift. With -update it rewrites the file
// instead.
func TestGoldenTrajectories(t *testing.T) {
	cases := goldenCases()
	if *updateGolden {
		hashes := make(map[string]uint64, len(cases))
		for _, c := range cases {
			hashes[c.name] = hashOf(t, c.cfg)
			if c.base != "" && hashes[c.name] == hashes[c.base] {
				t.Errorf("%s hashes equal to its base %s: the partition changed nothing", c.name, c.base)
			}
		}
		writeGolden(t, hashes)
		t.Logf("wrote %d golden hashes to %s", len(hashes), goldenPath)
		return
	}
	want := readGolden(t)
	if len(want) != len(cases) {
		t.Errorf("golden file has %d entries, matrix has %d (run -update?)", len(want), len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w, ok := want[c.name]
			if !ok {
				t.Fatalf("no golden hash for %s (run -update?)", c.name)
			}
			if c.base != "" && w == want[c.base] {
				t.Errorf("golden hash equals that of %s: the partition row pins nothing", c.base)
			}
			got := hashOf(t, c.cfg)
			if got != w {
				t.Errorf("trajectory drift: got %s, golden %s\n"+
					"The kernel event schedule changed. If intentional, regenerate with\n"+
					"  go test ./internal/engine -run TestGoldenTrajectories -update\n"+
					"and explain the behaviour change in the commit message.",
					sim.FormatHash(got), sim.FormatHash(w))
			}
		})
	}
}

// TestTrajectoryEquality proves run-to-run determinism at the trajectory
// level for all three protocols: two independent runs on fresh kernels
// must produce bit-identical event streams. On mismatch the tails of both
// traces are dumped to locate the divergence.
func TestTrajectoryEquality(t *testing.T) {
	for _, p := range []Protocol{S2PL, G2PL, C2PL} {
		p := p
		for _, seed := range []uint64{1, 7} {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed%d", p, seed), func(t *testing.T) {
				cfg := goldenConfig(p, seed)
				cfg.TraceHash = true

				run := func() (uint64, *sim.RingTrace) {
					ring := sim.NewRingTrace(64)
					c := cfg
					c.Tracer = ring
					res, err := Run(c)
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					return res.TrajectoryHash, ring
				}
				h1, ring1 := run()
				h2, ring2 := run()
				if h1 != h2 {
					var sb strings.Builder
					sb.WriteString("run 1 ")
					ring1.Dump(&sb)
					sb.WriteString("run 2 ")
					ring2.Dump(&sb)
					t.Fatalf("trajectory hashes differ across identical runs: %s vs %s\n%s",
						sim.FormatHash(h1), sim.FormatHash(h2), sb.String())
				}
			})
		}
	}
}

// TestTrajectoryHashOffByDefault confirms an untraced run reports a zero
// hash and installs no tracer overhead.
func TestTrajectoryHashOffByDefault(t *testing.T) {
	res := mustRun(t, goldenConfig(S2PL, 1))
	if res.TrajectoryHash != 0 {
		t.Fatalf("TrajectoryHash = %x without TraceHash", res.TrajectoryHash)
	}
}
