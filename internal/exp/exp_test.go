package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocol"
)

// tiny returns a scale small enough to run every experiment in tests.
func tiny() Scale {
	p := core.DefaultParams()
	p.TargetCommits, p.WarmupCommits, p.Replications = 60, 10, 1
	return Scale{Base: p}
}

func TestAllHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	// Every paper table and figure must be present.
	for _, id := range []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15"} {
		if !seen[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("fig2")
	if !ok || e.ID != "fig2" {
		t.Fatal("ByID(fig2) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestTablesRender(t *testing.T) {
	var b strings.Builder
	e, _ := ByID("table1")
	if err := e.Run(tiny(), &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Number of Clients", "25", "Sequential", "Multiprogramming"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("table1 missing %q:\n%s", want, b.String())
		}
	}
	b.Reset()
	e, _ = ByID("table2")
	if err := e.Run(tiny(), &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ss-LAN", "l-WAN", "750"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("table2 missing %q", want)
		}
	}
}

func TestFig1ShowsChainAdvantage(t *testing.T) {
	var b strings.Builder
	e, _ := ByID("fig1")
	if err := e.Run(tiny(), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "g-2PL") || !strings.Contains(out, "s-2PL") {
		t.Fatalf("fig1 output incomplete:\n%s", out)
	}
}

// TestEveryExperimentRuns executes the full registry at a tiny scale:
// the regeneration path for every paper table/figure must at least run
// and produce output.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var b strings.Builder
			if err := e.Run(tiny(), &b); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(b.String()) < 20 {
				t.Fatalf("%s produced no meaningful output", e.ID)
			}
		})
	}
}

// TestShardedExperimentsRender pins the sharded registry entries: both
// sweeps run, print the 2PC phase profile, and honor the cmd flag knobs
// (Shards / CrossRatio / ZipfTheta overrides collapse the sweeps).
func TestShardedExperimentsRender(t *testing.T) {
	sc := tiny()
	sc.Shards = 2
	sc.CrossRatio, sc.CrossRatioSet = 0.8, true
	sc.ZipfTheta = 0.7
	var b strings.Builder
	e, _ := ByID("sharded-scaling")
	if err := e.Run(sc, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cross-ratio 0.80", "prep/txn", "forced-aborts"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("sharded-scaling missing %q: %s", want, b.String())
		}
	}
	b.Reset()
	e, _ = ByID("sharded-hotshard")
	if err := e.Run(sc, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"K=2", "uniform", "zipf(0.70)"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("sharded-hotshard missing %q: %s", want, b.String())
		}
	}
}

// TestShardedExperimentsHonorPolicy: the sharded sweeps start from the
// base point like every other experiment, so the deadlock policy it
// carries must reach their runs — detect and no-wait abort differently.
func TestShardedExperimentsHonorPolicy(t *testing.T) {
	for _, id := range []string{"sharded-scaling", "sharded-hotshard"} {
		e, _ := ByID(id)
		out := map[protocol.DeadlockPolicy]string{}
		for _, pol := range []protocol.DeadlockPolicy{protocol.PolicyDetect, protocol.PolicyNoWait} {
			sc := tiny()
			sc.Base.Deadlock = pol
			var b strings.Builder
			if err := e.Run(sc, &b); err != nil {
				t.Fatal(err)
			}
			out[pol] = b.String()
		}
		if out[protocol.PolicyDetect] == out[protocol.PolicyNoWait] {
			t.Errorf("%s prints the same output under detect and nowait:\n%s", id, out[protocol.PolicyDetect])
		}
	}
}

// TestPointTraceHashes: the point experiment prints one digest pair per
// replication when the base point hashes trajectories, and none otherwise.
func TestPointTraceHashes(t *testing.T) {
	e, ok := ByID("point")
	if !ok {
		t.Fatal("no point experiment")
	}
	for _, trace := range []bool{false, true} {
		sc := tiny()
		sc.Base.Replications = 2
		sc.Base.TraceHash = trace
		var b strings.Builder
		if err := e.Run(sc, &b); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		if !strings.Contains(out, "improvement over s-2PL") {
			t.Fatalf("point output incomplete:\n%s", out)
		}
		if got := strings.Contains(out, "  1: "); got != trace {
			t.Fatalf("trace=%v but hash rows present=%v:\n%s", trace, got, out)
		}
	}
}
