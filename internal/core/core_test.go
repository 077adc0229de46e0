package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/serial"
	"repro/internal/sim"
)

func quick() Params {
	p := DefaultParams().QuickScale()
	p.Clients = 10
	p.Latency = 50
	return p
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	if p.Clients != 50 || p.Workload.Items != 25 {
		t.Fatalf("defaults diverge from Table 1: %+v", p)
	}
}

func TestScales(t *testing.T) {
	p := DefaultParams().PaperScale()
	if p.TargetCommits != 50000 || p.WarmupCommits != 5000 {
		t.Fatalf("paper scale: %+v", p)
	}
	q := DefaultParams().QuickScale()
	if q.TargetCommits >= p.TargetCommits {
		t.Fatal("quick scale not quicker")
	}
}

func TestWithEnvironment(t *testing.T) {
	p, err := DefaultParams().WithEnvironment("MAN")
	if err != nil {
		t.Fatal(err)
	}
	if p.Latency != 250 {
		t.Fatalf("MAN latency = %d", p.Latency)
	}
	if _, err := DefaultParams().WithEnvironment("nope"); err == nil {
		t.Fatal("unknown environment accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	p := quick()
	p.Replications = 0
	if err := p.Validate(); err != nil {
		// expected
	} else {
		t.Fatal("Replications=0 accepted")
	}
	p = quick()
	p.Clients = 0
	if p.Validate() == nil {
		t.Fatal("Clients=0 accepted")
	}
}

func TestRunAggregates(t *testing.T) {
	res, err := Run(quick(), engine.G2PL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	if res.Response.N != 3 || res.Response.Mean <= 0 {
		t.Fatalf("response estimate %+v", res.Response)
	}
	if res.Throughput.Mean <= 0 {
		t.Fatalf("throughput %+v", res.Throughput)
	}
	if res.WindowLen.Mean < 1 {
		t.Fatalf("window length %+v", res.WindowLen)
	}
}

func TestCompareCommonRandomNumbers(t *testing.T) {
	c, err := Compare(quick())
	if err != nil {
		t.Fatal(err)
	}
	if c.S2PL.Protocol != engine.S2PL || c.G2PL.Protocol != engine.G2PL {
		t.Fatal("protocol tags wrong")
	}
	// Replication seeds must line up across protocols so the comparison
	// uses common random numbers.
	if len(c.S2PL.Runs) != len(c.G2PL.Runs) {
		t.Fatal("replication counts differ")
	}
	imp := c.Improvement()
	if imp < -100 || imp > 100 {
		t.Fatalf("improvement %v out of range", imp)
	}
}

func TestImprovementSign(t *testing.T) {
	// Contended update workload at WAN latency: g-2PL should win (the
	// paper's headline result).
	p := DefaultParams().QuickScale()
	p.Clients = 30
	p.Workload.ReadProb = 0.25
	p.TargetCommits = 500
	c, err := Compare(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Improvement() <= 0 {
		t.Fatalf("g-2PL not faster at update workload: %+v vs %+v", c.G2PL.Response, c.S2PL.Response)
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	a, err := Run(quick(), engine.S2PL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quick(), engine.S2PL)
	if err != nil {
		t.Fatal(err)
	}
	if a.Response.Mean != b.Response.Mean || a.AbortPct.Mean != b.AbortPct.Mean {
		t.Fatal("identical params produced different aggregates")
	}
}

func TestHistoriesSerializable(t *testing.T) {
	p := quick()
	p.RecordHistory = true
	p.Replications = 2
	for _, proto := range []engine.Protocol{engine.S2PL, engine.G2PL} {
		res, err := Run(p, proto)
		if err != nil {
			t.Fatal(err)
		}
		for i, run := range res.Runs {
			if err := serial.Check(run.History); err != nil {
				t.Fatalf("%v replication %d: %v", proto, i, err)
			}
		}
	}
}

func TestErrorMentionsReplication(t *testing.T) {
	p := quick()
	p.MaxTime = 10 // impossible
	_, err := Run(p, engine.S2PL)
	if err == nil || !strings.Contains(err.Error(), "replication") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunReplicationsMatchEngine pins the replication schedule: run r of
// Run(p, proto) is exactly engine.Run of p's own Config with the protocol
// set and the seed advanced r steps — no field of the point may be lost on
// the way, so every non-default knob below must survive.
func TestRunReplicationsMatchEngine(t *testing.T) {
	g2pl := quick()
	g2pl.Seed = 7
	g2pl.Replications = 2
	g2pl.Workload.ReadProb = 0.25
	g2pl.ReadExpand = true
	g2pl.WindowDelay = 5
	g2pl.MaxForwardList = 3
	g2pl.Victim = protocol.VictimLeastHeld
	g2pl.Deadlock = protocol.PolicyWoundWait
	g2pl.TraceHash = true
	g2pl.RecordHistory = true

	bank := DefaultParams().QuickScale()
	bank.Replications = 2
	bank.Shards = 4
	bank.CrossRatio = 0.3
	bank.Bank = true
	bank.InitialBalance = 1000
	bank.Workload.MinTxnItems, bank.Workload.MaxTxnItems = 2, 2
	bank.Workload.ReadProb = 0
	bank.TraceHash = true

	for _, tc := range []struct {
		name  string
		p     Params
		proto engine.Protocol
	}{{"g-2PL", g2pl, engine.G2PL}, {"sharded-bank", bank, engine.S2PL}} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.p, tc.proto)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Runs) != tc.p.Replications {
				t.Fatalf("runs = %d, want %d", len(res.Runs), tc.p.Replications)
			}
			for r, got := range res.Runs {
				cfg := tc.p.Config
				cfg.Protocol = tc.proto
				cfg.Seed = tc.p.Seed + uint64(r)*0x9e3779b9
				want, err := engine.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.TrajectoryHash == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("replication %d differs from engine.Run of its config (hash %x vs %x)",
						r, got.TrajectoryHash, want.TrajectoryHash)
				}
			}
		})
	}
}

// TestValidateEachProtocol: a sharded point is valid for s-2PL only, so
// validating it for both protocols must fail.
func TestValidateEachProtocol(t *testing.T) {
	p := quick()
	p.Shards = 2
	if err := p.Validate(engine.S2PL); err != nil {
		t.Fatalf("sharded s-2PL rejected: %v", err)
	}
	if p.Validate(engine.S2PL, engine.G2PL) == nil {
		t.Fatal("sharded g-2PL accepted")
	}
}

// panicTracer fails a run the moment its kernel schedules anything.
type panicTracer struct{}

func (panicTracer) Trace(sim.TraceAction, uint64, sim.Time, sim.Time, string) {
	panic("a replication ran")
}

// TestCompareValidatesBeforeRunning: Compare rejects a point that one of
// its protocols cannot run before any replication of the other starts.
func TestCompareValidatesBeforeRunning(t *testing.T) {
	p := quick()
	p.Shards = 2
	p.Tracer = panicTracer{}
	if _, err := Compare(p); err == nil {
		t.Fatal("Compare accepted a sharded g-2PL point")
	}
}
