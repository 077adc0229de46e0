// Package exp regenerates every table and figure of the paper's
// evaluation (plus the ablations called out in DESIGN.md) as text tables:
// for each experiment it runs the required parameter sweep over both
// protocols and prints the same rows or series the paper reports.
package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Scale is what every experiment starts from: the base point (the paper's
// Table 1 configuration at a measurement scale, as the cmd's flags left
// it), from which each experiment varies its own parameters, plus the
// sharded sweeps' overrides.
type Scale struct {
	Base core.Params

	// Sharded sweep overrides (the cmd's -shards, -cross-ratio and
	// -zipf-theta flags). Zero values mean each sharded experiment's own
	// sweep; CrossRatio needs an explicit set-marker because 0 (fully
	// shard-confined) is a meaningful override. Single-server experiments
	// ignore all of these.
	Shards        int
	CrossRatio    float64
	CrossRatioSet bool
	ZipfTheta     float64
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string // e.g. "fig2", "table1", "ablation-window"
	Title string
	Run   func(sc Scale, w io.Writer) error
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"point", "One point: both protocols at the base point", point},
		{"table1", "Table 1: simulation parameters", table1},
		{"table2", "Table 2: networking environments", table2},
		{"fig1", "Fig 1: worked example, 3 exclusive clients", fig1},
		{"fig2", "Fig 2: mean response time vs network latency, pr=0.0", figRTvsLatency(0.0)},
		{"fig3", "Fig 3: mean response time vs network latency, pr=0.6", figRTvsLatency(0.6)},
		{"fig4", "Fig 4: mean response time vs network latency, pr=1.0", figRTvsLatency(1.0)},
		{"fig5", "Fig 5: mean response time vs read probability, ss-LAN", figRTvsReadProb(1)},
		{"fig6", "Fig 6: mean response time vs read probability, MAN", figRTvsReadProb(250)},
		{"fig7", "Fig 7: mean response time vs read probability, l-WAN", figRTvsReadProb(750)},
		{"fig8", "Fig 8: percentage aborted vs network latency, pr=0.6", figAbortVsLatency(0.6)},
		{"fig9", "Fig 9: percentage aborted vs network latency, pr=0.8", figAbortVsLatency(0.8)},
		{"fig10", "Fig 10: percentage aborted vs latency, read-only system", fig10},
		{"fig11", "Fig 11: percentage aborted vs forward-list length, read-only ss-LAN", fig11},
		{"fig12", "Fig 12: mean response time vs clients, pr=0.25, s-WAN", figVsClients(0.25, false)},
		{"fig13", "Fig 13: percentage aborted vs clients, pr=0.25, s-WAN", figVsClients(0.25, true)},
		{"fig14", "Fig 14: mean response time vs clients, pr=0.75, s-WAN", figVsClients(0.75, false)},
		{"fig15", "Fig 15: percentage aborted vs clients, pr=0.75, s-WAN", figVsClients(0.75, true)},
		{"ablation-window", "Ablation: collection-window delay (paper footnote 1)", ablationWindow},
		{"ablation-mr1w", "Ablation: MR1W on/off", ablationMR1W},
		{"ablation-avoidance", "Ablation: deadlock avoidance on/off", ablationAvoidance},
		{"ablation-grouping", "Ablation: reader-grouping vs FIFO forward lists", ablationGrouping},
		{"ablation-victim", "Ablation: deadlock victim policy", ablationVictim},
		{"policy-matrix", "Policy matrix: deadlock policy x protocol (aborts, throughput, p99)", policyMatrix},
		{"ext-readexpand", "Extension: read-expansion of dispatched read groups", extReadExpand},
		{"ext-sorted", "Extension: canonical (sorted) item access order", extSorted},
		{"ext-c2pl", "Extension: caching 2PL (c-2PL) three-way comparison", extC2PL},
		{"sharded-scaling", "Sharded: 2PC phase profile vs shard count, s-2PL", shardedScaling},
		{"sharded-hotshard", "Sharded: uniform vs Zipf hot-shard skew, s-2PL", shardedHotShard},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

const (
	curveG = "g-2PL"
	curveS = "s-2PL"
)

// comparePoint runs both protocols and returns the (response, abort)
// estimates per curve.
func comparePoint(p core.Params) (rt, ab map[string]stats.Estimate, err error) {
	c, err := core.Compare(p)
	if err != nil {
		return nil, nil, err
	}
	rt = map[string]stats.Estimate{curveG: c.G2PL.Response, curveS: c.S2PL.Response}
	ab = map[string]stats.Estimate{curveG: c.G2PL.AbortPct, curveS: c.S2PL.AbortPct}
	return rt, ab, nil
}

// point is the single-point run: both protocols at the base point, the
// paper's headline improvement, and each replication's trajectory
// digests when the base point hashes them.
func point(sc Scale, w io.Writer) error {
	p := sc.Base
	c, err := core.Compare(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "clients=%d latency=%d items=%d readprob=%.2f commits=%d reps=%d\n\n",
		p.Clients, p.Latency, p.Workload.Items, p.Workload.ReadProb, p.TargetCommits, p.Replications)
	fmt.Fprintf(w, "%-8s %-22s %-18s %-18s %-14s %s\n",
		"protocol", "mean response", "% aborted", "throughput/kt", "msgs/txn", "mean FL len")
	for _, r := range []core.ProtocolResult{c.S2PL, c.G2PL} {
		fmt.Fprintf(w, "%-8s %-22s %-18s %-18s %-14s %s\n",
			r.Protocol, r.Response, r.AbortPct, r.Throughput, r.Messages, r.WindowLen)
	}
	fmt.Fprintf(w, "\ng-2PL response-time improvement over s-2PL: %.1f%%\n", c.Improvement())
	if p.TraceHash {
		fmt.Fprintln(w, "\ntrajectory hashes (replication: s-2PL g-2PL):")
		for i := range c.S2PL.Runs {
			fmt.Fprintf(w, "  %d: %s %s\n", i,
				sim.FormatHash(c.S2PL.Runs[i].TrajectoryHash),
				sim.FormatHash(c.G2PL.Runs[i].TrajectoryHash))
		}
	}
	fmt.Fprintln(w)
	return nil
}

func table1(sc Scale, w io.Writer) error {
	p := sc.Base
	rows := [][2]string{
		{"Number of Servers", "1"},
		{"Number of Clients", fmt.Sprintf("varying (default %d)", p.Clients)},
		{"Number of hot data items", fmt.Sprintf("%d", p.Workload.Items)},
		{"Transaction Execution Pattern", "Sequential"},
		{"Data items accessed by a transaction", fmt.Sprintf("%d-%d", p.Workload.MinTxnItems, p.Workload.MaxTxnItems)},
		{"Percentage of read accesses", "0.00 - 1.00"},
		{"Network Latency", "1 - 750 time units (Table 2)"},
		{"Computation Time per operation", fmt.Sprintf("%d - %d time units", p.Workload.ThinkMin, p.Workload.ThinkMax)},
		{"Idle Time between transactions", fmt.Sprintf("%d - %d time units", p.Workload.IdleMin, p.Workload.IdleMax)},
		{"Multiprogramming level at clients", "1"},
	}
	fmt.Fprintln(w, "Table 1: Simulation Parameters")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-40s %s\n", r[0], r[1])
	}
	fmt.Fprintln(w)
	return nil
}

func table2(sc Scale, w io.Writer) error {
	fmt.Fprintln(w, "Table 2: Networking Environments Simulated")
	fmt.Fprintf(w, "  %-45s %-8s %s\n", "Network Type", "Abbrev", "Latency")
	for _, e := range netmodel.Environments {
		fmt.Fprintf(w, "  %-45s %-8s %d\n", e.Name, e.Abbrev, e.Latency)
	}
	fmt.Fprintln(w)
	return nil
}

// fig1 reproduces the worked example of paper Fig 1: three clients, one
// data item, exclusive access, latency 2 units, one unit of processing.
// The paper quotes total completion 12 (g-2PL) vs 15 (s-2PL); this model
// yields 13 vs 15 (see DESIGN.md on the one-unit discrepancy).
func fig1(sc Scale, w io.Writer) error {
	p := core.DefaultParams()
	p.Clients = 3
	p.Latency = 2
	p.Workload.Items = 1
	p.Workload.MinTxnItems, p.Workload.MaxTxnItems = 1, 1
	p.Workload.ReadProb = 0
	p.Workload.ThinkMin, p.Workload.ThinkMax = 1, 1
	p.Workload.IdleMin, p.Workload.IdleMax = 0, 0
	p.TargetCommits = 3
	p.WarmupCommits = 0
	p.Replications = 1
	p.MaxTime = 10_000

	fmt.Fprintln(w, "Fig 1: three clients, exclusive access to one item, latency 2, processing 1")
	for _, proto := range []engine.Protocol{engine.G2PL, engine.S2PL} {
		res, err := core.Run(p, proto)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-6s total completion time of all 3 transactions: %d units (messages: %d)\n",
			proto, res.Runs[0].Duration, res.Runs[0].Messages)
	}
	fmt.Fprintln(w, "  paper: 12 (g-2PL) vs 15 (s-2PL); the protocol chains hand-offs at one")
	fmt.Fprintln(w, "  latency each while s-2PL pays release+grant between holders.")
	fmt.Fprintln(w)
	return nil
}

func figRTvsLatency(pr float64) func(Scale, io.Writer) error {
	return seriesTable(func(sc Scale) (*stats.Series, error) {
		s := stats.NewSeries(
			fmt.Sprintf("Mean transaction response time vs network latency, pr=%.1f (50 clients, 25 items)", pr),
			"latency", "mean response time", curveG, curveS)
		for _, lat := range netmodel.Latencies() {
			p := sc.Base
			p.Latency = lat
			p.Workload.ReadProb = pr
			rt, _, err := comparePoint(p)
			if err != nil {
				return nil, err
			}
			s.Add(float64(lat), rt)
		}
		return s, nil
	})
}

// seriesTable adapts a series builder to the Experiment Run signature.
func seriesTable(build func(Scale) (*stats.Series, error)) func(Scale, io.Writer) error {
	return func(sc Scale, w io.Writer) error {
		s, err := build(sc)
		if err != nil {
			return err
		}
		return s.WriteTable(w)
	}
}

func figRTvsReadProb(lat sim.Time) func(Scale, io.Writer) error {
	return func(sc Scale, w io.Writer) error {
		s := stats.NewSeries(
			fmt.Sprintf("Mean transaction response time vs read probability, latency=%d", lat),
			"read_prob", "mean response time", curveG, curveS)
		for _, pr := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0} {
			p := sc.Base
			p.Latency = lat
			p.Workload.ReadProb = pr
			rt, _, err := comparePoint(p)
			if err != nil {
				return err
			}
			s.Add(pr, rt)
		}
		return s.WriteTable(w)
	}
}

func figAbortVsLatency(pr float64) func(Scale, io.Writer) error {
	return func(sc Scale, w io.Writer) error {
		s := stats.NewSeries(
			fmt.Sprintf("Percentage of transactions aborted vs network latency, pr=%.1f", pr),
			"latency", "% aborted", curveG, curveS)
		for _, lat := range netmodel.Latencies() {
			p := sc.Base
			p.Latency = lat
			p.Workload.ReadProb = pr
			_, ab, err := comparePoint(p)
			if err != nil {
				return err
			}
			s.Add(float64(lat), ab)
		}
		return s.WriteTable(w)
	}
}

func fig10(sc Scale, w io.Writer) error {
	s := stats.NewSeries(
		"Percentage of transactions aborted vs latency, read-only system (g-2PL read deadlocks)",
		"latency", "% aborted", curveG, curveS)
	for _, lat := range []sim.Time{1, 3, 5, 7, 9, 11} {
		p := sc.Base
		p.Latency = lat
		p.Workload.ReadProb = 1.0
		_, ab, err := comparePoint(p)
		if err != nil {
			return err
		}
		s.Add(float64(lat), ab)
	}
	return s.WriteTable(w)
}

func fig11(sc Scale, w io.Writer) error {
	s := stats.NewSeries(
		"Percentage of transactions aborted vs forward-list length cap, read-only ss-LAN",
		"fl_cap", "% aborted", curveG)
	for _, cap := range []int{1, 2, 3, 4, 5, 7, 10} {
		p := sc.Base
		p.Latency = 1
		p.Workload.ReadProb = 1.0
		p.MaxForwardList = cap
		g, err := core.Run(p, engine.G2PL)
		if err != nil {
			return err
		}
		s.Add(float64(cap), map[string]stats.Estimate{curveG: g.AbortPct})
	}
	return s.WriteTable(w)
}

func figVsClients(pr float64, aborts bool) func(Scale, io.Writer) error {
	return func(sc Scale, w io.Writer) error {
		metric := "mean response time"
		if aborts {
			metric = "% aborted"
		}
		s := stats.NewSeries(
			fmt.Sprintf("%s vs number of clients, pr=%.2f, s-WAN (latency 500)", metric, pr),
			"clients", metric, curveG, curveS)
		for _, clients := range []int{10, 25, 50, 75, 100, 125, 150} {
			p := sc.Base
			p.Clients = clients
			p.Latency = 500
			p.Workload.ReadProb = pr
			rt, ab, err := comparePoint(p)
			if err != nil {
				return err
			}
			if aborts {
				s.Add(float64(clients), ab)
			} else {
				s.Add(float64(clients), rt)
			}
		}
		return s.WriteTable(w)
	}
}
