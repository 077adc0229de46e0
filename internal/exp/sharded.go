package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The sharded experiments run the multi-lock-server s-2PL engine
// (DESIGN.md §13) from the base point: sharding is s-2PL-only, so there is
// a single curve and the interesting output is the 2PC phase profile —
// prepares per transaction, one-phase fast-path share, cross-shard ratio
// and coordinator-side forced aborts — next to the usual response and
// abort estimates.

// shardedPoint runs the base point partitioned across k range shards and
// returns its s-2PL estimates with the 2PC counters summed over the
// replications.
func shardedPoint(p core.Params, k int, cross float64) (core.ProtocolResult, stats.TwoPC, error) {
	p.Shards = k
	p.CrossRatio = cross
	res, err := core.Run(p, engine.S2PL)
	var tpc stats.TwoPC
	for _, run := range res.Runs {
		tpc.Merge(run.TwoPC)
	}
	return res, tpc, err
}

// shardedScaling sweeps the shard count at a fixed cross-shard ratio.
// K=1 is the unsharded single-server baseline (no 2PC traffic at all).
func shardedScaling(sc Scale, w io.Writer) error {
	cross := 0.4
	if sc.CrossRatioSet {
		cross = sc.CrossRatio
	}
	// K stops at 4: the 25-item Table 1 space needs every shard range to
	// hold a full MaxTxnItems transaction for the confinement draw.
	ks := []int{1, 2, 4}
	if sc.Shards > 0 {
		ks = []int{sc.Shards}
	}
	fmt.Fprintf(w, "Sharded s-2PL vs shard count (50 clients, s-WAN, cross-ratio %.2f)\n", cross)
	fmt.Fprintf(w, "  %-4s %-20s %-16s %-8s %-10s %-10s %s\n",
		"K", "mean response", "% aborted", "cross", "prep/txn", "1phase%", "forced-aborts")
	for _, k := range ks {
		res, tpc, err := shardedPoint(sc.Base, k, cross)
		if err != nil {
			return err
		}
		prepPerTxn, onePhasePct := 0.0, 0.0
		if tpc.Txns > 0 {
			prepPerTxn = float64(tpc.Prepares) / float64(tpc.Txns)
			onePhasePct = 100 * float64(tpc.OnePhase) / float64(tpc.Txns)
		}
		fmt.Fprintf(w, "  %-4d %-20s %-16s %-8.2f %-10.2f %-10.1f %d\n",
			k, res.Response, res.AbortPct, tpc.CrossRatio(), prepPerTxn, onePhasePct, tpc.ForcedAborts)
	}
	fmt.Fprintln(w)
	return nil
}

// shardedHotShard contrasts uniform access with Zipf skew: range
// sharding maps the Zipf head onto shard 0, so a hot shard emerges and
// contention (aborts, coordinator victims) rises with θ while the
// uniform row stays the balanced baseline.
func shardedHotShard(sc Scale, w io.Writer) error {
	k := 4
	if sc.Shards > 0 {
		k = sc.Shards
	}
	cross := 0.4
	if sc.CrossRatioSet {
		cross = sc.CrossRatio
	}
	thetas := []float64{0.5, 0.9}
	if sc.ZipfTheta > 0 {
		thetas = []float64{sc.ZipfTheta}
	}
	fmt.Fprintf(w, "Hot shard vs uniform access (K=%d, 50 clients, s-WAN, cross-ratio %.2f)\n", k, cross)
	fmt.Fprintf(w, "  %-14s %-20s %-16s %-8s %s\n",
		"access", "mean response", "% aborted", "cross", "forced-aborts")
	rows := []struct {
		name  string
		theta float64 // 0: uniform
	}{{"uniform", 0}}
	for _, th := range thetas {
		rows = append(rows, struct {
			name  string
			theta float64
		}{fmt.Sprintf("zipf(%.2f)", th), th})
	}
	for _, row := range rows {
		p := sc.Base
		if row.theta > 0 {
			p.Workload.Access = workload.Zipf
			p.Workload.ZipfTheta = row.theta
		}
		res, tpc, err := shardedPoint(p, k, cross)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-14s %-20s %-16s %-8.2f %d\n",
			row.name, res.Response, res.AbortPct, tpc.CrossRatio(), tpc.ForcedAborts)
	}
	fmt.Fprintln(w)
	return nil
}
