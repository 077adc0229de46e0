// experiments is the simulator's command: it regenerates the paper's
// tables and figures (and this repository's ablations) as text tables on
// stdout, or runs one point. Every experiment starts from one base point —
// the paper's Table 1 configuration, changed by the point flags — and
// varies its own parameters from there.
//
//	experiments -list                 enumerate experiment ids
//	experiments -all                  run everything at the quick scale
//	experiments -id fig2              run one experiment
//	experiments -all -full            run everything at the paper's 50k scale
//	experiments -id point -clients 20 -env s-WAN -readprob 0.25 -trace
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/protocol"
)

func main() {
	p := core.DefaultParams()
	list := flag.Bool("list", false, "list experiment ids and exit")
	all := flag.Bool("all", false, "run every experiment")
	id := flag.String("id", "", "run a single experiment by id (e.g. fig2, point)")
	full := flag.Bool("full", false, "use the paper's full measurement protocol (50000 commits x 5 replications)")
	commits := flag.Int("commits", 0, "override measured commits per run (warm-up: a tenth of it)")
	reps := flag.Int("reps", 0, "override replications per point")
	shards := flag.Int("shards", 0, "sharded experiments: run only this shard count (0: builtin sweep)")
	crossRatio := flag.Float64("cross-ratio", -1, "sharded experiments: cross-shard transaction probability (-1: default)")
	zipfTheta := flag.Float64("zipf-theta", 0, "sharded hot-shard experiment: Zipf skew in (0,1) (0: builtin sweep)")
	flag.Func("victim", "deadlock victim policy: requester (default) or leastheld", func(s string) (err error) {
		p.Victim, err = protocol.ParseVictimPolicy(s)
		return err
	})
	flag.Func("deadlock-policy", "deadlock policy: detect (default), nowait, waitdie or woundwait", func(s string) (err error) {
		p.Deadlock, err = protocol.ParseDeadlockPolicy(s)
		return err
	})

	// The base point: the paper's Table 1 parameters and protocol toggles.
	flag.IntVar(&p.Clients, "clients", p.Clients, "number of client sites")
	flag.Int64Var((*int64)(&p.Latency), "latency", int64(p.Latency), "one-way network latency in time units")
	env := flag.String("env", "", "network environment from Table 2 (overrides -latency): ss-LAN, ms-LAN, CAN, MAN, s-WAN, l-WAN")
	flag.IntVar(&p.Workload.Items, "items", p.Workload.Items, "number of hot data items")
	flag.Float64Var(&p.Workload.ReadProb, "readprob", p.Workload.ReadProb, "probability an access is a read")
	flag.IntVar(&p.Workload.MaxTxnItems, "maxtxnitems", p.Workload.MaxTxnItems, "maximum items per transaction")
	flag.Uint64Var(&p.Seed, "seed", p.Seed, "base random seed of the replication schedule")
	flag.BoolVar(&p.NoMR1W, "nomr1w", p.NoMR1W, "disable the MR1W optimization")
	flag.BoolVar(&p.NoAvoidance, "noavoidance", p.NoAvoidance, "disable deadlock-avoidance ordering")
	flag.BoolVar(&p.FIFOWindows, "fifo", p.FIFOWindows, "disable reader grouping in forward lists")
	flag.IntVar(&p.MaxForwardList, "flcap", p.MaxForwardList, "cap forward-list length per window (0 = unlimited)")
	flag.BoolVar(&p.ReadExpand, "readexpand", p.ReadExpand, "enable the read-expansion extension")
	flag.Int64Var((*int64)(&p.WindowDelay), "windowdelay", int64(p.WindowDelay), "collection-window delay in time units")
	flag.BoolVar(&p.TraceHash, "trace", p.TraceHash, "hash each run's kernel event trajectory (point prints the digests)")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}

	if *env != "" {
		var err error
		if p, err = p.WithEnvironment(*env); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}
	if *full {
		p = p.PaperScale()
	} else {
		p = p.QuickScale()
	}
	if *commits > 0 {
		p.TargetCommits = *commits
		p.WarmupCommits = *commits / 10
	}
	if *reps > 0 {
		p.Replications = *reps
	}
	sc := exp.Scale{Base: p, Shards: *shards, ZipfTheta: *zipfTheta}
	if *crossRatio >= 0 {
		sc.CrossRatio, sc.CrossRatioSet = *crossRatio, true
	}

	run := func(e exp.Experiment) {
		start := time.Now()
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		if err := e.Run(sc, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
	}

	switch {
	case *all:
		for _, e := range exp.All() {
			run(e)
		}
	case *id != "":
		e, ok := exp.ByID(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q (try -list)\n", *id)
			os.Exit(2)
		}
		run(e)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
