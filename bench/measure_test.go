package bench_test

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/stats"
)

// metricDef names one metric. The two tables below are the benchmark's
// vocabulary; BENCHMARK.json lists the same names and units, and the
// smoke test holds the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, defined on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"commits_per_s", "1/s"},
	{"commit_p50_us", "us"},
	{"commit_p99_us", "us"},
	{"commit_mean_us", "us"},
	{"allocs_per_commit", "count"},
	{"bytes_per_commit", "B"},
	{"msgs_per_commit", "count"},
	{"useful_pct", "%"},
}

// exactOnDES are the end-to-end metrics that, on a DES workload, are pure
// functions of (seed, code): they are taken over the first minReps
// repetitions only, so a run that fits more repetitions into its time
// reports the same values.
var exactOnDES = map[string]bool{
	"commit_p50_us": true, "commit_p99_us": true, "commit_mean_us": true,
	"msgs_per_commit": true, "useful_pct": true,
}

// perLayer are the single-layer numbers of the traced run. A workload
// that does not cross a layer reports 0 for it.
var perLayer = []metricDef{
	{"sim.fire_ns", "ns"},
	{"sim.events_per_commit", "count"},
	{"sim.kernel.sched_fire_ns", "ns"},
	{"sim.kernel.allocs_per_event", "count"},
	{"netmodel.send_ns", "ns"},
	{"engine.s2pl.req.self_ns", "ns"},
	{"engine.s2pl.release.self_ns", "ns"},
	{"engine.s2pl.abortrel.self_ns", "ns"},
	{"engine.g2pl.req.self_ns", "ns"},
	{"engine.g2pl.return.self_ns", "ns"},
	{"engine.g2pl.release.self_ns", "ns"},
	{"engine.2pc.req.self_ns", "ns"},
	{"engine.2pc.blocked.self_ns", "ns"},
	{"engine.2pc.decide.self_ns", "ns"},
	{"engine.2pc.commitreq.self_ns", "ns"},
	{"engine.2pc.vote.self_ns", "ns"},
	{"engine.client.self_ns", "ns"},
	{"trace.overhead_pct", "%"},
	{"des.resp_rounds", "rounds"},
	{"des.abort_pct", "%"},
	{"lock.acquire_release_ns", "ns"},
	{"lock.contended_ns", "ns"},
	{"wfg.cycle_ns", "ns"},
	{"prec.order_ns", "ns"},
	{"fwdlist.build_ns", "ns"},
	{"protocol.lockserver.grant_ns", "ns"},
	{"protocol.lockserver.grant_allocs", "count"},
	{"protocol.lockserver.contended_ns", "ns"},
	{"protocol.lockserver.contended_allocs", "count"},
	{"protocol.dispatcher.window_ns", "ns"},
	{"protocol.dispatcher.window_allocs", "count"},
	{"protocol.cache.recall_ns", "ns"},
	{"protocol.cache.recall_allocs", "count"},
	{"protocol.twopc.round_ns", "ns"},
	{"protocol.twopc.round_allocs", "count"},
	{"protocol.twopc.onephase_ns", "ns"},
	{"protocol.twopc.recover_ns_per_round", "ns"},
	{"protocol.twopc.onephase_share", "ratio"},
	{"protocol.twopc.prepares_per_commit", "count"},
	{"live.mailbox.hop_us", "us"},
	{"live.startstop_ms", "ms"},
	{"live.msg_ns", "ns"},
	{"live.allocs_per_msg", "count"},
	{"live.blocked_mean_us", "us"},
	{"live.abort_pct", "%"},
	{"live.arq.ns_per_msg", "ns"},
	{"live.arq.retransmits_per_drop", "count"},
	{"live.arq.standalone_acks_per_msg", "count"},
	{"live.arq.piggyback_share", "ratio"},
	{"live.arq.max_rto_ms", "ms"},
	{"live.wal.ns_per_append", "ns"},
	{"live.wal.appends_per_commit", "count"},
	{"live.wal.checkpoints_per_kcommit", "count"},
	{"live.wal.truncated_share", "ratio"},
	{"live.crash.restarts", "count"},
	{"live.crash.replayed_per_restart", "count"},
	{"live.crash.inquiries_per_restart", "count"},
	{"live.crash.restart_abort_share", "ratio"},
	{"workload.next_ns", "ns"},
	{"stats.sample.add_ns", "ns"},
	{"serial.check_us_per_kcommit", "us"},
}

const (
	// setupRuns is how often a run sets the workload up; setup_s is the
	// median, so one slow start does not set it.
	setupRuns = 3
	// minReps is the fewest measured repetitions of a run, however short
	// its time budget.
	minReps = 5
)

// tally counts the repetitions a run attempted and the ones whose
// output was wrong.
type tally struct {
	attempted int
	failures  []string
}

func (t *tally) check(what string, err error) {
	t.attempted++
	if err != nil {
		t.failures = append(t.failures, what+": "+err.Error())
	}
}

// repSeed derives the seed of repetition r of a run; the drivers own
// workload generation, so the seed is the whole input.
func repSeed(seed uint64, r int) uint64 { return seed*1000 + uint64(r) }

// measureEndToEnd sets the workload up setupRuns times, then repeats it
// for the time budget (at least minReps times) and returns every
// end-to-end metric's per-repetition values.
func measureEndToEnd(name string, scale float64, seed uint64, budget time.Duration, t *tally) map[string][]float64 {
	raw := map[string][]float64{}
	var w workload
	for k := 0; k < setupRuns; k++ {
		// Set-up is everything before the first measured repetition:
		// building the configuration and one discarded full-size
		// repetition that brings heap, scheduler and caches to steady state.
		start := time.Now()
		w, _ = workloadByName(name, scale)
		r, err := w.run(repSeed(seed, 999-k))
		raw["setup_s"] = append(raw["setup_s"], time.Since(start).Seconds())
		if err == nil {
			err = r.verify()
		}
		t.check(fmt.Sprintf("%s warm-up %d", name, k), err)
	}

	var first rep
	begin := time.Now()
	for r := 0; r < minReps || time.Since(begin) < budget; r++ {
		got, err := checked(w.run(repSeed(seed, r)))
		t.check(fmt.Sprintf("%s repetition %d", name, r), err)
		if got.commits == 0 {
			continue // the Run call itself failed: nothing to measure
		}
		if r == 0 {
			first = got
		}
		commits := float64(got.commits)
		for metric, v := range map[string]float64{
			"commits_per_s":     commits / got.wall.Seconds(),
			"commit_p50_us":     got.p50,
			"commit_p99_us":     got.p99,
			"commit_mean_us":    got.mean,
			"allocs_per_commit": float64(got.mallocs) / commits,
			"bytes_per_commit":  float64(got.bytes) / commits,
			"msgs_per_commit":   float64(got.msgs) / commits,
			"useful_pct":        got.usefulPct,
		} {
			raw[metric] = append(raw[metric], v)
		}
	}
	if w.isDES() && first.commits > 0 {
		t.check(name+" determinism", w.checkDeterminism(repSeed(seed, 0), first))
	}
	return raw
}

// summarize reduces per-repetition values to the reported medians.
func summarize(w workload, raw map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range endToEnd {
		vals := raw[m.name]
		if w.isDES() && exactOnDES[m.name] && len(vals) > minReps {
			vals = vals[:minReps]
		}
		out[m.name] = median(vals)
	}
	return out
}

// median is NaN for no values, which the command reports as a failure,
// where stats.Percentile alone would answer a measured-looking 0.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return stats.Percentile(vals, 0.5)
}

// ratio is a/b, or 0 when the layer did no work to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureLayers makes the traced run: first the isolated-core drivers of
// the layers the workload crosses, then the workload itself under the
// tracing its driver allows, repeated until the time budget is spent (at
// least once). It returns every per-layer metric; the ones of a layer
// the workload does not cross stay 0.
func measureLayers(w workload, scale float64, seed uint64, budget time.Duration, t *tally, file *traceFile) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}
	for _, d := range coreDrivers() {
		if d.crossedBy(w.name) {
			d.measure(seed, scale, file, out)
		}
	}
	deadline := time.Now().Add(budget)
	if w.isDES() {
		traceDES(w, seed, deadline, t, file, out)
	} else {
		traceLive(w, seed, deadline, t, out)
	}
	return out
}

// clientSide are the DES event labels handled at a client site; every
// other label is a server, shard or coordinator handler.
var clientSide = map[string]bool{
	"begin": true, "think": true, "grant": true, "data": true, "commit": true,
	"abort": true, "outcome": true, "victim": true, "relwriter": true,
}

// traceDES pairs every repetition with a traced twin on the same seed:
// the difference of the two wall times is the tracer's overhead, and the
// twin's spans give the mean wall time of each handler.
func traceDES(w workload, seed uint64, deadline time.Time, t *tally, file *traceFile, out map[string]float64) {
	labels := spanAggs{} // summed over the traced repetitions
	var plainWall, tracedWall, covered time.Duration
	var events, commits float64
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		s := repSeed(seed, r)
		plain, err := checked(w.run(s))
		t.check(fmt.Sprintf("%s repetition %d", w.name, r), err)
		if plain.commits == 0 {
			continue
		}

		// The untraced twin fired plain.des.Events events; the traced one
		// schedules the same plus the few that never fire.
		tr := file.desTracer(fmt.Sprintf("des:%s seed=%d", w.name, s), int(plain.des.Events)+1024)
		cfg := *w.des
		cfg.Seed, cfg.Tracer = s, tr
		var spanned time.Duration
		traced, err := runDES(cfg, func() { spanned = tr.finish() })
		switch {
		case err != nil:
		case traced.des.TrajectoryHash != plain.des.TrajectoryHash:
			err = fmt.Errorf("tracer changed the trajectory: %016x, untraced %016x", traced.des.TrajectoryHash, plain.des.TrajectoryHash)
		case math.Abs(spanned.Seconds()-traced.wall.Seconds()) > 0.05*traced.wall.Seconds():
			err = fmt.Errorf("spans cover %v of a %v traced run: more than 5%% apart", spanned, traced.wall)
		}
		t.check(fmt.Sprintf("%s traced repetition %d", w.name, r), err)
		if err != nil {
			continue
		}

		for label, a := range tr.src.Agg {
			labels.add(label, a.Count, a.SelfNs)
		}
		plainWall += plain.wall
		tracedWall += traced.wall
		covered += spanned
		events += float64(plain.des.Events)
		commits += float64(plain.commits)
		if r == 0 {
			out["des.resp_rounds"] = plain.des.MeanResponse() / float64(w.des.Latency)
			out["des.abort_pct"] = plain.des.AbortPct()
			twoPCShares(plain.des.TwoPC, out)
		}
	}

	var client spanAgg
	for label, a := range labels {
		proto, kind, _ := strings.Cut(label, ".")
		if clientSide[kind] {
			client.Count += a.Count
			client.SelfNs += a.SelfNs
		}
		// out holds every per-layer name; the handlers the benchmark
		// tracks by label are the ones listed there.
		if metric := "engine." + proto + "." + kind + ".self_ns"; contains(out, metric) {
			out[metric] = ratio(float64(a.SelfNs), float64(a.Count))
		}
	}
	out["engine.client.self_ns"] = ratio(float64(client.SelfNs), float64(client.Count))
	out["sim.fire_ns"] = ratio(float64(covered), events)
	out["sim.events_per_commit"] = ratio(events, commits)
	out["trace.overhead_pct"] = 100 * ratio(float64(tracedWall-plainWall), float64(plainWall))
}

// twoPCShares reads the coordinator's phase counters: the share of
// commits on the one-phase fast path and the prepares a commit costs.
func twoPCShares(tpc stats.TwoPC, out map[string]float64) {
	out["protocol.twopc.onephase_share"] = ratio(float64(tpc.OnePhase), float64(tpc.Commits))
	out["protocol.twopc.prepares_per_commit"] = ratio(float64(tpc.Prepares), float64(tpc.Commits))
}

func contains(m map[string]float64, key string) bool {
	_, ok := m[key]
	return ok
}

// liveVariant is the workload's configuration with one field changed,
// run beside it on the same seeds; the wall-time difference prices the
// layer that field switches.
type liveVariant struct {
	metric string // what the difference feeds
	change func(*live.Config)
	// per picks, from a repetition of the side that has the layer on, the
	// count of operations the difference is divided by.
	per func(live.Stats) int64
	// layerOn reports which side crosses the layer: the variant (true) or
	// the workload itself.
	layerOn bool
}

// liveVariants are the paired runs. internal/live exports no hook, so a
// layer that a Config field can switch is priced by switching it.
var liveVariants = map[string]liveVariant{
	// A vanishing drop probability engages the ARQ layer (stamping,
	// retention, acks, timers) without ever losing a message.
	"live_s2pl": {
		metric:  "live.arq.ns_per_msg",
		change:  func(c *live.Config) { c.Chaos.Drop = 1e-12 },
		per:     func(s live.Stats) int64 { return s.Messages - s.AcksSent },
		layerOn: true,
	},
	"live_shard_wal": {
		metric: "live.wal.ns_per_append",
		change: func(c *live.Config) { c.WAL, c.WALCheckpointEvery = false, 0 },
		per:    func(s live.Stats) int64 { return s.WALAppends },
	},
}

// traceLive repeats the workload for the time budget and derives the
// live layers' numbers from the counters of live.Stats and, where the
// workload has one, from its paired variant.
func traceLive(w workload, seed uint64, deadline time.Time, t *tally, out map[string]float64) {
	variant, paired := liveVariants[w.name]
	var sum live.Stats
	var wallNs, mallocs, blockedUs, maxRTO float64
	var baseWall, variantWall, per []float64
	reps := 0
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		s := repSeed(seed, r)
		base, err := checked(w.run(s))
		t.check(fmt.Sprintf("%s repetition %d", w.name, r), err)
		if base.commits == 0 {
			continue
		}
		on := base
		if paired {
			cfg := *w.live
			cfg.Seed = s
			variant.change(&cfg)
			other, err := checked(runLive(cfg))
			t.check(fmt.Sprintf("%s variant repetition %d", w.name, r), err)
			if other.commits == 0 {
				continue
			}
			if variant.layerOn {
				on = other
			}
			baseWall = append(baseWall, float64(base.wall))
			variantWall = append(variantWall, float64(other.wall))
			per = append(per, float64(variant.per(on.live)))
		}

		reps++
		st := base.live
		wallNs += float64(base.wall)
		mallocs += float64(base.mallocs)
		blockedUs += float64(st.MeanBlocked) / float64(time.Microsecond)
		maxRTO = max(maxRTO, float64(st.MaxRTO)/float64(time.Millisecond))
		sum.Commits += st.Commits
		sum.Aborts += st.Aborts
		sum.Messages += st.Messages
		sum.Dropped += st.Dropped
		sum.Retransmits += st.Retransmits
		sum.AcksSent += st.AcksSent
		sum.AcksPiggybacked += st.AcksPiggybacked
		sum.Crashes += st.Crashes
		sum.CoordRestarts += st.CoordRestarts
		sum.WALAppends += st.WALAppends
		sum.WALReplayed += st.WALReplayed
		sum.WALCheckpoints += st.WALCheckpoints
		sum.WALTruncated += st.WALTruncated
		sum.Inquiries += st.Inquiries
		sum.Causes.Restart += st.Causes.Restart
		sum.TwoPC.Merge(st.TwoPC)
	}
	if reps == 0 {
		return
	}
	f := func(v int64) float64 { return float64(v) }
	restarts := f(sum.Crashes + sum.CoordRestarts)

	out["live.msg_ns"] = ratio(wallNs, f(sum.Messages))
	out["live.allocs_per_msg"] = ratio(mallocs, f(sum.Messages))
	out["live.blocked_mean_us"] = blockedUs / float64(reps)
	out["live.abort_pct"] = 100 * ratio(f(sum.Aborts), f(sum.Commits+sum.Aborts))
	out["live.arq.retransmits_per_drop"] = ratio(f(sum.Retransmits), f(sum.Dropped))
	out["live.arq.standalone_acks_per_msg"] = ratio(f(sum.AcksSent), f(sum.Messages-sum.AcksSent))
	out["live.arq.piggyback_share"] = ratio(f(sum.AcksPiggybacked), f(sum.AcksPiggybacked+sum.AcksSent))
	out["live.arq.max_rto_ms"] = maxRTO
	out["live.wal.appends_per_commit"] = ratio(f(sum.WALAppends), f(sum.Commits))
	out["live.wal.checkpoints_per_kcommit"] = 1000 * ratio(f(sum.WALCheckpoints), f(sum.Commits))
	out["live.wal.truncated_share"] = ratio(f(sum.WALTruncated), f(sum.WALAppends))
	out["live.crash.restarts"] = restarts / float64(reps)
	out["live.crash.replayed_per_restart"] = ratio(f(sum.WALReplayed), restarts)
	out["live.crash.inquiries_per_restart"] = ratio(f(sum.Inquiries), restarts)
	out["live.crash.restart_abort_share"] = ratio(f(sum.Causes.Restart), f(sum.Aborts))
	if restarts == 0 {
		// The coordinator's counters die with a crashed incarnation
		// (ROADMAP item 0), so they are read on crash-free runs only.
		twoPCShares(sum.TwoPC, out)
	}
	if paired {
		diff := median(variantWall) - median(baseWall)
		if !variant.layerOn {
			diff = -diff
		}
		out[variant.metric] = ratio(diff, median(per))
	}
}
