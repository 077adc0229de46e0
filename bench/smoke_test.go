package bench_test

import (
	"maps"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/ids"
)

// smokeScale runs every workload and every isolated-core driver at a
// hundredth of the benchmark's size, so `go test` here stays in seconds.
const smokeScale = 0.01

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmark is the smoke mode: both kinds of run on all seven
// workloads, every output checked, and the emitted names and units held
// against BENCHMARK.json.
func TestBenchmark(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	// The workloads in the contract are the ones the benchmark runs.
	var listed, run []string
	for _, w := range man.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads(smokeScale) {
		run = append(run, w.name)
	}
	if !slices.Equal(listed, run) {
		t.Fatalf("BENCHMARK.json workloads\n%q\nthe benchmark runs\n%q", listed, run)
	}
	if !slices.Equal(man.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", man.Paths)
	}
	for _, d := range coreDrivers() {
		on := strings.Fields(d.on)
		if len(on) == 0 {
			t.Errorf("core driver %s runs in no workload", d.op)
		}
		for _, name := range on {
			if !slices.Contains(run, name) {
				t.Errorf("core driver %s runs in unknown workload %q", d.op, name)
			}
		}
	}

	for _, w := range workloads(smokeScale) {
		t.Run(w.name, func(t *testing.T) {
			var tl tally
			first := summarize(w, measureEndToEnd(w.name, smokeScale, 1, 0, &tl))
			sameNames(t, "end_to_end", man.EndToEnd, endToEnd, first)
			for name, v := range first {
				if v <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, v)
				}
			}
			if w.isDES() {
				again := summarize(w, measureEndToEnd(w.name, smokeScale, 1, 0, &tl))
				for name := range exactOnDES {
					if first[name] != again[name] {
						t.Errorf("%s is exact on a DES workload, yet two runs on one seed gave %v and %v", name, first[name], again[name])
					}
				}
			}

			file := newTraceFile(w.name, 1)
			layers := measureLayers(w, smokeScale, 1, 0, &tl, file)
			sameNames(t, "per_layer", man.PerLayer, perLayer, layers)
			stored := 0
			for _, src := range file.Sources {
				stored += len(src.Spans)
			}
			if stored == 0 || stored > maxStoredSpans {
				t.Errorf("trace file stores %d spans", stored)
			}
			if w.isDES() && (layers["sim.fire_ns"] <= 0 || layers["engine.client.self_ns"] <= 0) {
				t.Errorf("traced DES run gave no handler times: %v", layers)
			}
			if !w.isDES() && layers["live.msg_ns"] <= 0 {
				t.Errorf("traced live run gave no message cost: %v", layers)
			}
			// An isolated core is measured where the workload crosses its
			// layer and reads 0 everywhere else.
			for _, d := range coreDrivers() {
				if measured := layers[d.ns] > 0; measured != d.crossedBy(w.name) {
					t.Errorf("%s = %v, though crossedBy is %v", d.ns, layers[d.ns], d.crossedBy(w.name))
				}
			}

			if tl.attempted == 0 || len(tl.failures) > 0 {
				t.Errorf("%d repetitions checked, failures: %v", tl.attempted, tl.failures)
			}
		})
	}
}

// sameNames requires that the manifest section, the benchmark's own
// table and the values a run emitted name the same metrics, once each,
// with the same units.
func sameNames(t *testing.T, section string, inManifest []manifestMetric, inCode []metricDef, emitted map[string]float64) {
	t.Helper()
	units := map[string]string{}
	for _, m := range inCode {
		if _, dup := units[m.name]; dup {
			t.Errorf("%s: %s defined twice", section, m.name)
		}
		units[m.name] = m.unit
	}
	seen := map[string]bool{}
	for _, m := range inManifest {
		switch {
		case seen[m.Name]:
			t.Errorf("%s: %s listed twice in BENCHMARK.json", section, m.Name)
		case !nameRE.MatchString(m.Name):
			t.Errorf("%s: bad metric name %q", section, m.Name)
		case m.Unit == "" || units[m.Name] != m.Unit:
			t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the benchmark", section, m.Name, m.Unit, units[m.Name])
		case m.Better != "lower" && m.Better != "higher":
			t.Errorf("%s: %s is better %q", section, m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	want := slices.Sorted(maps.Keys(units))
	if got := slices.Sorted(maps.Keys(seen)); !slices.Equal(got, want) {
		t.Errorf("%s: BENCHMARK.json names %v, the benchmark defines %v", section, got, want)
	}
	if got := slices.Sorted(maps.Keys(emitted)); !slices.Equal(got, want) {
		t.Errorf("%s: run emitted %v, the benchmark defines %v", section, got, want)
	}
}

// TestOracleTrips is the negative self-test: a hand-built execution that
// is not serializable, and a bank that lost money, go through the same
// checks and the same tally as every repetition, and must count as
// failures.
func TestOracleTrips(t *testing.T) {
	// T1 and T2 each read the initial version of the item the other
	// overwrites: T1 before T2 by x, T2 before T1 by y.
	var log history.Log
	log.Commit(history.Committed{Txn: 1, Reads: []history.Read{{Item: 1, Version: ids.None}}, Writes: []ids.Item{2}})
	log.Commit(history.Committed{Txn: 2, Reads: []history.Read{{Item: 2, Version: ids.None}}, Writes: []ids.Item{1}})

	var tl tally
	tl.check("write skew", checkHistory(&log))
	tl.check("no history", checkHistory(nil))
	tl.check("lost money", checkBank(map[ids.Item]int64{0: bankBalance, 1: bankBalance - 1}, 2, bankBalance))
	tl.check("lost account", checkBank(map[ids.Item]int64{0: 2 * bankBalance}, 2, bankBalance))
	if tl.attempted != 4 || len(tl.failures) != 4 {
		t.Fatalf("4 wrong outputs gave %d failures of %d attempted: %v", len(tl.failures), tl.attempted, tl.failures)
	}
	if !strings.Contains(tl.failures[0], "not serializable") {
		t.Errorf("write skew reported as %q", tl.failures[0])
	}

	var sound history.Log
	sound.Commit(history.Committed{Txn: 1, Writes: []ids.Item{1}})
	sound.Commit(history.Committed{Txn: 2, Reads: []history.Read{{Item: 1, Version: 1}}})
	tl = tally{}
	tl.check("serial", checkHistory(&sound))
	tl.check("balanced", checkBank(map[ids.Item]int64{0: bankBalance + 5, 1: bankBalance - 5}, 2, bankBalance))
	if len(tl.failures) != 0 {
		t.Fatalf("correct outputs counted as failures: %v", tl.failures)
	}
}

// TestQuartiles pins quartiles to statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		values []float64
		want   [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{9, 1, 4}, [3]float64{1, 4, 9}},
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
	} {
		if got := quartiles(c.values); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.values, got, c.want)
		}
	}
	for _, q := range quartiles(nil) {
		if !math.IsNaN(q) {
			t.Errorf("quartiles of no values = %v, want NaN", quartiles(nil))
		}
	}
}
