package bench_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// manifest is BENCHMARK.json, the contract later changes are judged by.
type manifest struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadManifest reads BENCHMARK.json from the repository root, which is
// the working directory of the command and the parent of `go test`'s.
func loadManifest() (manifest, error) {
	var m manifest
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	}
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(data, &m)
}

// loadRecords reads every *.json record in dir, grouped by workload.
func loadRecords(dir string) (map[string][]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no records in %s", dir)
	}
	out := map[string][]record{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default exclusive
// method), which is what the benchmark's acceptance check computes. One
// value is its own quartiles; none has none, and gives NaN.
func quartiles(values []float64) [3]float64 {
	x := slices.Sorted(slices.Values(values))
	n := len(x)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{x[0], x[0], x[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q
}

// worse is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worse(m manifestMetric, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeatCheck compares two sets of runs of the same code on the same
// seed, one record per workload in each directory: per workload and
// end-to-end metric it prints both medians, both inter-quartile ranges
// over the repetitions, the relative difference and PASS or FAIL against
// the metric's bound. Metrics that are exact on a DES workload must be
// equal. It returns the process exit code.
func repeatCheck(dirs string) int {
	a, b, ok := strings.Cut(dirs, ",")
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: -repeat-check wants two directories, comma-separated")
		return 2
	}
	man, err := loadManifest()
	var first, second map[string][]record
	if err == nil {
		first, err = loadRecords(a)
	}
	if err == nil {
		second, err = loadRecords(b)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	failed := 0
	fmt.Printf("%-15s %-18s %14s %14s %9s %9s %9s %7s\n", "workload", "metric", "median 1", "median 2", "iqr 1", "iqr 2", "diff", "bound")
	for _, w := range workloads(1) {
		if len(first[w.name]) != 1 || len(second[w.name]) != 1 {
			fmt.Printf("%-15s FAIL: want one record in each set, have %d and %d\n", w.name, len(first[w.name]), len(second[w.name]))
			failed++
			continue
		}
		r1, r2 := first[w.name][0], second[w.name][0]
		for _, m := range man.EndToEnd {
			v1, v2 := r1.Result.Metrics[m.Name].Value, r2.Result.Metrics[m.Name].Value
			iqr := func(r record) float64 {
				q := quartiles(r.Raw[m.Name])
				return (q[2] - q[0]) / q[1]
			}
			diff := (v2 - v1) / v1
			verdict := "PASS"
			switch {
			case w.isDES() && exactOnDES[m.Name]:
				if v1 != v2 {
					verdict = "FAIL (must be equal)"
				}
			case max(worse(m, v1, v2), worse(m, v2, v1)) > m.Bound:
				verdict = "FAIL"
			}
			if r1.Result.Failed+r2.Result.Failed > 0 {
				verdict = "FAIL (wrong output)"
			}
			if len(r1.Raw[m.Name]) == 0 || len(r2.Raw[m.Name]) == 0 {
				// Every Run call failed, or the record is a traced run's.
				verdict = "FAIL (no repetition measured)"
			}
			if verdict != "PASS" {
				failed++
			}
			if r1.Noisy || r2.Noisy {
				verdict += " noisy"
			}
			fmt.Printf("%-15s %-18s %14.6g %14.6g %8.2f%% %8.2f%% %+8.2f%% %6.0f%% %s\n",
				w.name, m.Name, v1, v2, 100*iqr(r1), 100*iqr(r2), 100*diff, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		fmt.Printf("repeat-check: %d FAIL\n", failed)
		return 1
	}
	fmt.Println("repeat-check: every workload and metric within its bound")
	return 0
}

// spreadCheck is the benchmark's acceptance check, run on records of
// several runs per workload, each on another seed: per end-to-end metric
// the distance between the first and third quartile of the runs' values
// as a share of their median. A spread above the metric's bound fails
// (setup_s is exempt); above a third of it, it is flagged.
func spreadCheck(dir string) int {
	man, err := loadManifest()
	var records map[string][]record
	if err == nil {
		records, err = loadRecords(dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	failed := 0
	fmt.Printf("%-15s %-18s %4s %14s %9s %7s\n", "workload", "metric", "runs", "median", "spread", "bound")
	for _, w := range workloads(1) {
		runs := records[w.name]
		for _, m := range man.EndToEnd {
			var values []float64
			wrong := 0
			for _, r := range runs {
				values = append(values, r.Result.Metrics[m.Name].Value)
				wrong += r.Result.Failed
			}
			if len(values) < 2 {
				fmt.Printf("%-15s %-18s %4d FAIL: need at least two runs\n", w.name, m.Name, len(values))
				failed++
				continue
			}
			q := quartiles(values)
			spread := (q[2] - q[0]) / q[1]
			verdict := "ok"
			switch {
			case wrong > 0:
				verdict = "FAIL (wrong output)"
			case m.Name == "setup_s":
			case spread > m.Bound:
				verdict = "FAIL"
			case spread > m.Bound/3:
				verdict = "above a third of the bound"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				failed++
			}
			fmt.Printf("%-15s %-18s %4d %14.6g %8.2f%% %6.0f%% %s\n", w.name, m.Name, len(values), q[1], 100*spread, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		fmt.Printf("spread-check: %d FAIL\n", failed)
		return 1
	}
	return 0
}
