// Package bench_test is the repository's benchmark: seven workloads
// through the two public drivers (engine.Run, live.Run), the end-to-end
// metrics a user sees, and a separate traced run for per-layer numbers.
// See README.md in this directory.
//
// It is a test-only package on purpose. repolint (internal/analysis)
// walks every directory holding a non-test .go file and demands an
// import-table row for it; the benchmark may not edit that table, so it
// holds _test.go files only and TestMain is its entry point: with
// -workload the binary is the benchmark command, without it `go test`
// runs the smoke tests.
package bench_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

var (
	flagWorkload = flag.String("workload", "", "run this workload as the benchmark command and exit")
	flagSeed     = flag.Uint64("seed", 1, "workload seed; repetition r of a run uses seed*1000+r")
	flagSeconds  = flag.Float64("seconds", 10, "how long one run measures")
	flagTrace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
	flagOut      = flag.String("out", "", "also write the run's record, raw per-repetition values included, to this file")
	flagTraceOut = flag.String("trace-out", "", "where a traced run writes its spans (default bench/out/trace-<workload>.json)")
	flagRev      = flag.String("rev", "unknown", "source revision to note in the record")
	flagList     = flag.Bool("list", false, "print the workload names and exit")
	flagRepeat   = flag.String("repeat-check", "", "two directories of records, comma-separated: compare the run sets and exit")
	flagSpread   = flag.String("spread-check", "", "a directory of records from runs on several seeds: print each metric's spread and exit")
)

func TestMain(m *testing.M) {
	flag.Parse()
	switch {
	case *flagList:
		for _, w := range workloads(1) {
			fmt.Println(w.name)
		}
		os.Exit(0)
	case *flagRepeat != "":
		os.Exit(repeatCheck(*flagRepeat))
	case *flagSpread != "":
		os.Exit(spreadCheck(*flagSpread))
	case *flagWorkload != "":
		os.Exit(command())
	}
	os.Exit(m.Run())
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the command's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what -out receives: the result plus what is needed to judge
// and reproduce it.
type record struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      int      `json:"trace"`
	Nproc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Rev        string   `json:"rev"`
	Failures   []string `json:"failures"`
	// NoiseCalibNs times one fixed pure-CPU loop before and after the
	// run; a drift above 10% marks the run noisy.
	NoiseCalibNs [2]int64 `json:"noise_calib_ns"`
	Noisy        bool     `json:"noisy"`
	// Raw holds every end-to-end metric's per-repetition values.
	Raw    map[string][]float64 `json:"raw,omitempty"`
	Result result               `json:"result"`
}

// calibrate times a fixed pure-CPU loop; the machine's speed at this
// moment is the only thing that can move it. It keeps the fastest of
// three passes, so one preemption does not read as a slow machine.
func calibrate() int64 {
	best := int64(math.MaxInt64)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 8_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		best = min(best, int64(time.Since(start)))
	}
	return best
}

var calibSink uint64

// command runs one workload as the benchmark command and returns the
// process exit code: 0 when every repetition's output was correct.
func command() int {
	w, ok := workloadByName(*flagWorkload, 1)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *flagWorkload)
		return 2
	}
	budget := time.Duration(*flagSeconds * float64(time.Second))
	rec := record{
		Workload: w.name, Seed: *flagSeed, Seconds: *flagSeconds, Trace: *flagTrace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Rev: *flagRev,
	}
	rec.NoiseCalibNs[0] = calibrate()

	var t tally
	var defs []metricDef
	var values map[string]float64
	if *flagTrace == 0 {
		defs = endToEnd
		rec.Raw = measureEndToEnd(w.name, 1, *flagSeed, budget, &t)
		values = summarize(w, rec.Raw)
	} else {
		defs = perLayer
		file := newTraceFile(w.name, *flagSeed)
		values = measureLayers(w, 1, *flagSeed, budget, &t, file)
		path := *flagTraceOut
		if path == "" {
			path = filepath.Join("bench", "out", "trace-"+w.name+".json")
		}
		if err := writeJSON(path, file); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing trace: %v\n", err)
			return 2
		}
	}

	rec.NoiseCalibNs[1] = calibrate()
	drift := math.Abs(float64(rec.NoiseCalibNs[1]-rec.NoiseCalibNs[0])) / float64(rec.NoiseCalibNs[0])
	rec.Noisy = drift > 0.10

	res := result{Attempted: t.attempted, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Nothing was measured: every repetition's Run call failed.
			t.failures = append(t.failures, "metric "+m.name+" is not a number")
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	res.Failed = len(t.failures)
	res.Correct = res.Failed == 0
	rec.Failures, rec.Result = t.failures, res

	noisy := ""
	if rec.Noisy {
		noisy = fmt.Sprintf("  NOISY: calibration loop drifted %.0f%% during the run", 100*drift)
	}
	fmt.Printf("workload %s  seed %d  trace %d  %d repetitions checked, %d failed%s\n",
		w.name, rec.Seed, rec.Trace, res.Attempted, res.Failed, noisy)
	for _, m := range defs {
		fmt.Printf("  %-40s %16.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	for _, f := range t.failures {
		fmt.Printf("  FAILED %s\n", f)
	}

	if *flagOut != "" {
		if err := writeJSON(*flagOut, rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing record: %v\n", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
