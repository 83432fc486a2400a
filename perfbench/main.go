// Command perfbench is the repository's benchmark. It drives three
// workloads through the program's public APIs, checks every output, and
// prints one JSON result line:
//
//	perfbench --workload paper-sweep|failure-ladder|serve-mixed \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off; with --trace 1 it carries the per-layer metrics of a
// traced run. The line before the result is a report with every metric
// and the environment fingerprint; `perfbench compare BASE HEAD`
// compares files of such reports. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metricDef is one metric the benchmark reports.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. Keep in step with BENCHMARK.json (TestBenchmarkJSON).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"makespan_s", "s"},
	{"cpu_s", "s"},
	{"max_rss_mb", "MB"},
	{"hit_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
}

// perLayer are the metrics of single layers, printed by every traced
// run (0 where the workload does not exercise the layer).
var perLayer = []metricDef{
	{"mcf.solve_s", "s"},
	{"mcf.prebuild_s", "s"},
	{"mcf.route_s", "s"},
	{"mcf.phases", "count"},
	{"mcf.tree_builds", "count"},
	{"mcf.bucket_builds", "count"},
	{"mcf.tree_repairs", "count"},
	{"mcf.tree_prebuilds", "count"},
	{"mcf.warm_cold_solve_ratio", "ratio"},
	{"graph.tree_build_us", "us"},
	{"runner.cpu_util", "frac"},
	{"scenario.point_s", "s"},
	{"scenario.run_self_s", "s"},
	{"scenario.warm_starts", "count"},
	{"scenario.warm_fallbacks", "count"},
	{"scenario.parent_misses", "count"},
	{"scenario.warm_prepare_s", "s"},
	{"flowcheck.certify_s", "s"},
	{"store.read_s", "s"},
	{"store.hits", "count"},
	{"store.writes", "count"},
	{"store.parent_links", "count"},
	{"store.promotions", "count"},
	{"remotestore.read_s", "s"},
	{"remotestore.attempts", "count"},
	{"remotestore.retries", "count"},
	{"service.handler_hit_us", "us"},
	{"service.handler_miss_ms", "ms"},
	{"service.bytecache_hit_frac", "frac"},
	{"service.shared_total", "count"},
	{"service.rejected_total", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_mb", "MB"},
	{"bench.sched_lag_p99_ms", "ms"},
	{"bench.floor_p50_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.span_coverage_frac", "frac"},
}

// result is what one workload run measured.
type result struct {
	Attempted, Failed int
	// Metrics holds every metric the run computed, by name.
	Metrics map[string]float64
	// Samples records how many samples each percentile rests on.
	Samples map[string]int
	// Errors describes the first few failed or wrong operations.
	Errors []string
}

func newResult() *result {
	return &result{Metrics: map[string]float64{}, Samples: map[string]int{}}
}

// fail counts one failed or wrong operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// runConfig is one invocation's workload parameters.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Work is a scratch directory inside the checkout, removed on exit.
	Work string
}

var workloads = map[string]func(runConfig) (*result, error){
	"paper-sweep":    runPaperSweep,
	"failure-ladder": runFailureLadder,
	"serve-mixed":    runServeMixed,
}

// errInvalid marks a run whose load generator fell behind its schedule
// by more than the benchmark's limit: its figures describe the harness,
// not the program, so it reports no result.
var errInvalid = errors.New("invalid run")

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "reference":
			os.Exit(referenceMain(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload: paper-sweep, failure-ladder or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured window in seconds")
	traceOn := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.Parse(os.Args[1:])
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (paper-sweep|failure-ladder|serve-mixed), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fatal(err)
	}
	work, _ = filepath.Abs(work)
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *traceOn == 1, Work: work}
	res, err := run(cfg)
	os.RemoveAll(work)
	if errors.Is(err, errInvalid) {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(3)
	}
	if err != nil {
		fatal(err)
	}
	res.Metrics["max_rss_mb"] = maxRSSMB()
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	if err := printResult(os.Stdout, *workload, cfg, res, defs); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// report is the full record of one run: every metric measured, the
// sample counts behind each percentile, and the environment fingerprint.
type report struct {
	Workload    string             `json:"workload"`
	Trace       bool               `json:"trace"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	ErrorRate   float64            `json:"error_rate"`
	Errors      []string           `json:"errors,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Samples     map[string]int     `json:"samples"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes the report line, then the result line the contract
// reads (last line of stdout).
func printResult(w *os.File, workload string, cfg runConfig, res *result, defs []metricDef) error {
	if res.Attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", workload)
	}
	rep := report{
		Workload:    workload,
		Trace:       cfg.Trace,
		Fingerprint: takeFingerprint(workload, cfg.Seed),
		Attempted:   res.Attempted,
		Failed:      res.Failed,
		ErrorRate:   float64(res.Failed) / float64(res.Attempted),
		Errors:      res.Errors,
		Metrics:     res.Metrics,
		Samples:     res.Samples,
	}
	out := finalLine{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && cfg.Trace {
			// A layer the workload does not exercise did no work.
			v, ok = 0, true
		}
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%s: metrics not measured: %v", workload, missing)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]report{"report": rep}); err != nil {
		return err
	}
	return enc.Encode(out)
}

// gomaxprocs is the worker and connection budget of every workload.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
