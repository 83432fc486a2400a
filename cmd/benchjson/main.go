// Command benchjson runs the repository's hot-path benchmarks through
// `go test -bench` and emits a JSON snapshot (BENCH_<date>.json) so the
// performance trajectory can be tracked across PRs.
//
// Usage:
//
//	benchjson [-o dir] [-benchtime 1s] [-load-duration 2s]
//	          [-baseline BENCH_x.json] [-gate name=pct,...]
//
// Every snapshot entry but ServeLoad comes from a Benchmark function that
// `go test -bench` runs too — one definition per benchmark. benchjson runs
//
//	go test -run '^$' -bench <benchRegex> -benchmem -benchtime <-benchtime> -timeout 0 <benchPkgs>
//
// (no timeout, as a long -benchtime may outlast go test's default) and
// parses the standard result lines, dropping the Benchmark prefix and the
// -<GOMAXPROCS> suffix. The selected benchmarks cover the flow solver
// (SolverScale, SolverEpsilon), the scenario engine's solve cache
// (ScenarioCache), the persistent result store (StoreColdWarm), the
// incremental-evaluation path (SolverWarmStart/{ladder,expand}/{cold,warm},
// whose ladder must show a ≥3× cold/warm speedup on every run, baseline or
// not), the bisection-bandwidth estimator, two quick figure runners (Fig2a,
// Fig9a), the serve dataplane's warm-request path (ServeEvalWarm, in
// internal/service) and the remote store client (RemoteStore, in
// internal/remotestore). It builds and runs test binaries, so run it from
// inside the module.
//
// ServeLoad/{warm,mixed}/{p50,p99} have no Go benchmark: they come from
// the deterministic open-loop load generator (internal/loadgen) driving an
// in-process daemon for -load-duration per mix.
//
// With -baseline, the fresh snapshot is compared entry-by-entry against a
// committed earlier snapshot; -gate turns selected comparisons into hard
// failures, e.g. -gate "SolverScale/n=80=25" exits non-zero if that
// benchmark's ns/op — or, when the baseline recorded allocations, its
// allocs/op — regressed more than 25% — the CI perf gate.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/scenario"
	"repro/internal/service"
)

// benchPkgs holds the snapshot's benchmarks, and benchRegex selects them
// by function name (anchored, so Fig2a does not also pick up Fig2b).
// Sub-benchmarks of a selected benchmark all run.
var benchPkgs = []string{"repro", "repro/internal/service", "repro/internal/remotestore"}

const benchRegex = `^Benchmark(SolverScale|SolverEpsilon|ScenarioCache|StoreColdWarm|SolverWarmStart|BisectionBandwidth|Fig2a|Fig9a|ServeEvalWarm|RemoteStore)$`

// ladderFloor is the cold/warm speedup SolverWarmStart/ladder must show:
// a run where warm starts stop paying fails, baseline or not.
const ladderFloor = 3

// Entry is one benchmark measurement.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Seconds     float64 `json:"seconds"`
}

// Snapshot is the emitted file format.
type Snapshot struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Entries    []Entry `json:"entries"`
}

func main() {
	out := flag.String("o", ".", "output directory for BENCH_<date>.json")
	benchtime := flag.Duration("benchtime", time.Second, "per-benchmark target runtime")
	baseline := flag.String("baseline", "", "earlier BENCH_*.json to compare the fresh snapshot against")
	gate := flag.String("gate", "", "comma-separated name=maxRegressPct gates enforced against -baseline")
	loadDur := flag.Duration("load-duration", 2*time.Second, "ServeLoad open-loop measured window per mix")
	flag.Parse()

	snap := Snapshot{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	entries, err := runGoBench(*benchtime)
	if err != nil {
		fatal(err)
	}
	snap.Entries = entries
	if err := checkLadderFloor(entries); err != nil {
		fatal(err)
	}
	for _, l := range []struct {
		mode string
		miss float64
	}{{"warm", 0}, {"mixed", 0.1}} {
		res := runServeLoad(l.miss, *loadDur)
		for _, p := range []struct {
			name string
			ns   int64
		}{{"p50", int64(res.P50)}, {"p99", int64(res.P99)}} {
			e := Entry{
				Name:       fmt.Sprintf("ServeLoad/%s/%s", l.mode, p.name),
				Iterations: res.Requests,
				NsPerOp:    p.ns,
				Seconds:    res.Elapsed.Seconds(),
			}
			snap.Entries = append(snap.Entries, e)
			fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %10.1f rps\n", e.Name, e.NsPerOp, res.RPS)
		}
		if res.Errors > 0 || res.Statuses[http.StatusOK] != res.Requests {
			fatal(fmt.Errorf("ServeLoad/%s: %d errors, statuses %v", l.mode, res.Errors, res.Statuses))
		}
	}

	path := filepath.Join(*out, "BENCH_"+snap.Date+".json")
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println(path)

	if *baseline != "" {
		if err := compare(*baseline, &snap, *gate); err != nil {
			fatal(err)
		}
	}
}

// runGoBench runs the selected benchmarks through `go test`, echoing its
// output to stderr, and parses the result lines. Any non-zero exit — a
// build error, a benchmark's b.Fatal — is an error.
func runGoBench(benchtime time.Duration) ([]Entry, error) {
	args := append([]string{"test", "-run", "^$", "-bench", benchRegex, "-benchmem",
		"-benchtime", benchtime.String(), "-timeout", "0"}, benchPkgs...)
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stderr, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return parseBench(&buf)
}

// procSuffix is the -<GOMAXPROCS> suffix `go test` appends to benchmark
// names (absent when GOMAXPROCS=1).
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench` output and returns one Entry per
// result line, named without the Benchmark prefix and the -<GOMAXPROCS>
// suffix. Every other line (goos:, pkg:, PASS, ok, a benchmark's own log
// output) is skipped.
func parseBench(r io.Reader) ([]Entry, error) {
	var entries []Entry
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		e := Entry{
			Name:       procSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), ""),
			Iterations: n,
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in result line %q", f[i], sc.Text())
			}
			switch f[i+1] {
			case "ns/op":
				e.NsPerOp = int64(math.Round(v))
				e.Seconds = v * float64(n) / 1e9
			case "B/op":
				e.BytesPerOp = int64(v)
			case "allocs/op":
				e.AllocsPerOp = int64(v)
			}
		}
		entries = append(entries, e)
	}
	return entries, sc.Err()
}

// checkLadderFloor reports both SolverWarmStart cold/warm ratios and
// enforces ladderFloor on the ladder's.
func checkLadderFloor(entries []Entry) error {
	ns := make(map[string]int64, len(entries))
	for _, e := range entries {
		ns[e.Name] = e.NsPerOp
	}
	for _, c := range []string{"ladder", "expand"} {
		name := "SolverWarmStart/" + c
		cold, warm := ns[name+"/cold"], ns[name+"/warm"]
		if cold == 0 || warm == 0 {
			if c == "ladder" {
				return fmt.Errorf("%s: cold or warm entry missing from the run", name)
			}
			continue
		}
		ratio := float64(cold) / float64(warm)
		fmt.Fprintf(os.Stderr, "%-28s %12.2fx cold/warm\n", name, ratio)
		if c == "ladder" && ratio < ladderFloor {
			return fmt.Errorf("%s: warm start only %.2fx faster than cold (acceptance floor %dx)",
				name, ratio, ladderFloor)
		}
	}
	return nil
}

// compare prints per-entry deltas against a baseline snapshot and enforces
// the -gate regression limits.
func compare(baselinePath string, snap *Snapshot, gates string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Snapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	baseBy := make(map[string]Entry, len(base.Entries))
	for _, e := range base.Entries {
		baseBy[e.Name] = e
	}
	limits := map[string]float64{}
	if gates != "" {
		for _, g := range strings.Split(gates, ",") {
			g = strings.TrimSpace(g)
			// Benchmark names contain '=' (SolverScale/n=80), so the limit
			// is everything after the LAST '='.
			cut := strings.LastIndex(g, "=")
			if cut < 0 {
				return fmt.Errorf("bad -gate entry %q (want name=pct)", g)
			}
			name, pctStr := g[:cut], g[cut+1:]
			pct, err := strconv.ParseFloat(pctStr, 64)
			if err != nil {
				return fmt.Errorf("bad -gate percentage in %q: %w", g, err)
			}
			limits[name] = pct
		}
	}
	fmt.Fprintf(os.Stderr, "\nvs baseline %s (%s):\n", baselinePath, base.Date)
	var failures []string
	for _, e := range snap.Entries {
		b, ok := baseBy[e.Name]
		if !ok || b.NsPerOp == 0 {
			fmt.Fprintf(os.Stderr, "  %-28s %12d ns/op  (no baseline)\n", e.Name, e.NsPerOp)
			continue
		}
		delta := 100 * (float64(e.NsPerOp) - float64(b.NsPerOp)) / float64(b.NsPerOp)
		mark := ""
		if lim, gated := limits[e.Name]; gated {
			mark = fmt.Sprintf("  [gate %.0f%%]", lim)
			if delta > lim {
				mark += " FAIL"
				failures = append(failures, fmt.Sprintf("%s regressed %.1f%% (limit %.0f%%): %d -> %d ns/op",
					e.Name, delta, lim, b.NsPerOp, e.NsPerOp))
			}
			// A gate also pins allocs/op (when the baseline recorded any):
			// the zero-alloc dataplane must not quietly grow garbage even if
			// wall-clock stays inside the limit.
			if b.AllocsPerOp > 0 {
				aDelta := 100 * (float64(e.AllocsPerOp) - float64(b.AllocsPerOp)) / float64(b.AllocsPerOp)
				if aDelta > lim {
					mark += " ALLOC-FAIL"
					failures = append(failures, fmt.Sprintf("%s allocs regressed %.1f%% (limit %.0f%%): %d -> %d allocs/op",
						e.Name, aDelta, lim, b.AllocsPerOp, e.AllocsPerOp))
				}
			}
		}
		fmt.Fprintf(os.Stderr, "  %-28s %12d ns/op  %+7.1f%%%s\n", e.Name, e.NsPerOp, delta, mark)
	}
	// A gate that matches nothing must fail loudly — otherwise renaming a
	// benchmark silently turns the CI gate vacuous.
	snapBy := make(map[string]bool, len(snap.Entries))
	for _, e := range snap.Entries {
		snapBy[e.Name] = true
	}
	for name := range limits {
		if b, ok := baseBy[name]; !ok || b.NsPerOp == 0 {
			failures = append(failures, fmt.Sprintf("gated benchmark %s missing from baseline", name))
		}
		if !snapBy[name] {
			failures = append(failures, fmt.Sprintf("gated benchmark %s missing from this run", name))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// serveGrid is the load benchmark's unit of work: a single-point aspl
// grid whose cost is dominated by the serve path once warm.
func serveGrid(seed int) string {
	return fmt.Sprintf("topo=rrg:n=8,deg=3,sps=1 traffic=permutation eval=aspl runs=1 seed=%d", seed)
}

// runServeLoad drives the deterministic open-loop load generator against
// an in-process serve daemon: 16 zipf-popular warm keys, optionally mixed
// with fresh never-seen grids, measured over dur. The p50/p99 numbers
// land in the snapshot as ServeLoad/<mix>/<pct>.
func runServeLoad(missFrac float64, dur time.Duration) loadgen.Result {
	cache := scenario.NewCache()
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true}
	svc := service.New(service.Config{Engine: eng, Cache: cache, MaxJobs: 8})
	hs := httptest.NewServer(svc.Handler())
	defer hs.Close()
	universe := make([]string, 16)
	for i := range universe {
		universe[i] = serveGrid(i + 1)
	}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:  hs.URL,
		Universe: universe,
		Rate:     400,
		Duration: dur,
		Conns:    8,
		Seed:     1,
		MissFrac: missFrac,
		MissGrid: func(i int) string { return serveGrid(1_000_000 + i) },
		Prime:    true,
	})
	if err != nil {
		fatal(err)
	}
	return res
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
