package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// referenceMain regenerates reference.json: every batch workload's
// per-run values at each instance's grid seed, computed with the
// workload's own engine configuration.
//
//	perfbench reference [-o perfbench/reference.json]
func referenceMain(args []string) int {
	fs := flag.NewFlagSet("reference", flag.ExitOnError)
	out := fs.String("o", filepath.Join("perfbench", "reference.json"), "output file")
	fs.Parse(args)
	work, err := os.MkdirTemp(".bench_build", "reference-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(work)
	refs := references{}
	for _, b := range []batchWorkload{paperSweep, failureLadder} {
		refs[b.name] = map[string]map[string][]float64{}
		for i := 0; i < b.instances; i++ {
			seed := int64(i + 1)
			pts, err := gridPoints(b.grids, seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			env, err := b.newEnv(filepath.Join(work, fmt.Sprintf("%s-%d", b.name, seed)))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			p, err := b.pass(env, pts, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			vals := map[string][]float64{}
			for i, pt := range pts {
				for run, v := range p.vals[i] {
					if msg := checkValue(pt, run, v, nil); msg != "" {
						fmt.Fprintln(os.Stderr, msg)
						return 1
					}
				}
				vals[pt.Key()] = p.vals[i]
			}
			refs[b.name][fmt.Sprint(seed)] = vals
			fmt.Fprintf(os.Stderr, "%s seed %d: %d points in %v\n", b.name, seed, len(pts), p.wall)
		}
	}
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readReports collects the report lines of a file holding the standard
// output of one or more runs.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line struct {
			Report *report `json:"report"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Report != nil && !line.Report.Trace {
			out = append(out, *line.Report)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced report lines", path)
	}
	return out, nil
}

// compareMain compares the untraced runs of two files, per workload and
// end-to-end metric, by median against the bounds in BENCHMARK.json.
// Results measured in different environments are incomparable: it says
// so and gives no verdict.
//
//	perfbench compare [-bench BENCHMARK.json] BASE HEAD
//
// A head run with failed or wrong outputs fails the comparison whatever
// its timings, in any environment.
//
// Exit status: 0 when every metric holds (or the results are
// incomparable), 1 on a regression or a failed head run, 2 on bad input.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] BASE HEAD")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *benchPath, err)
		return 2
	}
	base, err := readReports(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	head, err := readReports(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	verdict, lines := compareReports(base, head, bf)
	for _, l := range lines {
		fmt.Println(l)
	}
	if verdict == "regressed" || verdict == "failed" {
		return 1
	}
	return 0
}

// compareReports returns "failed", "incomparable", "regressed" or "ok"
// with one line per failed head run, or else per workload and metric.
func compareReports(base, head []report, bf benchmarkFile) (string, []string) {
	var failed []string
	for _, r := range head {
		if r.Failed > 0 {
			failed = append(failed, fmt.Sprintf("failed: head %s seed %d: %d of %d operations failed or wrong %v",
				r.Workload, r.Fingerprint.Seed, r.Failed, r.Attempted, r.Errors))
		}
	}
	if len(failed) > 0 {
		return "failed", failed
	}
	all := append(append([]report(nil), base...), head...)
	for _, r := range all[1:] {
		if f := envMismatch(all[0].Fingerprint, r.Fingerprint); f != "" && f != "workload" {
			return "incomparable", []string{fmt.Sprintf("incomparable: %s differs (%v vs %v)", f, all[0].Fingerprint, r.Fingerprint)}
		}
	}
	group := func(rs []report) map[string][]report {
		g := map[string][]report{}
		for _, r := range rs {
			g[r.Workload] = append(g[r.Workload], r)
		}
		return g
	}
	bg, hg := group(base), group(head)
	var names []string
	for w := range bg {
		if hg[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	verdict := "ok"
	var lines []string
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			var bv, hv []float64
			for _, r := range bg[w] {
				bv = append(bv, r.Metrics[m.Name])
			}
			for _, r := range hg[w] {
				hv = append(hv, r.Metrics[m.Name])
			}
			bm, hm := median(bv), median(hv)
			worse := (hm - bm) / bm
			if m.Better == "higher" {
				worse = -worse
			}
			status := "ok"
			if worse > m.Bound {
				status = "REGRESSED"
				verdict = "regressed"
			}
			lines = append(lines, fmt.Sprintf("%-15s %-12s base %-12.6g head %-12.6g worse %+7.2f%% (bound %.0f%%, n=%d/%d) %s",
				w, m.Name, bm, hm, 100*worse, 100*m.Bound, len(bv), len(hv), status))
		}
	}
	if len(names) == 0 {
		return "incomparable", []string{"incomparable: no workload appears in both files"}
	}
	return verdict, lines
}
