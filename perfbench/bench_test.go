package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPlanDeterministic(t *testing.T) {
	a, b := makePlan(7, 10), makePlan(7, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different plans")
	}
	c := makePlan(8, 10)
	if reflect.DeepEqual(a.Hits, c.Hits) || reflect.DeepEqual(a.MissLines, c.MissLines) || reflect.DeepEqual(a.Universe, c.Universe) {
		t.Fatal("different seeds gave the same schedule, ranks or miss grids")
	}
	if len(a.Hits) != int(hitRate)*10 || len(a.Misses) != int(missRate)*10 {
		t.Fatalf("got %d hits and %d misses, want the rate times the window", len(a.Hits), len(a.Misses))
	}
	for _, lane := range [][]arrival{a.Hits, a.Misses} {
		for i := 1; i < len(lane); i++ {
			if lane[i].At < lane[i-1].At || lane[i].At >= 10*time.Second {
				t.Fatalf("arrival %d at %v is out of order or outside the window", i, lane[i].At)
			}
		}
	}
}

func TestPlanClasses(t *testing.T) {
	p := makePlan(3, 20)
	universe := map[string]bool{}
	for _, l := range p.Universe {
		if universe[l] {
			t.Fatalf("universe grid %q repeats", l)
		}
		universe[l] = true
	}
	counts := map[tierKind]int{}
	for _, k := range p.Tier {
		counts[k]++
	}
	want := map[tierKind]int{tierBytecache: bytecacheRanks, tierDisk: (universeSize - bytecacheRanks) / 2, tierPeer: (universeSize - bytecacheRanks) / 2}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("tier split %v, want %v", counts, want)
	}
	for _, a := range p.Hits {
		if a.Idx < 0 || a.Idx >= universeSize {
			t.Fatalf("hit asks rank %d outside the universe", a.Idx)
		}
	}
	seen := map[string]bool{}
	for i, a := range p.Misses {
		if a.Idx != i {
			t.Fatalf("miss %d asks grid %d", i, a.Idx)
		}
		l := p.MissLines[a.Idx]
		if universe[l] || seen[l] {
			t.Fatalf("miss grid %q was seen before", l)
		}
		seen[l] = true
		if !strings.Contains(l, missTopo) {
			t.Fatalf("miss grid %q is not sized like a real request", l)
		}
	}
	if len(p.Sample) != missSamples {
		t.Fatalf("%d sampled misses, want %d", len(p.Sample), missSamples)
	}
	// Popularity is skewed: rank 0 is asked more than any rank past the
	// byte-cache tier.
	asks := make([]int, universeSize)
	for _, a := range p.Hits {
		asks[a.Idx]++
	}
	for r := bytecacheRanks; r < universeSize; r++ {
		if asks[r] >= asks[0] {
			t.Fatalf("rank %d asked %d times, rank 0 only %d", r, asks[r], asks[0])
		}
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, unsorted
	}
	cases := []struct {
		p      float64
		v      float64
		beyond int
	}{{50, 500, 500}, {90, 900, 100}, {99, 990, 10}, {99.9, 999, 1}}
	for _, c := range cases {
		v, beyond := percentile(xs, c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("p%g = %v with %d beyond, want %v with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
	if _, err := requirePercentile("x", xs, 99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
	if _, err := requirePercentile("x", xs[:99], 90); err == nil || !strings.Contains(err.Error(), "9 samples beyond it (of 99)") {
		t.Errorf("p90 of 99 samples: got %v, want a refusal naming the sample count", err)
	}
	if _, err := requirePercentile("x", xs[:100], 90); err != nil {
		t.Errorf("p90 of 100 samples: %v", err)
	}
	if _, err := requirePercentile("x", xs, 99.9); err == nil || !strings.Contains(err.Error(), "1 samples beyond it (of 1000)") {
		t.Errorf("p99.9 of 1000 samples: got %v, want a refusal naming the sample count", err)
	}
}

func TestCheckValue(t *testing.T) {
	pt, err := linePoint("topo=rrg:n=40,deg=10,sps=5 traffic=permutation eval=mcf runs=1 eps=0.1 seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if msg := checkValue(pt, 0, 0.9, []float64{0.93}); msg != "" {
		t.Errorf("in-class value refused: %s", msg)
	}
	if msg := checkValue(pt, 0, 0.5, []float64{0.93}); !strings.Contains(msg, "class") {
		t.Errorf("value far below the reference: got %q", msg)
	}
	if msg := checkValue(pt, 0, math.Inf(1), nil); !strings.Contains(msg, "non-finite") {
		t.Errorf("infinite value: got %q", msg)
	}
	if msg := checkValue(pt, 0, 5, nil); !strings.Contains(msg, "Theorem 1") {
		t.Errorf("value above the bound: got %q", msg)
	}
}

// TestTracedBatchCoverage checks that on a traced batch pass the program's
// layer spans cover the measured window and no span is dropped.
func TestTracedBatchCoverage(t *testing.T) {
	b := batchWorkload{name: "test", warm: true, grids: ladderGrids(
		"topo=rrg:n=40,deg=10,sps=5 traffic=permutation eval=failures:frac=%s,eval=mcf runs=1 eps=0.1",
		"0", "0.1", "0.2")}
	pts, err := gridPoints(b.grids, 1)
	if err != nil {
		t.Fatal(err)
	}
	env, err := b.newEnv(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.pass(env, pts, true)
	if err != nil {
		t.Fatal(err)
	}
	st := analyzeTraces(p.traces)
	if st.traces != len(pts) || st.dropped != 0 {
		t.Fatalf("%d traces with %d dropped spans, want %d and 0", st.traces, st.dropped, len(pts))
	}
	if cov := st.covered / p.wall.Seconds(); cov < 0.9 {
		t.Fatalf("layer spans cover %.2f of the window, want >= 0.9", cov)
	}
	if st.total["mcf.solve"] <= 0 || st.total["warm.certify"] <= 0 {
		t.Fatalf("missing solver or certification spans: %v", st.total)
	}
}

func TestCompareIncomparable(t *testing.T) {
	fp := takeFingerprint("paper-sweep", 1)
	base := []report{{Workload: "paper-sweep", Fingerprint: fp, Metrics: map[string]float64{"makespan_s": 10}}}
	other := fp
	other.GOMAXPROCS++
	head := []report{{Workload: "paper-sweep", Fingerprint: other, Metrics: map[string]float64{"makespan_s": 20}}}
	var bf benchmarkFile
	bf.EndToEnd = append(bf.EndToEnd, struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"makespan_s", "lower", 0.1})
	if v, lines := compareReports(base, head, bf); v != "incomparable" || !strings.Contains(lines[0], "incomparable: gomaxprocs") {
		t.Fatalf("got %s %v, want incomparable on gomaxprocs", v, lines)
	}
	head[0].Fingerprint = fp
	head[0].Fingerprint.Seed, head[0].Fingerprint.Commit = 2, "other"
	if v, _ := compareReports(base, head, bf); v != "regressed" {
		t.Fatalf("a doubled makespan on the same environment gave %s", v)
	}
	head[0].Metrics["makespan_s"] = 10
	head[0].Attempted, head[0].Failed = 8, 1
	if v, lines := compareReports(base, head, bf); v != "failed" || !strings.Contains(lines[0], "1 of 8") {
		t.Fatalf("a head run with a wrong output gave %s %v, want failed", v, lines)
	}
	head[0].Fingerprint.GOMAXPROCS++
	if v, _ := compareReports(base, head, bf); v != "failed" {
		t.Fatalf("a wrong output in another environment gave %s, want failed", v)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if _, err := loadReferences(); err != nil {
		t.Fatal(err)
	}
}

// TestReferencesCoverEveryInstance checks every batch point of every
// instance has committed values.
func TestReferencesCoverEveryInstance(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []batchWorkload{paperSweep, failureLadder} {
		for i := 0; i < b.instances; i++ {
			seed := int64(i + 1)
			pts, err := gridPoints(b.grids, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				if got := refs[b.name][fmt.Sprint(seed)][p.Key()]; len(got) != 1 {
					t.Errorf("%s grid seed %d: %d reference values for %s", b.name, seed, len(got), p.Key())
				}
			}
		}
	}
}

// TestServePlay plays a short serve-mixed schedule untraced and traced,
// and checks that every response is checked, that tier reads and writes
// happen, and that a wrong expected body is caught.
func TestServePlay(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the serve-mixed universe")
	}
	plan := makePlan(5, 2)
	cfg := runConfig{Seed: 5, Seconds: 2, Work: t.TempDir()}
	res := newResult()
	w, err := play(cfg, "plain", plan, res, false, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted != len(plan.Hits)+len(plan.Misses) {
		t.Fatalf("%d of %d responses failed (want 0 of %d): %v", res.Failed, res.Attempted, len(plan.Hits)+len(plan.Misses), res.Errors)
	}
	tw, err := play(cfg, "traced", plan, res, true, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]float64{}
	if err := serveLayers(m, w, tw, len(plan.Hits)+len(plan.Misses)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"store.hits", "store.writes", "store.promotions", "remotestore.attempts", "remotestore.read_s", "mcf.solve_s", "service.bytecache_hit_frac"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
	if m["bench.span_coverage_frac"] < 0.9 {
		t.Errorf("root spans cover %.2f of handler time, want >= 0.9", m["bench.span_coverage_frac"])
	}

	// A hit whose bytes differ from the offline solve is counted failed;
	// a primed grid whose bytes differ stops the set-up.
	tamper := func(rank int) func([]universeEntry) {
		return func(u []universeEntry) {
			u[rank].body = append([]byte(nil), u[rank].body...)
			u[rank].body[len(u[rank].body)/2] ^= 1
		}
	}
	rank := -1
	for _, a := range plan.Hits {
		if a.Idx >= bytecacheRanks {
			rank = a.Idx
			break
		}
	}
	bad := newResult()
	if _, err := play(cfg, "tampered-hit", plan, bad, false, false, tamper(rank)); err != nil {
		t.Fatal(err)
	}
	if bad.Failed == 0 {
		t.Fatal("a hit with wrong bytes was not counted failed")
	}
	if _, err := play(cfg, "tampered-primed", plan, newResult(), false, false, tamper(0)); err == nil {
		t.Fatal("priming accepted a response that differs from the offline bytes")
	}
}
