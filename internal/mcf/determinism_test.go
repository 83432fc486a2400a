// Determinism of the solver under concurrency: solves running at once
// share only the read-only graph and the pooled traversal workspaces
// (graph.DijkstraScratch), which every traversal leaves empty — so a
// solve's output must be byte-identical whether it runs alone or beside
// other solves. This is the contract that lets the engine run grid points
// in parallel and the golden figure tests stay byte-for-byte across
// machines with different core counts.
package mcf_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/rrg"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// instance is one (graph, demands, ε) determinism fixture.
type instance struct {
	g     *graph.Graph
	flows []traffic.Flow
	eps   float64
}

// determinismInstances builds named fixtures spanning the solver's
// regimes: permutation on RRG (the benchmark workload), heavy demand
// (repair-heavy), and the Clos baseline.
func determinismInstances(t *testing.T) map[string]instance {
	t.Helper()
	out := map[string]instance{}

	rng := rand.New(rand.NewSource(7))
	g, err := rrg.Regular(rng, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		g.SetServers(u, 4)
	}
	tm := traffic.Permutation(rng, traffic.HostsOf(g))
	out["rrg-permutation"] = instance{g, tm.Flows, 0.1}

	g2, err := rrg.Regular(rng, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	out["rrg-heavy"] = instance{g2, randomDemands(rng, 30, 10, 40), 0.1}

	ft, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	ftm := traffic.Permutation(rng, traffic.HostsOf(ft))
	out["fat-tree"] = instance{ft, ftm.Flows, 0.08}
	return out
}

// TestSolveDeterministicConcurrent: solving each fixture from
// 2×GOMAXPROCS goroutines at once must reproduce the serial solve down to
// the last bit — flows, paths, counters, and the dual witness alike.
func TestSolveDeterministicConcurrent(t *testing.T) {
	insts := determinismInstances(t)
	names := make([]string, 0, len(insts))
	for name := range insts {
		names = append(names, name)
	}
	sort.Strings(names)
	solve := func(name string) (*mcf.Result, error) {
		inst := insts[name]
		res, err := mcf.Solve(inst.g, inst.flows, mcf.Options{Epsilon: inst.eps, RecordPaths: true})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		// Timing is wall clock — the one Result field that is
		// non-deterministic by contract. Everything else must match.
		res.Timing = mcf.SolveTiming{}
		return res, nil
	}
	ref := map[string]*mcf.Result{}
	for _, name := range names {
		res, err := solve(name)
		if err != nil {
			t.Fatal(err)
		}
		ref[name] = res
	}

	// Each goroutine solves every fixture, starting at a different one, so
	// traversals of differently sized graphs interleave on the pool.
	workers := 2 * runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range names {
				name := names[(w+k)%len(names)]
				res, err := solve(name)
				if err != nil {
					errs[w] = err
					return
				}
				if !reflect.DeepEqual(res, ref[name]) {
					errs[w] = fmt.Errorf("%s: concurrent solve diverges from the serial one:\n%s",
						name, diffResults(ref[name], res))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", w, err)
		}
	}
}

// diffResults names the first field that differs, for a readable failure.
func diffResults(a, b *mcf.Result) string {
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < av.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			return fmt.Sprintf("field %s: %v vs %v",
				av.Type().Field(i).Name, av.Field(i).Interface(), bv.Field(i).Interface())
		}
	}
	return "(no field diff found)"
}

// TestSolverDeterministicBucketAblation: the bucket kill switch changes
// only the traversal implementation; with unique shortest paths the two
// must agree bit-for-bit on the benchmark workload's early phases... which
// cannot be asserted globally (uniform initial lengths tie-break
// differently), so instead assert the weaker ε-class property plus exact
// per-option determinism across repeated runs.
func TestSolverDeterministicBucketAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, err := rrg.Regular(rng, 24, 6)
	if err != nil {
		t.Fatal(err)
	}
	flows := randomDemands(rng, 24, 30, 3)
	for _, disable := range []bool{false, true} {
		var ref *mcf.Result
		for rep := 0; rep < 2; rep++ {
			res, err := mcf.Solve(g, flows, mcf.Options{Epsilon: 0.1, RecordPaths: true, DisableBucket: disable})
			if err != nil {
				t.Fatal(err)
			}
			res.Timing = mcf.SolveTiming{} // wall clock: non-deterministic by contract
			if ref == nil {
				ref = res
			} else if !reflect.DeepEqual(res, ref) {
				t.Fatalf("disableBucket=%v: repeated solve not deterministic:\n%s", disable, diffResults(ref, res))
			}
		}
	}
	on, err := mcf.Solve(g, flows, mcf.Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	off, err := mcf.Solve(g, flows, mcf.Options{Epsilon: 0.1, DisableBucket: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(on.Throughput-off.Throughput) / off.Throughput; d > 2*0.1 {
		t.Fatalf("bucket on λ=%v vs off λ=%v diverge by %.1f%%", on.Throughput, off.Throughput, 100*d)
	}
	if on.BucketBuilds == 0 {
		t.Fatal("bucket traversal never engaged on the ablation instance")
	}
	if off.BucketBuilds != 0 {
		t.Fatal("DisableBucket did not disable the bucket traversal")
	}
}
