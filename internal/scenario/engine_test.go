package scenario

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/store"
)

// testPoints is a small mixed grid spanning the registries: RRG × mcf,
// hetero (with one infeasible sweep point) × mcf, twocluster × cut.
func testPoints() []Point {
	mustTopo := func(spec string) Topology {
		t, err := ParseTopology(spec)
		if err != nil {
			panic(err)
		}
		return t
	}
	return []Point{
		{Topo: mustTopo("rrg:n=20,deg=6,sps=2"), Traffic: Permutation{}, Eval: MCF{},
			Seed: 5, Runs: 2, Epsilon: 0.12},
		{Topo: mustTopo("hetero:nl=6,ns=8,pl=10,ps=6,servers=30,ratio=1"), Traffic: Permutation{}, Eval: MCF{},
			Seed: 6, Runs: 2, Epsilon: 0.12},
		// ratio=3 would put 90 of 30 servers at large switches: infeasible.
		{Topo: mustTopo("hetero:nl=6,ns=8,pl=10,ps=6,servers=30,ratio=3"), Traffic: Permutation{}, Eval: MCF{},
			Seed: 7, Runs: 2, Epsilon: 0.12},
		{Topo: mustTopo("twocluster:n=8,deg=4,cross=6"), Traffic: Bipartite{N1: 8}, Eval: Cut{N1: 8},
			Seed: 8, Runs: 2},
	}
}

// storeBacked returns a cache tiered onto a fresh disk store in a temp
// dir — the configuration topobench -cache-dir wires up.
func storeBacked(t *testing.T, dir string) *Cache {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.SetBackend(st)
	return c
}

// TestScenarioDeterministicAcrossWorkers is the engine's mirror of the
// solver determinism contract: the same grid measured at 1, 2, GOMAXPROCS,
// and 5 workers — and with no cache, the in-memory cache, or the
// store-backed tiered cache — must produce reflect.DeepEqual results.
// Every run's RNG derives from (seed, run) and reductions are serial in
// index order, so scheduling cannot leak in; the cache tiers only ever
// return what a cold solve would.
func TestScenarioDeterministicAcrossWorkers(t *testing.T) {
	pts := testPoints()
	storeDir := t.TempDir()
	var ref [][]float64
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 5} {
		for _, mode := range []string{"nocache", "memory", "store"} {
			var cache *Cache
			switch mode {
			case "memory":
				cache = NewCache()
			case "store":
				// A fresh handle on a shared dir each time: later iterations
				// answer from entries persisted by earlier ones.
				cache = storeBacked(t, storeDir)
			}
			e := &Engine{Parallel: workers, Cache: cache, SkipInfeasible: true}
			vals, err := e.MeasureRuns(pts)
			if err != nil {
				t.Fatalf("workers=%d cache=%s: %v", workers, mode, err)
			}
			if vals[2] != nil {
				t.Fatalf("infeasible point not skipped (workers=%d)", workers)
			}
			if ref == nil {
				ref = vals
				continue
			}
			if !reflect.DeepEqual(vals, ref) {
				t.Fatalf("workers=%d cache=%s: results differ from serial reference\n got %v\nwant %v",
					workers, mode, vals, ref)
			}
		}
	}
}

// TestStoreWarmRestartEqualsColdSolve is the durability clause of the
// cache-key invariant: a second "process" (fresh Cache, fresh store
// handle on the same dir) answers entirely from the store, with values
// reflect.DeepEqual to a cold solve, and without re-solving.
func TestStoreWarmRestartEqualsColdSolve(t *testing.T) {
	pts := testPoints()[:2]
	dir := t.TempDir()

	cold := &Engine{Parallel: 1, SkipInfeasible: true}
	coldVals, err := cold.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}

	first := storeBacked(t, dir)
	firstVals, err := (&Engine{Parallel: 1, Cache: first, SkipInfeasible: true}).MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.Stats(); st.Misses != 2 || st.StoreErrs != 0 {
		t.Fatalf("first process stats: %+v", st)
	}

	second := storeBacked(t, dir) // restart: empty memory, warm disk
	secondVals, err := (&Engine{Parallel: 1, Cache: second, SkipInfeasible: true}).MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	st := second.Stats()
	if st.StoreHits != 2 || st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("second process did not answer from the store: %+v", st)
	}
	if !reflect.DeepEqual(firstVals, coldVals) || !reflect.DeepEqual(secondVals, coldVals) {
		t.Fatalf("warm restart values differ from cold solve:\n cold %v\n first %v\n second %v",
			coldVals, firstVals, secondVals)
	}

	// Promoted entries serve from memory on re-lookup, and mutating a
	// returned slice must not poison either tier.
	secondVals[0][0] = -1
	thirdVals, err := (&Engine{Parallel: 1, Cache: second, SkipInfeasible: true}).MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.Hits != 2 {
		t.Fatalf("promoted entries not served from memory: %+v", st)
	}
	if !reflect.DeepEqual(thirdVals, coldVals) {
		t.Fatal("cache tier poisoned through a returned slice")
	}
}

// TestCacheHitEqualsColdSolve is the cache-key invariant made executable:
// a cached result is reflect.DeepEqual to a cold solve of the same point,
// the second measurement actually hits, and a differing spec misses.
func TestCacheHitEqualsColdSolve(t *testing.T) {
	pts := testPoints()[:2]
	cold := &Engine{Parallel: 1, SkipInfeasible: true}
	coldVals, err := cold.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCache()
	warm := &Engine{Parallel: 1, Cache: cache, SkipInfeasible: true}
	first, err := warm.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, entries := cacheStats(cache); hits != 0 || misses != 2 || entries != 2 {
		t.Fatalf("after first pass: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
	second, err := warm.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := cacheStats(cache); hits != 2 {
		t.Fatalf("second pass did not hit the cache")
	}
	if !reflect.DeepEqual(first, coldVals) || !reflect.DeepEqual(second, coldVals) {
		t.Fatalf("cached values differ from cold solve:\n cold %v\n first %v\n second %v", coldVals, first, second)
	}

	// A changed spec (different ε) must miss.
	changed := pts[0]
	changed.Epsilon = 0.2
	if _, err := warm.MeasureRuns([]Point{changed}); err != nil {
		t.Fatal(err)
	}
	if _, misses, entries := cacheStats(cache); misses != 3 || entries != 3 {
		t.Fatalf("changed spec did not miss: misses=%d entries=%d", misses, entries)
	}

	// Returned slices are private copies: mutating one must not poison the
	// cache.
	second[0][0] = -1
	third, err := warm.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, coldVals) {
		t.Fatalf("cache entry mutated through a returned slice")
	}
}

func cacheStats(c *Cache) (int64, int64, int) {
	st := c.Stats()
	return st.Hits, st.Misses, st.Entries
}

// TestDetailedMatchesScalar pins the two evaluation paths of the mcf
// evaluator against each other: the detailed value equals the scalar
// value, and detailed runs carry usable graphs and results.
func TestDetailedMatchesScalar(t *testing.T) {
	pts := testPoints()[:1]
	e := &Engine{Parallel: 1}
	vals, err := e.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	dets, err := e.MeasureDetailed(pts)
	if err != nil {
		t.Fatal(err)
	}
	for run, d := range dets[0] {
		if d.Value != vals[0][run] {
			t.Fatalf("run %d: detailed value %v != scalar %v", run, d.Value, vals[0][run])
		}
		if d.G == nil || d.Res == nil {
			t.Fatalf("run %d: detailed result incomplete", run)
		}
		if d.Res.Throughput != d.Value {
			t.Fatalf("run %d: result throughput %v != value %v", run, d.Res.Throughput, d.Value)
		}
	}
}

// TestAdHocTopologyBypassesCache: topologies with an empty spec (closures
// not in the registry) must evaluate but never populate the cache.
func TestAdHocTopologyBypassesCache(t *testing.T) {
	cache := NewCache()
	e := &Engine{Parallel: 1, Cache: cache}
	pt := Point{Topo: adHoc{}, Traffic: Permutation{}, Eval: MCF{}, Seed: 3, Runs: 1, Epsilon: 0.15}
	if _, err := e.MeasureRuns([]Point{pt}); err != nil {
		t.Fatal(err)
	}
	if _, _, entries := cacheStats(cache); entries != 0 {
		t.Fatalf("ad-hoc topology cached (%d entries)", entries)
	}
}

type adHoc struct{}

func (adHoc) Spec() string { return "" }

func (adHoc) Build(rng *rand.Rand) (*graph.Graph, error) {
	cfg := hetero.Config{NumLarge: 4, NumSmall: 4, PortsLarge: 6, PortsSmall: 6, Servers: 8,
		ServersPerLarge: -1, ServersPerSmall: -1, ServerRatio: 1}
	return hetero.Build(rng, cfg)
}

// TestMCFWithoutCommoditiesRejected: an mcf point whose traffic matrix is
// empty — hetero at its default servers=0, or traffic=none — fails with
// ErrNoCommodities instead of reporting +Inf, and leaves nothing in the
// cache or its backend, so the error repeats rather than being served.
func TestMCFWithoutCommoditiesRejected(t *testing.T) {
	for _, line := range []string{
		"topo=hetero:ratio=1 traffic=permutation eval=mcf runs=2",
		"topo=rrg:n=12,deg=4,sps=2 traffic=none eval=mcf runs=1",
		"topo=hetero:ratio=1 traffic=permutation eval=failures:frac=0.1,eval=mcf runs=1",
	} {
		grid, err := ParseGrid(line)
		if err != nil {
			t.Fatal(err)
		}
		gps, err := grid.Points()
		if err != nil {
			t.Fatal(err)
		}
		counter := &saveCounter{saves: map[string]int{}}
		cache := NewCache()
		cache.SetBackend(counter)
		e := &Engine{Parallel: 1, Cache: cache, SkipInfeasible: true}
		for rep := 0; rep < 2; rep++ {
			_, err := e.MeasureRuns([]Point{gps[0].Point})
			if !errors.Is(err, ErrNoCommodities) {
				t.Fatalf("%s (rep %d): err = %v, want ErrNoCommodities", line, rep, err)
			}
		}
		if _, ok := cache.Get(gps[0].Key()); ok {
			t.Fatalf("%s: the failed point was cached", line)
		}
		if len(counter.saves) != 0 {
			t.Fatalf("%s: saves reached the backend: %v", line, counter.saves)
		}
	}
}
