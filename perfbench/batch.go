package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/trace"
)

// batchWorkload is a closed-loop batch: one grid evaluated on a
// scenario.Engine with Parallel = GOMAXPROCS, pass after pass.
type batchWorkload struct {
	name  string
	grids []string // grid lines; the run appends seed=
	// instances is how many graph instances (grid seeds 1..instances)
	// a run cycles through, each with committed reference values.
	instances int
	// warm evaluates with WarmStart on, over a cache backed by a fresh
	// temp-dir disk store each pass.
	warm bool
}

// paperSweep is the paper's own §4–§6 workload: RRG throughput against
// size, heterogeneous pools against the server ratio, and VL2 against
// its rewired twin.
var paperSweep = batchWorkload{name: "paper-sweep", instances: 6, grids: []string{
	"topo=rrg:n=100,deg=10,sps=5 traffic=permutation eval=mcf sweep=n:100,200,400 runs=1 eps=0.1",
	"topo=hetero:servers=480 traffic=permutation eval=mcf sweep=ratio:0.5,1,1.5 runs=1 eps=0.1",
	"topo=vl2:da=16,di=16 traffic=permutation eval=mcf runs=1 eps=0.1",
	"topo=rewired-vl2:da=16,di=16 traffic=permutation eval=mcf runs=1 eps=0.1",
}}

// failureLadder fails a growing share of one topology's links. Every
// rung shares the grid seed, so every rung's parent is the intact rung
// and warm-starts from its stored dual witness. (A sweep= axis would
// give each rung its own seed, hence its own graph and parent.)
var failureLadder = batchWorkload{name: "failure-ladder", instances: 8, warm: true, grids: ladderGrids(
	"topo=rrg:n=200,deg=10,sps=5 traffic=permutation eval=failures:frac=%s,eval=mcf runs=1 eps=0.1",
	"0", "0.05", "0.1", "0.15", "0.2", "0.25")}

func ladderGrids(format string, fracs ...string) []string {
	out := make([]string, len(fracs))
	for i, f := range fracs {
		out[i] = fmt.Sprintf(format, f)
	}
	return out
}

// warmupGrid is solved during set-up so lazy initialisation (code pages,
// heap growth) is paid before timing starts.
const warmupGrid = "topo=rrg:n=100,deg=10,sps=5 traffic=permutation eval=mcf runs=1 eps=0.1"

// hitAsksPerPass is how many already-answered points a batch run re-asks
// after each pass. Spreading the re-asks over the run, rather than
// asking them all at its end, keeps a short burst of machine noise from
// moving the whole run's hit latency.
const hitAsksPerPass = 2000

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 3

func runPaperSweep(cfg runConfig) (*result, error)    { return paperSweep.run(cfg) }
func runFailureLadder(cfg runConfig) (*result, error) { return failureLadder.run(cfg) }

// gridPoints parses grid lines at one grid seed into engine points.
func gridPoints(lines []string, seed int64) ([]scenario.Point, error) {
	var pts []scenario.Point
	for _, line := range lines {
		g, err := scenario.ParseGrid(fmt.Sprintf("%s seed=%d", line, seed))
		if err != nil {
			return nil, err
		}
		gps, err := g.Points()
		if err != nil {
			return nil, err
		}
		for _, gp := range gps {
			pts = append(pts, gp.Point)
		}
	}
	return pts, nil
}

// batchPass is one evaluation of the whole grid.
type batchPass struct {
	traced bool
	wall   time.Duration
	cpu    time.Duration
	// done[k] is when the k-th point completed, from the pass start.
	done   []time.Duration
	vals   [][]float64
	rt     runtimeDelta
	warm   scenario.WarmStats
	store  store.Stats
	traces []trace.TraceJSON
}

// passEnv is the engine a pass runs on, with its cache and store.
type passEnv struct {
	eng   *scenario.Engine
	store *store.Store
	dir   string
}

func (b batchWorkload) newEnv(dir string) (*passEnv, error) {
	env := &passEnv{eng: &scenario.Engine{Parallel: gomaxprocs()}}
	if !b.warm {
		return env, nil
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	cache := scenario.NewCache()
	cache.SetBackend(st)
	env.eng.Cache = cache
	env.eng.WarmStart = true
	env.store, env.dir = st, dir
	return env, nil
}

// instance is one graph instance of a batch grid: its points at one
// grid seed and their committed reference values.
type instance struct {
	seed int64
	pts  []scenario.Point
	ref  map[string][]float64
}

// setup prepares one run: parses the grid at every instance,
// checks each point has a reference, opens an empty store when the
// workload uses one, and solves the warm-up point.
func (b batchWorkload) setup(dir string) ([]instance, error) {
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	insts := make([]instance, b.instances)
	for i := range insts {
		seed := int64(i + 1)
		pts, err := gridPoints(b.grids, seed)
		if err != nil {
			return nil, err
		}
		ref := refs[b.name][fmt.Sprint(seed)]
		for _, p := range pts {
			if ref[p.Key()] == nil {
				return nil, fmt.Errorf("%s: no reference for %s (regenerate with `perfbench reference`)", b.name, p.Key())
			}
		}
		insts[i] = instance{seed: seed, pts: pts, ref: ref}
	}
	env, err := b.newEnv(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	warm, err := gridPoints([]string{warmupGrid}, 1)
	if err != nil {
		return nil, err
	}
	if _, err := env.eng.MeasureRunsCtx(context.Background(), warm); err != nil {
		return nil, err
	}
	return insts, nil
}

func (b batchWorkload) run(cfg runConfig) (*result, error) {
	res := newResult()
	var setups []float64
	var insts []instance
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if insts, err = b.setup(filepath.Join(cfg.Work, fmt.Sprintf("setup-%d", i))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.Metrics["setup_s"] = median(setups)

	// A run evaluates every instance once per cycle, starting at the one
	// the seed picks, and runs whole cycles while the next one still fits
	// the window: every run measures the same work, so its median does not
	// depend on which instances a seed happened to draw. A traced run
	// follows each untraced pass with a traced pass on the same instance,
	// so the two sides see the same work and machine state and their
	// difference is the tracing overhead.
	var passes []*batchPass
	var hits []float64
	sides := []bool{false}
	if cfg.Trace {
		sides = append(sides, true)
	}
	first := int((cfg.Seed%int64(b.instances) + int64(b.instances)) % int64(b.instances))
	start := time.Now()
	for c := 1; ; c++ {
		for j := 0; j < b.instances; j++ {
			in := insts[(first+j)%b.instances]
			for _, traced := range sides {
				env, err := b.newEnv(filepath.Join(cfg.Work, fmt.Sprintf("pass-%d", len(passes))))
				if err != nil {
					return nil, err
				}
				p, err := b.pass(env, in.pts, traced)
				if err != nil {
					return nil, err
				}
				b.verify(res, in.pts, p.vals, in.ref)
				fmt.Fprintf(os.Stderr, "%s pass %d: grid seed %d, traced %v, wall %.3fs, cpu %.3fs\n",
					b.name, len(passes), in.seed, traced, p.wall.Seconds(), p.cpu.Seconds())
				passes = append(passes, p)
				if !traced {
					hits = append(hits, b.reask(res, env, in.pts, p.vals)...)
				}
				if env.dir != "" {
					os.RemoveAll(env.dir)
				}
			}
		}
		if elapsed := time.Since(start).Seconds(); elapsed*float64(c+1)/float64(c) > cfg.Seconds {
			break
		}
	}
	var walls, cpus, p50s []float64
	for _, p := range passes {
		if p.traced {
			continue
		}
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		done := make([]float64, len(p.done))
		for i, d := range p.done {
			done[i] = float64(d) / float64(time.Millisecond)
		}
		// A pass has a fixed number of points, so its completion-time
		// median is an order statistic of that pass.
		v50, _ := percentile(done, 50)
		p50s = append(p50s, v50)
	}
	res.Metrics["makespan_s"] = median(walls)
	res.Metrics["cpu_s"] = median(cpus)
	res.Metrics["miss_p50_ms"] = median(p50s)
	res.Samples["passes"] = len(walls)
	var err error
	if res.Metrics["hit_p50_ms"], err = requirePercentile("hit", hits, 50); err != nil {
		return nil, err
	}
	res.Samples["hit"] = len(hits)
	if cfg.Trace {
		if err := b.layers(res, passes); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pass evaluates the grid once and records what it cost. An untraced
// pass is one MeasureRunsCtx call over the whole grid; a traced pass
// opens one trace per point (so no trace nears the tracer's span cap)
// and maps the points over the same runner pool the engine would use.
func (b batchWorkload) pass(env *passEnv, pts []scenario.Point, traced bool) (*batchPass, error) {
	p := &batchPass{traced: traced}
	var mu sync.Mutex
	ctx := context.Background()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	record := func() {
		mu.Lock()
		p.done = append(p.done, time.Since(start))
		mu.Unlock()
	}
	var err error
	if !traced {
		p.vals, err = env.eng.MeasureRunsProgress(ctx, pts, func(done, total int) {
			if done > 0 {
				record()
			}
		})
	} else {
		tracer := trace.New(trace.Options{Sample: 1, Buffer: len(pts)})
		p.vals, err = runner.Map(runner.New(gomaxprocs()), len(pts), func(i int) ([]float64, error) {
			tr := tracer.Start(trace.TraceID{}, trace.SpanID{})
			root := tr.Root(benchRoot)
			t0 := time.Now()
			v, err := env.eng.MeasureRunsCtx(trace.ContextWithSpan(ctx, root), pts[i:i+1])
			root.End()
			tracer.Finish(tr, time.Since(t0), false)
			record()
			if err != nil {
				return nil, err
			}
			return v[0], nil
		})
		p.traces = tracer.Snapshot(0)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.name, err)
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.rt = readRuntime().sub(rt0)
	p.warm = env.eng.WarmStats()
	if env.store != nil {
		p.store = env.store.Stats()
	}
	return p, nil
}

// verify checks every run value of a pass: finite, within the Theorem 1
// bound for RRG points, and in the certified ε class of the reference.
func (b batchWorkload) verify(res *result, pts []scenario.Point, vals [][]float64, ref map[string][]float64) {
	for i, p := range pts {
		res.Attempted++
		if len(vals[i]) == 0 {
			res.fail("%s: no values", p.Key())
			continue
		}
		for run, v := range vals[i] {
			if msg := checkValue(p, run, v, ref[p.Key()]); msg != "" {
				res.fail("%s", msg)
				break
			}
		}
	}
}

// reask times already-answered points of a pass asked again through
// the engine, and returns their latencies in ms: from a cache filled with
// the pass's values (paper-sweep, which runs uncached), or from the
// pass's disk store through a fresh cache each time, as a restarted
// process would (failure-ladder). Every answer must equal the value the
// pass computed.
func (b batchWorkload) reask(res *result, env *passEnv, pts []scenario.Point, vals [][]float64) []float64 {
	var shared *scenario.Cache
	var hits0 int64
	if b.warm {
		hits0 = env.store.Stats().Hits
	} else {
		shared = scenario.NewCache()
		for i, p := range pts {
			shared.Put(p.Key(), vals[i])
		}
	}
	// Start every pass's re-asks from the same collector state.
	runtime.GC()
	ctx := context.Background()
	lat := make([]float64, 0, hitAsksPerPass)
	for k := 0; k < hitAsksPerPass; k++ {
		i := k % len(pts)
		t0 := time.Now()
		eng := &scenario.Engine{Parallel: 1, Cache: shared}
		if b.warm {
			eng.Cache = scenario.NewCache()
			eng.Cache.SetBackend(env.store)
			eng.WarmStart = true
		}
		got, err := eng.MeasureRunsCtx(ctx, pts[i:i+1])
		lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
		res.Attempted++
		if err != nil {
			res.fail("re-ask %s: %v", pts[i].Key(), err)
			continue
		}
		if !equalVals(got[0], vals[i]) {
			res.fail("re-ask %s: got %v, computed %v", pts[i].Key(), got[0], vals[i])
		}
	}
	if b.warm {
		if n := env.store.Stats().Hits - hits0; n != hitAsksPerPass {
			res.fail("re-asks read the disk store %d times, want %d", n, hitAsksPerPass)
		}
	}
	return lat
}

func equalVals(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
