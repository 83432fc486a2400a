package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/remotestore"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/trace"
)

// serve-mixed shape. The hit lane asks zipf-popular grids of a universe
// that sits partly in the response-byte cache, partly only on the
// replica's disk and partly only on its peer; the miss lane asks grids no
// process has seen, sized like real requests. Each lane is an open loop
// on one keep-alive connection, so a slow miss never queues a hit behind
// it in the client, and the load uses GOMAXPROCS (2) connections.
//
// The skew and the miss share are the repository's own traffic model:
// `topobench loadgen` defaults to -zipf-s 1.2, and CI's loadgen smoke
// sends a tenth of its requests to never-seen grids. The miss lane sets
// the rate: at 4 cold solves a second its connection is busy about a
// fifth of the time, and the hit rate follows from the share. The
// universe size and the byte-cache split are assumptions, not measured
// traffic (README.md gives their reasons).
const (
	zipfS    = 1.2
	missFrac = 0.1
	missRate = 4.0                                  // miss-lane arrivals per second
	hitRate  = missRate * (1 - missFrac) / missFrac // hit-lane arrivals per second
	// universeSize keeps the offline solve of the universe in set-up
	// near 2 s, and leaves about an eighth of a 30 s window's hits as
	// first reads of a disk or peer grid.
	universeSize = 256
	// bytecacheRanks are the most popular ranks, primed into the
	// response-byte cache during set-up; lower ranks alternate between
	// the replica's disk and its peer's.
	bytecacheRanks = 32
	// calibrateSeconds of the schedule run against a no-op handler first;
	// their latency is the harness floor.
	calibrateSeconds = 5.0
	// lagLimit is the generator lag p99 beyond which a run is invalid.
	// Untraced runs measure 1–7 ms on a busy 2-vCPU VM.
	lagLimit = 25 * time.Millisecond
	// missSamples miss responses are re-solved offline after the window
	// and compared byte for byte.
	missSamples = 6

	universeTopo = "rrg:n=24,deg=6,sps=3"
	missTopo     = "rrg:n=40,deg=10,sps=5"
)

func serveGrid(topo string, seed int64) string {
	return fmt.Sprintf("topo=%s traffic=permutation eval=mcf runs=1 seed=%d eps=0.1", topo, seed)
}

type tierKind int

const (
	tierBytecache tierKind = iota
	tierDisk
	tierPeer
)

// arrival is one scheduled request: when it is due after the schedule
// starts, and which grid it asks (a universe rank on the hit lane, a miss
// number on the miss lane).
type arrival struct {
	At  time.Duration
	Idx int
}

// servePlan is everything the workload seed decides.
type servePlan struct {
	Universe  []string   // grid line by popularity rank
	Tier      []tierKind // where each rank sits before the window
	Hits      []arrival
	Misses    []arrival
	MissLines []string
	// Sample are the miss numbers re-solved offline after the window.
	Sample []int
}

// makePlan draws the universe, its placement, both lanes' arrival
// schedules and the never-seen miss grids from the seed. Arrivals are a
// Poisson process conditioned on its count, so every run of a given
// length carries the same number of requests.
func makePlan(seed int64, seconds float64) servePlan {
	rng := rand.New(rand.NewSource(seed))
	var p servePlan
	seen := map[int64]bool{}
	for len(p.Universe) < universeSize {
		s := 1 + rng.Int63n(999_999)
		if seen[s] {
			continue
		}
		seen[s] = true
		rank := len(p.Universe)
		p.Universe = append(p.Universe, serveGrid(universeTopo, s))
		switch {
		case rank < bytecacheRanks:
			p.Tier = append(p.Tier, tierBytecache)
		case rank%2 == 0:
			p.Tier = append(p.Tier, tierDisk)
		default:
			p.Tier = append(p.Tier, tierPeer)
		}
	}
	times := func(rate float64) []time.Duration {
		n := int(rate*seconds + 0.5)
		ts := make([]time.Duration, n)
		for i := range ts {
			ts[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		return ts
	}
	zipf := rand.NewZipf(rng, zipfS, 1, universeSize-1)
	for _, at := range times(hitRate) {
		p.Hits = append(p.Hits, arrival{At: at, Idx: int(zipf.Uint64())})
	}
	for i, at := range times(missRate) {
		p.Misses = append(p.Misses, arrival{At: at, Idx: i})
		for {
			// Miss seeds lie above every universe seed: never seen.
			s := 1_000_000 + rng.Int63n(1_000_000_000)
			if !seen[s] {
				seen[s] = true
				p.MissLines = append(p.MissLines, serveGrid(missTopo, s))
				break
			}
		}
	}
	for _, i := range rng.Perm(len(p.Misses)) {
		if len(p.Sample) == missSamples {
			break
		}
		p.Sample = append(p.Sample, i)
	}
	sort.Ints(p.Sample)
	return p
}

// truncate keeps the arrivals due before d.
func truncate(as []arrival, d time.Duration) []arrival {
	i := sort.Search(len(as), func(i int) bool { return as[i].At >= d })
	return as[:i]
}

// universeEntry is one universe grid solved offline.
type universeEntry struct {
	key  string
	vals []float64
	body []byte // canonical response bytes
}

// solveUniverse evaluates every universe grid on an uncached engine, the
// way `topobench -scenario -json` would, and checks its values.
func solveUniverse(lines []string) ([]universeEntry, error) {
	eng := &scenario.Engine{Parallel: gomaxprocs()}
	return runner.Map(runner.New(gomaxprocs()), len(lines), func(i int) (universeEntry, error) {
		return offlineEval(eng, lines[i])
	})
}

func offlineEval(eng *scenario.Engine, line string) (universeEntry, error) {
	resp, err := service.EvalGrid(eng, line, service.Defaults{})
	if err != nil {
		return universeEntry{}, err
	}
	body, err := resp.MarshalCanonical()
	if err != nil {
		return universeEntry{}, err
	}
	pt, err := linePoint(line)
	if err != nil {
		return universeEntry{}, err
	}
	vals := resp.Points[0].Values
	for run, v := range vals {
		if msg := checkValue(pt, run, v, nil); msg != "" {
			return universeEntry{}, fmt.Errorf("%s", msg)
		}
	}
	return universeEntry{key: pt.Key(), vals: vals, body: body}, nil
}

// linePoint parses a single-point grid line.
func linePoint(line string) (scenario.Point, error) {
	g, err := scenario.ParseGrid(line)
	if err != nil {
		return scenario.Point{}, err
	}
	gps, err := g.Points()
	if err != nil {
		return scenario.Point{}, err
	}
	if len(gps) != 1 {
		return scenario.Point{}, fmt.Errorf("%q: %d points, want 1", line, len(gps))
	}
	return gps[0].Point, nil
}

// server is one in-process HTTP server on a loopback port.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to exit.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// serveEnv is a replica under test with its peer, as `topobench serve
// -cache-dir A -peer B` wires it.
type serveEnv struct {
	a, b   *server
	storeA *store.Store
	tiered *store.Tiered
	remote *remotestore.Client
	dir    string
}

func (e *serveEnv) close() {
	e.a.stop()
	e.b.stop()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections() // the peer client's connections
	}
	os.RemoveAll(e.dir)
}

func openStore(dir string) (*store.Store, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	st.EnableNegativeCache(0, 0)
	return st, nil
}

// setupServe places the universe in the replica's and the peer's disk
// stores, starts both servers, and primes the response-byte cache with
// the most popular grids over HTTP.
func setupServe(dir string, plan servePlan, uni []universeEntry, tracer *trace.Tracer, wrap func(http.Handler) http.Handler) (*serveEnv, error) {
	stA, err := openStore(filepath.Join(dir, "a"))
	if err != nil {
		return nil, err
	}
	stB, err := openStore(filepath.Join(dir, "b"))
	if err != nil {
		return nil, err
	}
	for rank, u := range uni {
		st := stA
		if plan.Tier[rank] == tierPeer {
			st = stB
		}
		if err := st.Save(u.key, u.vals); err != nil {
			return nil, err
		}
	}
	cacheB := scenario.NewCache()
	cacheB.SetBackend(stB)
	svcB := service.New(service.Config{
		Engine: &scenario.Engine{Parallel: gomaxprocs(), Cache: cacheB, SkipInfeasible: true},
		Cache:  cacheB, Store: stB,
	})
	b, err := startServer(svcB.Handler())
	if err != nil {
		return nil, err
	}
	remote := remotestore.New(remotestore.Options{BaseURL: b.url})
	tiered := store.NewTiered(stA, remote, store.TieredOptions{})
	cacheA := scenario.NewCache()
	cacheA.SetBackend(tiered)
	svcA := service.New(service.Config{
		Engine: &scenario.Engine{Parallel: gomaxprocs(), Cache: cacheA, SkipInfeasible: true},
		Cache:  cacheA, Store: stA, Remote: remote, Tiered: tiered, Tracer: tracer,
	})
	h := svcA.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	a, err := startServer(h)
	if err != nil {
		b.stop()
		return nil, err
	}
	env := &serveEnv{a: a, b: b, storeA: stA, tiered: tiered, remote: remote, dir: dir}
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	for rank := 0; rank < bytecacheRanks; rank++ {
		status, body, err := post(client, a.url, plan.Universe[rank])
		if err == nil && (status != http.StatusOK || !bytes.Equal(body, uni[rank].body)) {
			err = fmt.Errorf("priming %q: status %d, body differs from the offline bytes", plan.Universe[rank], status)
		}
		if err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

func evalBody(line string) []byte {
	b, _ := json.Marshal(service.EvalRequest{Grid: line})
	return b
}

// post sends one eval request and reads the whole response.
func post(c *http.Client, url, line string) (int, []byte, error) {
	resp, err := c.Post(url+"/v1/eval", "application/json", bytes.NewReader(evalBody(line)))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// laneResult is what one lane measured. Latency runs from each request's
// scheduled send to its last byte; lag from when the generator could
// have sent it (due, or the previous response if that came later) to
// when it did.
type laneResult struct {
	lat, lag []float64 // ms
	end      time.Time
}

// newLaneClient returns a client held to one keep-alive connection, with
// that connection already open.
func newLaneClient(url string) (*http.Client, error) {
	c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	resp, err := c.Get(url + "/healthz")
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return c, nil
}

// runLane plays one lane's schedule on its client's connection. check
// sees every response after its latency is taken.
func runLane(client *http.Client, url string, sched []arrival, line func(int) string, class string, start time.Time, check func(a arrival, status int, body []byte, err error)) laneResult {
	bodies := make([][]byte, len(sched))
	for i, a := range sched {
		bodies[i] = evalBody(line(a.Idx))
	}
	res := laneResult{lat: make([]float64, 0, len(sched)), lag: make([]float64, 0, len(sched))}
	prev := start
	var buf bytes.Buffer
	for i, a := range sched {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ready := due
		if prev.After(ready) {
			ready = prev
		}
		sent := time.Now()
		req, _ := http.NewRequest(http.MethodPost, url+"/v1/eval", bytes.NewReader(bodies[i]))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Bench-Class", class)
		status := 0
		resp, err := client.Do(req)
		buf.Reset()
		if err == nil {
			status = resp.StatusCode
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
		}
		end := time.Now()
		res.lat = append(res.lat, float64(end.Sub(due))/float64(time.Millisecond))
		res.lag = append(res.lag, float64(sent.Sub(ready))/float64(time.Millisecond))
		prev = end
		check(a, status, buf.Bytes(), err)
	}
	res.end = prev
	return res
}

// schedule plays both lanes against url from one start instant, each on
// its own pre-opened connection, and returns their results.
func schedule(url string, hits, misses []arrival, hitLine, missLine func(int) string, checkHit, checkMiss func(arrival, int, []byte, error)) (hitRes, missRes laneResult, start time.Time, err error) {
	hc, err := newLaneClient(url)
	if err != nil {
		return hitRes, missRes, start, err
	}
	defer hc.CloseIdleConnections()
	mc, err := newLaneClient(url)
	if err != nil {
		return hitRes, missRes, start, err
	}
	defer mc.CloseIdleConnections()
	start = time.Now().Add(50 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		hitRes = runLane(hc, url, hits, hitLine, "hit", start, checkHit)
	}()
	go func() {
		defer wg.Done()
		missRes = runLane(mc, url, misses, missLine, "miss", start, checkMiss)
	}()
	wg.Wait()
	return hitRes, missRes, start, nil
}

// calibrate plays the start of the schedule against a handler that does
// nothing: the latency it reports is the harness's own floor.
func calibrate(plan servePlan) (float64, error) {
	okBody := bytes.Repeat([]byte("x"), 256)
	noop, err := startServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write(okBody)
	}))
	if err != nil {
		return 0, err
	}
	defer noop.stop()
	d := time.Duration(calibrateSeconds * float64(time.Second))
	line := func(int) string { return "" }
	var bad int
	var mu sync.Mutex
	check := func(_ arrival, status int, _ []byte, err error) {
		if err != nil || status != http.StatusOK {
			mu.Lock()
			bad++
			mu.Unlock()
		}
	}
	hr, _, _, err := schedule(noop.url, truncate(plan.Hits, d), truncate(plan.Misses, d), line, line, check, check)
	if err != nil {
		return 0, err
	}
	if bad > 0 {
		return 0, fmt.Errorf("calibration: %d no-op requests failed", bad)
	}
	v, _ := percentile(hr.lat, 50)
	return v, nil
}

// scrapeMetrics reads the replica's /metrics counters.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[strings.TrimPrefix(name, "topobench_")] = v
		}
	}
	return out, sc.Err()
}

// handlerTimes is a benchmark-owned wrapper around the service handler
// that times each request inside Handler(), by the class the load
// generator tagged it with.
type handlerTimes struct {
	mu        sync.Mutex
	hit, miss []float64 // seconds
}

func (t *handlerTimes) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0).Seconds()
		t.mu.Lock()
		switch r.Header.Get("X-Bench-Class") {
		case "hit":
			t.hit = append(t.hit, d)
		case "miss":
			t.miss = append(t.miss, d)
		}
		t.mu.Unlock()
	})
}

// window is one measured play of the schedule against a fresh replica.
type window struct {
	hit, miss  laneResult
	makespan   time.Duration
	cpu        time.Duration
	rt         runtimeDelta
	metrics0   map[string]float64
	metrics1   map[string]float64
	store0     store.Stats
	store1     store.Stats
	tiered0    store.TieredStats
	tiered1    store.TieredStats
	remote0    remotestore.Stats
	remote1    remotestore.Stats
	times      *handlerTimes
	traces     []trace.TraceJSON
	missBodies map[int][]byte
	setups     []float64
}

// play sets the replica up setupRepeats times (keeping the last), plays
// the schedule against it, and checks every response: hits must be the
// offline bytes of their grid, misses must carry a certified-looking
// value (finite, within the Theorem 1 bound).
//
// Each set-up solves the universe on an offline engine (as an earlier
// process would have), places it in the stores, starts both servers and
// primes the byte cache; setup_s is its median. edit, when non-nil, sees
// the solved universe before it is placed (tests use it to plant wrong
// expected bytes).
func play(cfg runConfig, name string, plan servePlan, res *result, traced, timed bool, edit func([]universeEntry)) (*window, error) {
	w := &window{missBodies: map[int][]byte{}}
	var tracer *trace.Tracer
	if traced {
		tracer = trace.New(trace.Options{Sample: 1, Buffer: len(plan.Hits) + len(plan.Misses) + 16})
	}
	var wrap func(http.Handler) http.Handler
	if timed {
		w.times = &handlerTimes{}
		wrap = w.times.wrap
	}
	var env *serveEnv
	var uni []universeEntry
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		if uni, err = solveUniverse(plan.Universe); err != nil {
			return nil, err
		}
		if edit != nil {
			edit(uni)
		}
		env, err = setupServe(filepath.Join(cfg.Work, fmt.Sprintf("%s-setup-%d", name, i)), plan, uni, tracer, wrap)
		if err != nil {
			return nil, err
		}
		w.setups = append(w.setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "serve-mixed %s: set-ups %.3v s\n", name, w.setups)
	defer env.close()
	missPts := make([]scenario.Point, len(plan.MissLines))
	for i, l := range plan.MissLines {
		pt, err := linePoint(l)
		if err != nil {
			return nil, err
		}
		missPts[i] = pt
	}
	sampled := map[int]bool{}
	for _, i := range plan.Sample {
		sampled[i] = true
	}
	var mu sync.Mutex
	checkHit := func(a arrival, status int, body []byte, err error) {
		ok := err == nil && status == http.StatusOK && bytes.Equal(body, uni[a.Idx].body)
		mu.Lock()
		defer mu.Unlock()
		res.Attempted++
		if !ok {
			res.fail("hit %q: status %d err %v, bytes equal %v", plan.Universe[a.Idx], status, err, bytes.Equal(body, uni[a.Idx].body))
		}
	}
	checkMiss := func(a arrival, status int, body []byte, err error) {
		msg := ""
		switch {
		case err != nil:
			msg = err.Error()
		case status != http.StatusOK:
			msg = fmt.Sprintf("status %d", status)
		default:
			var er service.EvalResponse
			if jerr := json.Unmarshal(body, &er); jerr != nil || len(er.Points) != 1 {
				msg = fmt.Sprintf("malformed response: %v", jerr)
				break
			}
			for run, v := range er.Points[0].Values {
				if m := checkValue(missPts[a.Idx], run, v, nil); m != "" {
					msg = m
					break
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		res.Attempted++
		if msg != "" {
			res.fail("miss %q: %s", plan.MissLines[a.Idx], msg)
		}
		if sampled[a.Idx] {
			w.missBodies[a.Idx] = append([]byte(nil), body...)
		}
	}
	var err error
	if w.metrics0, err = scrapeMetrics(env.a.url); err != nil {
		return nil, err
	}
	w.store0, w.tiered0, w.remote0 = env.storeA.Stats(), env.tiered.Stats(), env.remote.Stats()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	var start time.Time
	w.hit, w.miss, start, err = schedule(env.a.url, plan.Hits, plan.Misses,
		func(i int) string { return plan.Universe[i] },
		func(i int) string { return plan.MissLines[i] },
		checkHit, checkMiss)
	if err != nil {
		return nil, err
	}
	w.cpu = cpuTime() - cpu0
	w.rt = readRuntime().sub(rt0)
	end := w.hit.end
	if w.miss.end.After(end) {
		end = w.miss.end
	}
	w.makespan = end.Sub(start)
	w.store1, w.tiered1, w.remote1 = env.storeA.Stats(), env.tiered.Stats(), env.remote.Stats()
	if w.metrics1, err = scrapeMetrics(env.a.url); err != nil {
		return nil, err
	}
	// Keep the schedule's eval traces; set-up and scrapes were traced too.
	for _, tr := range tracer.Snapshot(0) {
		if tr.Root == "POST /v1/eval" && !tr.Start.Before(start) {
			w.traces = append(w.traces, tr)
		}
	}
	return w, nil
}

func runServeMixed(cfg runConfig) (*result, error) {
	res := newResult()
	// A traced run plays the schedule twice, untraced then traced.
	plan := makePlan(cfg.Seed, cfg.Seconds)
	floor, err := calibrate(plan)
	if err != nil {
		return nil, err
	}
	w, err := play(cfg, "plain", plan, res, false, cfg.Trace, nil)
	if err != nil {
		return nil, err
	}
	m := res.Metrics
	m["setup_s"] = median(w.setups)
	m["makespan_s"] = w.makespan.Seconds()
	m["cpu_s"] = w.cpu.Seconds()
	m["bench.floor_p50_ms"] = floor
	lag := append(append([]float64(nil), w.hit.lag...), w.miss.lag...)
	m["bench.sched_lag_p99_ms"], _ = percentile(lag, 99)
	if m["bench.sched_lag_p99_ms"] > float64(lagLimit)/float64(time.Millisecond) {
		return nil, fmt.Errorf("%w: generator lag p99 %.2f ms exceeds the %v limit", errInvalid, m["bench.sched_lag_p99_ms"], lagLimit)
	}
	if m["hit_p50_ms"], err = requirePercentile("hit", w.hit.lat, 50); err != nil {
		return nil, err
	}
	if m["miss_p50_ms"], err = requirePercentile("miss", w.miss.lat, 50); err != nil {
		return nil, err
	}
	res.Samples["hit"] = len(w.hit.lat)
	res.Samples["miss"] = len(w.miss.lat)

	// Byte-identity of a sample of cold answers against an offline solve.
	eng := &scenario.Engine{Parallel: gomaxprocs()}
	for _, i := range plan.Sample {
		want, err := offlineEval(eng, plan.MissLines[i])
		if err != nil {
			return nil, err
		}
		if got, ok := w.missBodies[i]; !ok || !bytes.Equal(got, want.body) {
			res.fail("miss %q: response bytes differ from the offline solve", plan.MissLines[i])
		}
	}
	if cfg.Trace {
		tw, err := play(cfg, "traced", plan, res, true, true, nil)
		if err != nil {
			return nil, err
		}
		if err := serveLayers(m, w, tw, len(plan.Hits)+len(plan.Misses)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serveLayers fills serve-mixed's per-layer metrics: counters, handler
// times and runtime cost from the untraced window, span-derived times
// from the traced one.
func serveLayers(m map[string]float64, w, tw *window, requests int) error {
	st := analyzeTraces(tw.traces)
	if st.traces != requests || st.dropped > 0 {
		return fmt.Errorf("serve-mixed: %d traces with %d dropped spans for %d requests", st.traces, st.dropped, requests)
	}
	setSpanMetrics(m, st, 1)
	var root float64
	for _, tr := range tw.traces {
		root += float64(tr.DurationUS) / 1e6
	}
	var handler float64
	for _, d := range append(append([]float64(nil), tw.times.hit...), tw.times.miss...) {
		handler += d
	}
	if handler > 0 {
		m["bench.span_coverage_frac"] = root / handler
	}
	m["bench.trace_overhead_frac"] = median(tw.times.hit)/median(w.times.hit) - 1
	m["runner.cpu_util"] = w.cpu.Seconds() / (w.makespan.Seconds() * float64(gomaxprocs()))
	setRuntimeMetrics(m, w.rt, 1)
	m["service.handler_hit_us"] = median(w.times.hit) * 1e6
	m["service.handler_miss_ms"] = median(w.times.miss) * 1e3
	d := func(name string) float64 { return w.metrics1[name] - w.metrics0[name] }
	if n := d("response_bytes_cache_hits_total") + d("response_bytes_cache_misses_total"); n > 0 {
		m["service.bytecache_hit_frac"] = d("response_bytes_cache_hits_total") / n
	}
	m["service.shared_total"] = d("eval_shared_total")
	m["service.rejected_total"] = d("eval_rejected_total")
	m["store.hits"] = float64(w.store1.Hits - w.store0.Hits)
	m["store.writes"] = float64(w.store1.Writes - w.store0.Writes)
	m["store.parent_links"] = float64(w.store1.ParentLinks - w.store0.ParentLinks)
	m["store.promotions"] = float64(w.tiered1.Promotions - w.tiered0.Promotions)
	m["remotestore.attempts"] = float64(w.remote1.Attempts - w.remote0.Attempts)
	m["remotestore.retries"] = float64(w.remote1.Retries - w.remote0.Retries)
	return nil
}
