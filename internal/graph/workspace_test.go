package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// naiveTree is an O(n²) array-scan Dijkstra that shares no code or pooled
// state with DijkstraScratch: the reference the pooled traversals are held
// to. Random float lengths make the tree unique, so dist, via and the via
// arc's length must match bit for bit.
func naiveTree(g *Graph, src int, lens []float64) (dist []float64, via []int32) {
	n := g.N()
	dist, via = make([]float64, n), make([]int32, n)
	done := make([]bool, n)
	for v := range dist {
		dist[v], via[v] = math.Inf(1), -1
	}
	dist[src] = 0
	for {
		u := -1
		for v := 0; v < n; v++ {
			if !done[v] && !math.IsInf(dist[v], 1) && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return dist, via
		}
		done[u] = true
		for _, a := range g.OutArcs(u) {
			v := g.Arc(int(a)).To
			if nd := dist[u] + lens[a]; nd < dist[v] {
				dist[v], via[v] = nd, a
			}
		}
	}
}

// checkNode compares one node of d against the reference tree.
func checkNode(d *DijkstraScratch, lens, dist []float64, via []int32, v int) error {
	wantLen := 0.0
	if via[v] >= 0 {
		wantLen = lens[via[v]]
	}
	if d.Dist(v) != dist[v] || d.Via(v) != via[v] || d.ViaLen(v) != wantLen {
		return fmt.Errorf("node %d: got (%v, %d, %v), want (%v, %d, %v)",
			v, d.Dist(v), d.Via(v), d.ViaLen(v), dist[v], via[v], wantLen)
	}
	return nil
}

// checkFull compares every node of a complete tree.
func checkFull(d *DijkstraScratch, g *Graph, src int, lens []float64) error {
	dist, via := naiveTree(g, src, lens)
	for v := 0; v < g.N(); v++ {
		if err := checkNode(d, lens, dist, via, v); err != nil {
			return err
		}
	}
	return nil
}

// checkTargets compares every node on the root path of each target — all
// an early-exit run promises.
func checkTargets(d *DijkstraScratch, g *Graph, src int, lens []float64, targets []int32) error {
	dist, via := naiveTree(g, src, lens)
	for _, tg := range targets {
		for at := int(tg); at != src; at = int(g.Arc(int(via[at])).From) {
			if err := checkNode(d, lens, dist, via, at); err != nil {
				return fmt.Errorf("target %d: %w", tg, err)
			}
		}
	}
	return nil
}

// checkEmpty asserts the invariant that lets one workspace serve any
// scratch next: nothing left queued.
func checkEmpty(t *testing.T, w *workspace, ctx string) {
	t.Helper()
	for i, s := range w.bqSlots {
		if len(s) != 0 {
			t.Fatalf("%s: bucket slot %d holds %d entries", ctx, i, len(s))
		}
	}
}

// pickTargets returns k distinct non-source nodes.
func pickTargets(rng *rand.Rand, n, src, k int) []int32 {
	var targets []int32
	for len(targets) < k {
		if v := rng.Intn(n); v != src {
			targets = append(targets, int32(v))
		}
	}
	return targets
}

// TestWorkspaceLeftEmpty drives one workspace through every way a
// traversal can end — complete, early exit, bucket bail — on graphs of
// growing and shrinking size, and checks after each that results are
// exact and the workspace is empty again.
func TestWorkspaceLeftEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := new(workspace)
	for _, n := range []int{50, 7, 300, 20, 120} {
		g, lens := randomLenGraph(rng, n, 2*n, 0.1, 1.1)
		minLen, _ := LengthRange(lens)
		src := rng.Intn(n)
		d := g.NewDijkstraScratch()
		ctx := func(step string) string { return fmt.Sprintf("n=%d %s", n, step) }

		targets := pickTargets(rng, n, src, 2)
		d.run(w, src, lens, targets)
		if err := checkTargets(d, g, src, lens, targets); err != nil {
			t.Fatalf("%s: %v", ctx("heap early exit"), err)
		}
		checkEmpty(t, w, ctx("heap early exit"))

		if d.runBucketed(w, src, lens, targets, minLen) {
			t.Fatalf("%s: bucket run bailed at delta = min length", ctx("bucket early exit"))
		}
		if err := checkTargets(d, g, src, lens, targets); err != nil {
			t.Fatalf("%s: %v", ctx("bucket early exit"), err)
		}
		checkEmpty(t, w, ctx("bucket early exit"))

		// delta above every arc length makes the first relaxation bail.
		if !d.runBucketed(w, src, lens, nil, 2) {
			t.Fatalf("%s: bucket run did not bail", ctx("bucket bail"))
		}
		checkEmpty(t, w, ctx("bucket bail"))
		d.run(w, src, lens, nil)
		if err := checkFull(d, g, src, lens); err != nil {
			t.Fatalf("%s: %v", ctx("heap rerun"), err)
		}
		checkEmpty(t, w, ctx("heap rerun"))
	}
}

// TestWorkspacePoolConcurrentGraphs runs scratches of graphs with
// different node counts on the shared workspace pool — first in sequence,
// then from several goroutines at once (run it with -race) — through heap,
// bucket, early-exit and bailing traversals. Every result must match the
// independent reference, so no queued entry can leak from one run into
// another.
func TestWorkspacePoolConcurrentGraphs(t *testing.T) {
	type instance struct {
		g    *Graph
		lens []float64
	}
	rng := rand.New(rand.NewSource(37))
	var insts []instance
	for _, n := range []int{9, 180, 33, 400, 64} {
		g, lens := randomLenGraph(rng, n, 2*n, 0.1, 1.1)
		insts = append(insts, instance{g, lens})
	}
	// worker runs rounds of random operations with its own scratches,
	// cycling through the graphs so consecutive pool users differ in size.
	worker := func(seed int64, rounds int) error {
		rng := rand.New(rand.NewSource(seed))
		for r := 0; r < rounds; r++ {
			in := insts[(int(seed)+r)%len(insts)]
			g, n, lens := in.g, in.g.N(), in.lens
			minLen, _ := LengthRange(lens)
			src := rng.Intn(n)
			d := g.NewDijkstraScratch()
			targets := pickTargets(rng, n, src, 1+rng.Intn(3))
			switch r % 3 {
			case 0:
				d.Run(src, lens, targets)
			case 1:
				d.RunBucketed(src, lens, targets, minLen)
			case 2:
				d.RunBucketed(src, lens, targets, 2) // bails to the heap
			}
			if err := checkTargets(d, g, src, lens, targets); err != nil {
				return fmt.Errorf("round %d early exit: %w", r, err)
			}
			d.RunBucketed(src, lens, nil, minLen)
			if err := checkFull(d, g, src, lens); err != nil {
				return fmt.Errorf("round %d full run: %w", r, err)
			}
		}
		return nil
	}
	if err := worker(0, 2*len(insts)); err != nil {
		t.Fatalf("sequential: %v", err)
	}
	const goroutines = 6
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = worker(int64(i+1), 2*len(insts))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}
