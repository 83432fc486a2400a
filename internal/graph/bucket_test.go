package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomLenGraph builds a connected-ish random multigraph with n nodes and
// random positive lengths drawn from [lo, hi).
func randomLenGraph(rng *rand.Rand, n int, extra int, lo, hi float64) (*Graph, []float64) {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddLink(rng.Intn(i), i, 1)
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddLink(u, v, 1)
		}
	}
	lens := make([]float64, g.NumArcs())
	for a := range lens {
		lens[a] = lo + (hi-lo)*rng.Float64()
	}
	return g, lens
}

func compareTrees(t *testing.T, ctx string, g *Graph, heap, bucket *DijkstraScratch) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if heap.Dist(v) != bucket.Dist(v) {
			t.Fatalf("%s: dist[%d]: heap %v, bucket %v", ctx, v, heap.Dist(v), bucket.Dist(v))
		}
		if heap.Via(v) != bucket.Via(v) {
			t.Fatalf("%s: via[%d]: heap %d, bucket %d", ctx, v, heap.Via(v), bucket.Via(v))
		}
		if heap.ViaLen(v) != bucket.ViaLen(v) {
			t.Fatalf("%s: vialen[%d]: heap %v, bucket %v", ctx, v, heap.ViaLen(v), bucket.ViaLen(v))
		}
	}
}

// TestRunBucketedMatchesHeap: full runs over random graphs with random
// lengths must be bit-identical to the heap path (random lengths make
// shortest paths unique with probability 1).
func TestRunBucketedMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(60)
		g, lens := randomLenGraph(rng, n, rng.Intn(3*n), 0.1, 1.1)
		minLen, _ := LengthRange(lens)
		delta := minLen * (0.2 + 0.8*rng.Float64())
		src := rng.Intn(n)
		dh, db := g.NewDijkstraScratch(), g.NewDijkstraScratch()
		dh.Run(src, lens, nil)
		db.RunBucketed(src, lens, nil, delta)
		compareTrees(t, "full", g, dh, db)
	}
}

// TestRunBucketedTargets: the early-exit contract matches the heap path —
// targets (and hence every node on a shortest path to them) are final.
func TestRunBucketedTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(50)
		g, lens := randomLenGraph(rng, n, rng.Intn(2*n), 0.5, 2.0)
		minLen, _ := LengthRange(lens)
		src := rng.Intn(n)
		var targets []int32
		for len(targets) < 1+rng.Intn(4) {
			if v := rng.Intn(n); v != src {
				targets = append(targets, int32(v))
			}
		}
		dh, db := g.NewDijkstraScratch(), g.NewDijkstraScratch()
		dh.Run(src, lens, nil) // full reference run
		db.RunBucketed(src, lens, targets, minLen)
		for _, v := range targets {
			if db.Dist(int(v)) != dh.Dist(int(v)) {
				t.Fatalf("target %d: bucket dist %v, reference %v", v, db.Dist(int(v)), dh.Dist(int(v)))
			}
			// The whole root path must be walkable and final.
			at := int(v)
			for at != src {
				a := db.Via(at)
				if a < 0 {
					t.Fatalf("target %d: root path broken at %d", v, at)
				}
				if db.Dist(at) != dh.Dist(at) {
					t.Fatalf("path node %d: bucket dist %v, reference %v", at, db.Dist(at), dh.Dist(at))
				}
				at = int(g.Arc(int(a)).From)
			}
		}
	}
}

// TestRunBucketedWideRange: a length spread far beyond the resident window
// forces overflow rebases; results must stay exact.
func TestRunBucketedWideRange(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(40)
		g, lens := randomLenGraph(rng, n, rng.Intn(n), 1, 2)
		// Stretch a random subset of arcs by up to 10^4: with delta = minLen
		// their relaxations land thousands of buckets out, exercising the
		// overflow path.
		for a := range lens {
			if rng.Intn(3) == 0 {
				lens[a] *= math.Pow(10, 1+3*rng.Float64())
			}
		}
		minLen, _ := LengthRange(lens)
		src := rng.Intn(n)
		dh, db := g.NewDijkstraScratch(), g.NewDijkstraScratch()
		dh.Run(src, lens, nil)
		db.RunBucketed(src, lens, nil, minLen)
		compareTrees(t, "wide", g, dh, db)
	}
}

// TestRunBucketedReuse: one scratch must survive interleaved heap and
// bucket runs (the solver switches per phase) under lengths that grow
// between runs, as the solver's do.
func TestRunBucketedReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g, lens := randomLenGraph(rng, 40, 60, 0.2, 1.0)
	ref := g.NewDijkstraScratch()
	d := g.NewDijkstraScratch()
	for round := 0; round < 30; round++ {
		src := rng.Intn(g.N())
		minLen, _ := LengthRange(lens)
		ref.Run(src, lens, nil)
		if round%2 == 0 {
			d.RunBucketed(src, lens, nil, minLen)
		} else {
			d.Run(src, lens, nil)
		}
		compareTrees(t, "reuse", g, ref, d)
		for k := 0; k < 5; k++ {
			lens[rng.Intn(g.NumArcs())] *= 1 + 0.2*rng.Float64()
		}
	}
}

// TestRunBucketedFallback: a non-positive or NaN delta must transparently
// fall back to the heap path.
func TestRunBucketedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, lens := randomLenGraph(rng, 20, 10, 0.5, 1.5)
	ref := g.NewDijkstraScratch()
	ref.Run(3, lens, nil)
	for _, delta := range []float64{0, -1, math.NaN()} {
		d := g.NewDijkstraScratch()
		d.RunBucketed(3, lens, nil, delta)
		compareTrees(t, "fallback", g, ref, d)
	}
}

// TestLengthRange covers the helper's edge cases.
func TestLengthRange(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		minPos, max float64
	}{
		{nil, 0, 0},
		{[]float64{0, 0}, 0, 0},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{0, 5, 0.5}, 0.5, 5},
	} {
		minPos, max := LengthRange(c.in)
		if minPos != c.minPos || max != c.max {
			t.Fatalf("LengthRange(%v) = (%v, %v), want (%v, %v)", c.in, minPos, max, c.minPos, c.max)
		}
	}
}

func BenchmarkBucketVsHeap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, lens := randomLenGraph(rng, 400, 1000, 1.0, 1.01)
	minLen, _ := LengthRange(lens)
	d := g.NewDijkstraScratch()
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.Run(0, lens, nil)
		}
	})
	b.Run("bucket", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.RunBucketed(0, lens, nil, minLen)
		}
	})
}

// TestRunBucketedZeroLengthArc: a zero-length (or generally < delta) arc
// voids the within-bucket finality argument; the run must detect it, bail
// to the heap, and still produce exact results — including under early
// exit, where an unguarded bucket run would settle the target at a
// non-shortest distance.
func TestRunBucketedZeroLengthArc(t *testing.T) {
	g := New(3)
	g.AddLink(0, 1, 1) // arcs 0,1: len 1
	g.AddLink(0, 2, 1) // arcs 2,3: len 1.5
	g.AddLink(1, 2, 1) // arcs 4,5: len 0
	lens := []float64{1, 1, 1.5, 1.5, 0, 0}
	ref := g.NewDijkstraScratch()
	ref.Run(0, lens, nil)
	if ref.Dist(2) != 1.0 {
		t.Fatalf("reference dist(2) = %v, want 1 (via the zero arc)", ref.Dist(2))
	}
	for _, targets := range [][]int32{nil, {2}} {
		d := g.NewDijkstraScratch()
		d.RunBucketed(0, lens, targets, 1)
		if !d.BucketBailed() {
			t.Fatalf("targets=%v: zero-length arc did not trigger a bail", targets)
		}
		if d.Dist(2) != 1.0 || d.Via(2) != ref.Via(2) {
			t.Fatalf("targets=%v: dist(2)=%v via=%d, want 1.0 via=%d",
				targets, d.Dist(2), d.Via(2), ref.Via(2))
		}
	}
}

// TestRunBucketedIndexOverflowBails: distances so far beyond delta that
// the bucket index would overflow int64 must bail to the heap instead of
// silently corrupting the traversal order. delta is valid here (≤ every
// arc length) — only the spread is hostile, mimicking a mid-phase
// Garg–Könemann rebuild after heavy multiplicative length growth.
func TestRunBucketedIndexOverflowBails(t *testing.T) {
	g := New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(1, 2, 1)
	g.AddLink(2, 3, 1)
	delta := 1e-9
	huge := delta * float64(int64(1)<<50) // idx ≈ 2^50 > bqMaxIdx
	lens := []float64{delta, delta, huge, huge, huge, huge}
	ref := g.NewDijkstraScratch()
	ref.Run(0, lens, nil)
	d := g.NewDijkstraScratch()
	d.RunBucketed(0, lens, nil, delta)
	if !d.BucketBailed() {
		t.Fatal("index-overflow spread did not trigger a bail")
	}
	compareTrees(t, "overflow-bail", g, ref, d)
	// A benign run on the same scratch afterwards must clear the flag.
	uniform := []float64{1, 1, 1, 1, 1, 1}
	ref.Run(0, uniform, nil)
	d.RunBucketed(0, uniform, nil, 1)
	if d.BucketBailed() {
		t.Fatal("bail flag stuck after a clean run")
	}
	compareTrees(t, "post-bail", g, ref, d)
}
