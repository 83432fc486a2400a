package graph

import (
	"math"
	"math/rand"
	"testing"
)

// growArcs multiplies a random subset of arc lengths by (1+delta) factors,
// returning the indices that changed. Lengths only grow, matching the
// Garg–Könemann length evolution Repair is designed for.
func growArcs(rng *rand.Rand, lens []float64, count int) []int32 {
	changed := make([]int32, 0, count)
	for k := 0; k < count; k++ {
		a := int32(rng.Intn(len(lens)))
		lens[a] *= 1 + 0.5*rng.Float64()
		changed = append(changed, a)
	}
	return changed
}

// checkTreesEqual asserts the repaired scratch agrees bit-for-bit with a
// from-scratch Dijkstra (random float lengths make the tree unique, so via
// must match exactly, not just dist) — ViaLen included, so a node the
// repair left alone still reports its via arc's current length.
func checkTreesEqual(t *testing.T, g *Graph, d *DijkstraScratch, lens []float64, src int, ctx string) {
	t.Helper()
	ref := g.NewDijkstraScratch()
	ref.Run(src, lens, nil)
	for v := 0; v < g.N(); v++ {
		if d.Dist(v) != ref.Dist(v) {
			t.Fatalf("%s: dist[%d] = %v, want %v", ctx, v, d.Dist(v), ref.Dist(v))
		}
		if d.Via(v) != ref.Via(v) {
			t.Fatalf("%s: via[%d] = %v, want %v", ctx, v, d.Via(v), ref.Via(v))
		}
		if d.ViaLen(v) != ref.ViaLen(v) {
			t.Fatalf("%s: vialen[%d] = %v, want %v", ctx, v, d.ViaLen(v), ref.ViaLen(v))
		}
	}
}

// TestRepairOracle: after every randomized arc-growth batch, Repair must
// reproduce the from-scratch tree exactly. ≥100 randomized sequences.
func TestRepairOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for seq := 0; seq < 120; seq++ {
		n := 8 + rng.Intn(60)
		g, lens := randomWeighted(t, rng, n, n+rng.Intn(3*n))
		src := rng.Intn(n)
		d := g.NewDijkstraScratch()
		d.Run(src, lens, nil)
		rounds := 1 + rng.Intn(8)
		for round := 0; round < rounds; round++ {
			changed := growArcs(rng, lens, 1+rng.Intn(6))
			if !d.Repair(lens, changed) {
				t.Fatalf("seq %d round %d: Repair refused a complete tree", seq, round)
			}
			checkTreesEqual(t, g, d, lens, src, "repair oracle")
		}
	}
}

// TestRepairNonTreeArcNoop: growing arcs outside the tree must leave every
// distance untouched (the cheap-scan fast path).
func TestRepairNonTreeArcNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, lens := randomWeighted(t, rng, 40, 120)
	d := g.NewDijkstraScratch()
	d.Run(0, lens, nil)
	var nonTree []int32
	for a := 0; a < g.NumArcs(); a++ {
		v := int(g.Arc(a).To)
		if d.Via(v) != int32(a) {
			nonTree = append(nonTree, int32(a))
			if len(nonTree) == 10 {
				break
			}
		}
	}
	for _, a := range nonTree {
		lens[a] *= 2
	}
	if !d.Repair(lens, nonTree) {
		t.Fatal("Repair refused a complete tree")
	}
	checkTreesEqual(t, g, d, lens, 0, "non-tree growth")
}

// TestRepairRefusesIncompleteTree: a targets run that exits early must not
// be repairable.
func TestRepairRefusesIncompleteTree(t *testing.T) {
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddLink(i, i+1, 1)
	}
	lens := make([]float64, g.NumArcs())
	for i := range lens {
		lens[i] = 1
	}
	d := g.NewDijkstraScratch()
	d.Run(0, lens, []int32{1}) // settles node 1 and stops
	if d.Repair(lens, []int32{0}) {
		t.Fatal("Repair accepted an early-exited tree")
	}
	d.Run(0, lens, nil)
	if !d.Repair(lens, []int32{0}) {
		t.Fatal("Repair refused a complete tree")
	}
}

// TestRepairDisconnects: growing a bridge to +Inf must mark the far side
// unreached, exactly like a rebuild under the same lengths.
func TestRepairDisconnects(t *testing.T) {
	g := New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(1, 2, 1)
	g.AddLink(2, 3, 1)
	lens := []float64{1, 1, 1, 1, 1, 1}
	d := g.NewDijkstraScratch()
	d.Run(0, lens, nil)
	// Cut both directions of link 1-2.
	inf := make([]float64, len(lens))
	copy(inf, lens)
	inf[2], inf[3] = posInf(), posInf()
	if !d.Repair(inf, []int32{2, 3}) {
		t.Fatal("Repair refused")
	}
	if d.Reached(2) || d.Reached(3) {
		t.Fatalf("nodes beyond the cut still reached: 2=%v 3=%v", d.Reached(2), d.Reached(3))
	}
	if !d.Reached(1) || d.Dist(1) != 1 {
		t.Fatalf("near side perturbed: reached=%v dist=%v", d.Reached(1), d.Dist(1))
	}
}

func posInf() float64 { return math.Inf(1) }
