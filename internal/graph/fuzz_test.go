package graph

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// FuzzGraphRoundTrip: any JSON the parser accepts must re-export to a form
// that parses again and re-exports identically (export → parse → re-export
// is a fixed point after one round).
func FuzzGraphRoundTrip(f *testing.F) {
	// Seed with real exports.
	seedGraphs := []*Graph{New(0), New(1)}
	g := New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(1, 2, 2.5)
	g.AddLink(2, 3, 0.125)
	g.AddLink(0, 3, 7)
	g.SetServers(1, 3)
	g.SetClass(2, 1)
	seedGraphs = append(seedGraphs, g)
	rng := rand.New(rand.NewSource(8))
	h := New(12)
	for i := 1; i < 12; i++ {
		h.AddLink(rng.Intn(i), i, 1+rng.Float64())
	}
	seedGraphs = append(seedGraphs, h)
	for _, sg := range seedGraphs {
		data, err := json.Marshal(sg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"n":2,"links":[{"u":0,"v":1,"cap":1}]}`))
	f.Add([]byte(`{"n":3,"servers":[1,2,3],"class":[0,1,2],"links":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var g1 Graph
		if err := json.Unmarshal(data, &g1); err != nil {
			return // invalid input is fine; it just must not crash
		}
		if err := g1.Validate(); err != nil {
			t.Fatalf("parser accepted an invalid graph: %v", err)
		}
		out1, err := json.Marshal(&g1)
		if err != nil {
			t.Fatalf("re-export failed: %v", err)
		}
		var g2 Graph
		if err := json.Unmarshal(out1, &g2); err != nil {
			t.Fatalf("re-parse of own export failed: %v\nexport: %s", err, out1)
		}
		out2, err := json.Marshal(&g2)
		if err != nil {
			t.Fatalf("second export failed: %v", err)
		}
		if !bytes.Equal(out1, out2) {
			t.Fatalf("export not a fixed point:\nfirst:  %s\nsecond: %s", out1, out2)
		}
	})
}

// FuzzBucketMatchesHeap: on a derived random graph with random lengths,
// the bucket-queue traversal must be bit-identical to the heap Dijkstra —
// dist, via and ViaLen, full runs and early-exit target runs alike. The fuzzer drives the graph
// shape, the length distribution, the bucket width (any fraction of the
// minimum length, the documented validity range), and the target set.
func FuzzBucketMatchesHeap(f *testing.F) {
	f.Add(int64(1), uint8(255), []byte{0})
	f.Add(int64(42), uint8(128), []byte{1, 2, 3})
	f.Add(int64(99), uint8(1), []byte{7, 7, 7, 7})
	f.Add(int64(7), uint8(64), []byte{200, 100, 50, 25, 12, 6})

	f.Fuzz(func(t *testing.T, seed int64, deltaByte uint8, targetBytes []byte) {
		if len(targetBytes) > 64 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(50)
		g := New(n)
		for i := 1; i < n; i++ {
			g.AddLink(rng.Intn(i), i, 1)
		}
		extra := rng.Intn(2 * n)
		for i := 0; i < extra; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddLink(u, v, 1)
			}
		}
		lens := make([]float64, g.NumArcs())
		for a := range lens {
			lens[a] = 0.05 + rng.Float64()
			if rng.Intn(8) == 0 {
				lens[a] *= 1000 // occasional wide spread to force rebases
			}
		}
		minLen, _ := LengthRange(lens)
		// deltaByte sweeps (0, 2·minLen]: values ≤ minLen take the fast
		// bucket path, larger ones force the short-arc bail-to-heap, and
		// both must stay bit-identical to the heap.
		delta := minLen * (float64(deltaByte) + 1) / 128
		src := rng.Intn(n)
		dh, db := g.NewDijkstraScratch(), g.NewDijkstraScratch()
		dh.Run(src, lens, nil)
		db.RunBucketed(src, lens, nil, delta)
		for v := 0; v < n; v++ {
			if dh.Dist(v) != db.Dist(v) {
				t.Fatalf("dist[%d]: heap %v, bucket %v", v, dh.Dist(v), db.Dist(v))
			}
			if dh.Via(v) != db.Via(v) {
				t.Fatalf("via[%d]: heap %d, bucket %d", v, dh.Via(v), db.Via(v))
			}
			if dh.ViaLen(v) != db.ViaLen(v) {
				t.Fatalf("vialen[%d]: heap %v, bucket %v", v, dh.ViaLen(v), db.ViaLen(v))
			}
		}
		// Early-exit run: targets and their root paths must be final.
		var targets []int32
		for _, b := range targetBytes {
			if v := int(b) % n; v != src {
				targets = append(targets, int32(v))
			}
		}
		if len(targets) == 0 {
			return
		}
		db.RunBucketed(src, lens, targets, delta)
		for _, v := range targets {
			at := int(v)
			for at != src {
				if db.Dist(at) != dh.Dist(at) {
					t.Fatalf("target %d path node %d: bucket %v, full heap %v", v, at, db.Dist(at), dh.Dist(at))
				}
				a := db.Via(at)
				if a != dh.Via(at) {
					t.Fatalf("target %d path node %d: bucket via %d, full heap via %d", v, at, a, dh.Via(at))
				}
				if db.ViaLen(at) != dh.ViaLen(at) {
					t.Fatalf("target %d path node %d: bucket vialen %v, full heap vialen %v", v, at, db.ViaLen(at), dh.ViaLen(at))
				}
				at = int(g.Arc(int(a)).From)
			}
		}
	})
}
