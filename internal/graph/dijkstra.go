package graph

import (
	"math"
	"sync"
)

// DijkstraScratch holds one shortest-path tree over one graph and the
// per-node state to recompute it. The flow solver keeps one of these trees
// alive per traffic source, so a scratch owns only O(n) state — dist, via,
// the length of each via arc when it was set (vlen), the epoch stamp and
// the pending-target marker, 28 bytes per node. dist/via validity is
// tracked with the epoch stamp (no O(n) clearing between runs).
//
// Everything a traversal empties before it returns — the heap, the bucket
// window and its overflow list, and the pending targets — lives in a
// workspace taken from a process-wide sync.Pool for the duration of one
// call, so memory for the working set scales with the number of goroutines
// traversing, not with the number of trees.
//
// A scratch is bound to the graph that created it and must not be used
// after links are added. It is not safe for concurrent use; create one
// scratch per goroutine.
type DijkstraScratch struct {
	g     *Graph
	dist  []float64
	via   []int32
	vlen  []float64 // length of via[v] when the traversal set it
	stamp []uint32  // dist/via/vlen valid iff stamp == epoch
	tmark []uint32  // pending-target marker, same epoch discipline
	epoch uint32

	// Outcome of the last RunBucketed (see bucket.go).
	bqRebases int
	bqBailed  bool
}

// workspace is the traversal working set. Every run leaves it empty —
// bucket slots drained — so a workspace can serve any scratch of any graph
// next.
type workspace struct {
	heap      []item
	bqSlots   [][]item // bqWindow slots, allocated on first bucket run
	bqOver    []item
	bqPending []int32
}

var workspacePool = sync.Pool{New: func() any { return new(workspace) }}

func getWorkspace() *workspace { return workspacePool.Get().(*workspace) }

func putWorkspace(w *workspace) { workspacePool.Put(w) }

// NewDijkstraScratch returns a scratch sized for g.
func (g *Graph) NewDijkstraScratch() *DijkstraScratch {
	return &DijkstraScratch{
		g:     g,
		dist:  make([]float64, g.n),
		via:   make([]int32, g.n),
		vlen:  make([]float64, g.n),
		stamp: make([]uint32, g.n),
		tmark: make([]uint32, g.n),
	}
}

// nextEpoch starts a new traversal: every node's dist/via goes stale.
func (d *DijkstraScratch) nextEpoch() uint32 {
	d.epoch++
	if d.epoch == 0 { // wrapped: every stale stamp is suddenly "current"
		for i := range d.stamp {
			d.stamp[i], d.tmark[i] = 0, 0
		}
		d.epoch = 1
	}
	return d.epoch
}

// Run computes the shortest-path tree from src under the per-arc lengths.
// If targets is non-empty, the run stops as soon as every target is
// settled: dist/via are then final for the targets and every node on a
// shortest path to them, but not necessarily for other nodes. Lengths must
// be non-negative. Results are read with Dist/Via/ViaLen/Reached and stay
// valid until the next Run.
func (d *DijkstraScratch) Run(src int, length []float64, targets []int32) {
	w := getWorkspace()
	d.run(w, src, length, targets)
	putWorkspace(w)
}

func (d *DijkstraScratch) run(w *workspace, src int, length []float64, targets []int32) {
	e := d.nextEpoch()
	c := d.g.csrView()
	pending := 0
	for _, t := range targets {
		if d.tmark[t] != e {
			d.tmark[t] = e
			pending++
		}
	}
	earlyExit := pending > 0
	d.dist[src] = 0
	d.via[src] = -1
	d.vlen[src] = 0
	d.stamp[src] = e
	h := heapF{a: w.heap[:0]}
	h.push(item{node: int32(src), d: 0})
	for h.len() > 0 {
		it := h.pop()
		if it.d > d.dist[it.node] {
			continue // stale entry; the node settled at a smaller distance
		}
		if earlyExit && d.tmark[it.node] == e {
			d.tmark[it.node] = 0
			pending--
			if pending == 0 {
				break
			}
		}
		for k, end := c.start[it.node], c.start[it.node+1]; k < end; k++ {
			v := c.to[k]
			a := c.arc[k]
			l := length[a]
			nd := it.d + l
			if d.stamp[v] != e || nd < d.dist[v] {
				d.dist[v] = nd
				d.via[v] = a
				d.vlen[v] = l
				d.stamp[v] = e
				h.push(item{node: v, d: nd})
			}
		}
	}
	w.heap = h.a
}

// Dist returns the distance of v from the last Run's source, or +Inf if v
// was not reached.
func (d *DijkstraScratch) Dist(v int) float64 {
	if d.stamp[v] != d.epoch {
		return math.Inf(1)
	}
	return d.dist[v]
}

// Via returns the arc used to reach v in the last Run's tree, or -1 for
// the source and unreached nodes.
func (d *DijkstraScratch) Via(v int) int32 {
	if d.stamp[v] != d.epoch {
		return -1
	}
	return d.via[v]
}

// ViaLen returns the length Via(v) had when the traversal that chose it
// ran, or 0 for the source and unreached nodes. Lengths only grow in the
// solver, so summing ViaLen along a tree path gives the path's length when
// the tree was built — what staleness checks compare against — without a
// per-tree snapshot of every arc length.
func (d *DijkstraScratch) ViaLen(v int) float64 {
	if d.stamp[v] != d.epoch {
		return 0
	}
	return d.vlen[v]
}

// Reached reports whether v was reached by the last Run.
func (d *DijkstraScratch) Reached(v int) bool { return d.stamp[v] == d.epoch }
