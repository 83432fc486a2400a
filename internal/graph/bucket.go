package graph

import "math"

// The bucket-queue traversal below is the Δ-stepping-style sibling of the
// heap Dijkstra in dijkstra.go. The Garg–Könemann solver rebuilds roughly
// one shortest-path tree per (source, phase); under a near-uniform length
// function — exactly the early- and mid-phase regime of the solver, where
// lengths start at δ/cap and have not yet spread — a monotone bucket queue
// replaces every heap sift (O(log n) with data-dependent branches) with an
// O(1) append/pop on a flat slice, which is both cheaper and far friendlier
// to the cache and branch predictor.
//
// Correctness does not depend on the length spread, only the precondition
// delta ≤ min positive arc length: then a node popped from the current
// bucket can never be improved by another node of the same bucket (the
// improving path would need an arc shorter than delta), so every popped
// current entry is final exactly as in the heap traversal. Distances and
// parent arcs therefore agree with Run bit-for-bit whenever shortest paths
// are unique, which FuzzBucketMatchesHeap enforces. Performance does
// depend on the spread: the traversal visits ~maxDist/delta buckets, so
// callers should prefer the heap when max length / min length is large
// (see LengthRange and the adaptive choice in internal/mcf).

// bqWindow is the number of resident bucket slots (a power of two).
// Entries whose bucket lies beyond the resident range go to an overflow
// list and are redistributed when the window runs dry, so memory stays
// O(bqWindow + queued entries) no matter how wide the distance range is.
const bqWindow = 256

// bqMaxIdx bounds the bucket index a relaxation may produce. Beyond it,
// the int64 conversion of distance/delta would approach overflow (whose
// result is implementation-defined and would silently corrupt the
// traversal order), so the run bails to the heap instead. The bound is
// far below 2^63 to keep the window arithmetic (idx+bqWindow etc.) safe.
const bqMaxIdx = int64(1) << 46

// LengthRange returns the smallest positive and the largest entry of
// length. It is the one O(m) scan callers need to derive a valid bucket
// width (delta ≤ minPos) and to decide heap vs bucket from the spread
// max/minPos. minPos is 0 when no entry is positive.
func LengthRange(length []float64) (minPos, max float64) {
	for _, l := range length {
		if l > 0 && (minPos == 0 || l < minPos) {
			minPos = l
		}
		if l > max {
			max = l
		}
	}
	return minPos, max
}

// RunBucketed computes the same shortest-path tree as Run — source src,
// per-arc lengths, optional early-exit targets — using a monotone bucket
// queue of width delta instead of the 4-ary heap. delta should be positive
// and no larger than the smallest arc length the traversal relaxes;
// LengthRange(length) provides such a value when lengths are positive.
//
// The precondition is self-enforcing: a non-positive (or NaN) delta, a
// relaxed arc shorter than delta (including zero-length arcs, which would
// break the within-bucket finality argument), or a distance so far beyond
// delta that the bucket index would overflow, all make the run bail and
// transparently recompute via Run — results are correct either way, and
// BucketBailed reports the fallback so adaptive callers can stop paying
// for doomed attempts.
//
// Results are read with Dist/Via/ViaLen/Reached exactly as after Run and
// the early-exit contract is identical. When shortest paths are unique the
// tree is bit-identical to the heap path's.
func (d *DijkstraScratch) RunBucketed(src int, length []float64, targets []int32, delta float64) {
	w := getWorkspace()
	if d.runBucketed(w, src, length, targets, delta) {
		// Partial results from the abandoned attempt carry the current
		// epoch; run advances the epoch, so they are invisible to it and
		// the rerun is a clean from-scratch computation with identical
		// semantics.
		d.run(w, src, length, targets)
	}
	putWorkspace(w)
}

// runBucketed is RunBucketed's traversal; it reports whether the run
// bailed and must be redone by the heap.
func (d *DijkstraScratch) runBucketed(w *workspace, src int, length []float64, targets []int32, delta float64) (bailed bool) {
	d.bqRebases = 0
	d.bqBailed = !(delta > 0)
	if d.bqBailed {
		return true
	}
	// Any relaxation reaching this distance would produce a bucket index
	// near int64 overflow; treat it as a bail condition below.
	limit := delta * float64(bqMaxIdx)
	e := d.nextEpoch()
	c := d.g.csrView()
	// Early-exit bookkeeping differs from the heap path: within a bucket,
	// entries pop in arbitrary order and — when an arc shorter than delta
	// sneaks in — a popped node can still improve while its bucket drains.
	// A target therefore counts as settled only once cur has advanced PAST
	// its bucket: every later entry has distance ≥ cur·delta, which
	// exceeds anything in earlier buckets, so no future relaxation can
	// improve it. That keeps early exit exact for any positive delta.
	pending := w.bqPending[:0]
	for _, t := range targets {
		if d.tmark[t] != e {
			d.tmark[t] = e
			pending = append(pending, t)
		}
	}
	earlyExit := len(pending) > 0
	if w.bqSlots == nil {
		w.bqSlots = make([][]item, bqWindow)
	}
	slots, over := w.bqSlots, w.bqOver[:0]
	d.dist[src] = 0
	d.via[src] = -1
	d.vlen[src] = 0
	d.stamp[src] = e
	// cur is the bucket index being drained; the resident window covers the
	// fixed range [winEnd-bqWindow, winEnd). Entries in bucket ≥ winEnd wait
	// in the overflow list; keeping the boundary FIXED until the window runs
	// dry (rather than sliding it with cur) guarantees every overflow entry
	// sorts strictly after every resident entry, so buckets are still
	// processed in increasing order. Relaxations from bucket cur land in
	// bucket ≥ cur (delta ≤ every arc length), so slots behind cur are empty
	// and the idx&mask slot addressing never collides within the window.
	cur := int64(0)
	winEnd := int64(bqWindow)
	slots[0] = append(slots[0][:0], item{node: int32(src), d: 0})
	windowLive := 1
	broke := false
	// settle drops every pending target whose distance now lies in a
	// bucket strictly before cur; returns true when none remain.
	settle := func() bool {
		w := 0
		for _, tn := range pending {
			if d.stamp[tn] == e && int64(d.dist[tn]/delta) < cur {
				d.tmark[tn] = 0
				continue
			}
			pending[w] = tn
			w++
		}
		pending = pending[:w]
		return w == 0
	}
	for windowLive > 0 || len(over) > 0 {
		if windowLive == 0 {
			// The window ran dry but overflow entries remain: rebase the
			// window onto the smallest overflow bucket and redistribute.
			d.bqRebases++
			minIdx, w := int64(math.MaxInt64), 0
			for _, it := range over {
				if it.d > d.dist[it.node] {
					continue // stale entry; the node improved since the push
				}
				over[w] = it
				w++
				if idx := int64(it.d / delta); idx < minIdx {
					minIdx = idx
				}
			}
			over = over[:w]
			if w == 0 {
				break
			}
			cur, winEnd = minIdx, minIdx+bqWindow
			if earlyExit && settle() {
				broke = true
				break
			}
			w = 0
			for _, it := range over {
				if idx := int64(it.d / delta); idx < winEnd {
					slots[idx&(bqWindow-1)] = append(slots[idx&(bqWindow-1)], it)
					windowLive++
				} else {
					over[w] = it
					w++
				}
			}
			over = over[:w]
			continue
		}
		s := &slots[cur&(bqWindow-1)]
		if len(*s) == 0 {
			cur++
			if earlyExit && settle() {
				broke = true
				break
			}
			continue
		}
		it := (*s)[len(*s)-1]
		*s = (*s)[:len(*s)-1]
		windowLive--
		if it.d > d.dist[it.node] {
			continue // stale entry; the node settled at a smaller distance
		}
		for k, end := c.start[it.node], c.start[it.node+1]; k < end; k++ {
			v := c.to[k]
			a := c.arc[k]
			l := length[a]
			nd := it.d + l
			if l < delta || nd >= limit {
				// An arc shorter than the bucket width (ordering argument
				// void) or a distance near index overflow: this traversal
				// cannot finish safely — hand the whole run to the heap.
				bailed = true
				break
			}
			if d.stamp[v] != e || nd < d.dist[v] {
				d.dist[v] = nd
				d.via[v] = a
				d.vlen[v] = l
				d.stamp[v] = e
				if idx := int64(nd / delta); idx < winEnd {
					slots[idx&(bqWindow-1)] = append(slots[idx&(bqWindow-1)], item{node: v, d: nd})
					windowLive++
				} else {
					over = append(over, item{node: v, d: nd})
				}
			}
		}
		if bailed {
			break
		}
	}
	if broke || bailed {
		// The break abandons queued entries; empty every slot so the
		// workspace goes back to the pool with a clean window.
		for i := range slots {
			slots[i] = slots[i][:0]
		}
	}
	w.bqOver = over[:0]
	w.bqPending = pending[:0]
	d.bqBailed = bailed
	return bailed
}

// BucketRebases reports how many overflow redistributions the last
// RunBucketed performed. Rebases are the bucket queue's failure mode — a
// wide distance range relative to delta makes the window thrash — so
// adaptive callers (internal/mcf) treat a persistently high count as the
// signal to fall back to the heap.
func (d *DijkstraScratch) BucketRebases() int { return d.bqRebases }

// BucketBailed reports whether the last RunBucketed abandoned the bucket
// traversal (invalid delta, an arc shorter than delta, or a distance near
// bucket-index overflow) and recomputed via Run. The results are correct
// either way; adaptive callers use the flag to stop requesting bucket
// runs the input keeps rejecting.
func (d *DijkstraScratch) BucketBailed() bool { return d.bqBailed }
