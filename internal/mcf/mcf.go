// Package mcf computes the paper's throughput metric: the maximum
// concurrent multi-commodity flow (the largest λ such that every commodity
// j can ship λ·demand_j simultaneously without exceeding any link
// capacity). This is the "maximize the minimum flow" LP of §3, which the
// paper solves with CPLEX.
//
// Substitution: instead of an LP solver we use the Garg–Könemann
// fully-polynomial approximation scheme with Fleischer-style source
// batching. The returned throughput is certified feasible — the final flow
// is explicitly scaled by its maximum congestion, so Result.Throughput is
// always achievable — and is within the configured ε of the LP optimum
// (validated against closed-form optima in the tests).
package mcf

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// Options configures the solver.
type Options struct {
	// Epsilon is the approximation parameter; smaller is more accurate and
	// slower. Values in [0.02, 0.2] are sensible; 0 means DefaultEpsilon.
	Epsilon float64
	// MaxPhases caps the number of Garg–Könemann phases as a safety valve.
	// 0 means no explicit cap (the length-function stopping rule applies).
	MaxPhases int
	// RecordPaths keeps the per-piece path decomposition of the routed flow
	// in Result.Paths (congestion-scaled, like ArcFlow), so an external
	// verifier such as internal/flowcheck can replay conservation, capacity,
	// and demand proportionality from first principles. Off by default: the
	// decomposition can hold one entry per routed piece.
	RecordPaths bool
	// Cancel, when non-nil, aborts the solve at the next phase boundary
	// once the channel is closed (typically a context's Done channel):
	// Solve then returns ErrCanceled and whatever partial work was done is
	// discarded. Phase boundaries are the only check points, so a
	// completed solve is byte-identical whether or not a Cancel channel
	// was attached — cancellation can abort results, never change them.
	// The evaluation service wires a dropped client's request context
	// here, so an abandoned grid stops burning CPU within one phase.
	Cancel <-chan struct{}
	// DisableBucket forces every tree construction onto the 4-ary heap
	// Dijkstra instead of letting the solver pick the bucket-queue
	// traversal when the phase's length spread favors it. The trajectory
	// is unaffected either way (both traversals produce identical trees
	// when shortest paths are unique); the knob is the kill switch for
	// workloads where the adaptive heuristic misjudges.
	DisableBucket bool
	// WarmLens, when it holds one entry per arc, warm-starts the solve
	// from a parent solve's exported witness: entries > 0 seed the initial
	// Garg–Könemann length function with the parent's (mapped) DualLens,
	// entries ≤ 0 (or non-finite) mark arcs with no parent information and
	// receive an average-utilization prior. All seed lengths are rescaled
	// so the starting potential Σ l·cap equals the cold start's m·δ —
	// the parent's congestion SHAPE carries over, the termination
	// accounting is untouched. Weak duality holds for any non-negative
	// lengths, so the per-phase dual bound and the early-stop certificate
	// remain valid; only the worst-case phase-count analysis assumed the
	// uniform start, which is why callers MUST re-certify warm-started
	// results (internal/flowcheck) and fall back to a cold solve on
	// failure rather than trust the (1+ε) guarantee. A WarmLens of the
	// wrong length, or one with no usable entry, is ignored: the solve
	// runs cold and Result.WarmStarted stays false.
	WarmLens []float64
}

// DefaultEpsilon is used when Options.Epsilon is zero.
const DefaultEpsilon = 0.08

// ErrUnreachable is returned when some commodity's endpoints are not
// connected, so no positive concurrent throughput exists.
var ErrUnreachable = errors.New("mcf: commodity endpoints disconnected")

// ErrCanceled is returned when Options.Cancel fired before the solve
// converged; no partial result is produced.
var ErrCanceled = errors.New("mcf: solve canceled")

// Result reports the solved flow and the decomposition metrics of §6.1.
type Result struct {
	// Throughput is λ: every commodity can ship λ·demand concurrently.
	Throughput float64
	// ArcFlow is the certified-feasible per-arc flow (indexed like
	// graph arc indices), after congestion scaling.
	ArcFlow []float64
	// ArcUtil is ArcFlow[a]/cap(a) per arc, in [0, 1].
	ArcUtil []float64
	// Utilization is total flow volume over total capacity — the paper's U.
	Utilization float64
	// FlowPathLen is the average hop length of routed flow, weighted by
	// flow volume.
	FlowPathLen float64
	// DemandSPL is the demand-weighted average shortest path length
	// between commodity endpoints.
	DemandSPL float64
	// Stretch is FlowPathLen/DemandSPL — the paper's AS (≥ 1).
	Stretch float64
	// Phases is the number of completed Garg–Könemann phases.
	Phases int
	// TreeBuilds counts shortest-path tree constructions.
	TreeBuilds int
	// BucketBuilds counts the tree constructions served by the monotone
	// bucket-queue traversal; the remaining TreeBuilds used the 4-ary
	// heap. The solver picks per phase from the length spread and falls
	// back to the heap when bucket rebases keep losing.
	BucketBuilds int
	// Epsilon is the effective approximation parameter of the solve.
	Epsilon float64
	// DualLens is the Garg–Könemann length function of the phase whose
	// dual bound was smallest, exported as a witness: for any non-negative
	// arc lengths l, the optimum λ* satisfies
	// λ* ≤ Σ_a l_a·cap_a / Σ_j demand_j·dist_l(s_j,t_j), so a verifier can
	// certify the ε-optimality gap with one independent Dijkstra per
	// source (see internal/flowcheck). The best phase is exported rather
	// than the last because solves that end on the potential rule keep
	// inflating lengths after the dual bound has bottomed out, making the
	// final lengths a much looser witness.
	DualLens []float64
	// WarmStarted reports that the solve's length function was seeded from
	// Options.WarmLens rather than the uniform cold start. A warm-started
	// result is still certified feasible (congestion scaling), but its
	// ε-optimality must be re-certified externally — see Options.WarmLens.
	WarmStarted bool
	// Paths is the congestion-scaled path decomposition of ArcFlow, present
	// only when Options.RecordPaths was set. Summing Flow over the paths of
	// commodity j gives j's delivered volume (≥ Throughput·demand_j);
	// summing over paths crossing an arc reconstructs ArcFlow.
	Paths []PathFlow
	// Timing is the solve's wall-clock telemetry for observability
	// (routing vs. whole solve). Unlike every other Result field it is
	// inherently NON-deterministic; determinism tests must zero it before
	// comparing Results with reflect.DeepEqual.
	Timing SolveTiming
}

// SolveTiming is the wall-clock breakdown of one solve. It feeds the
// tracing layer's solver-phase spans (internal/trace via the scenario
// evaluators); nothing in the solver reads it back.
type SolveTiming struct {
	// RouteNanos is the time spent in the per-phase routing loops,
	// including the tree refreshes routing triggers.
	RouteNanos int64
	// SolveNanos is the whole solve's wall clock, from state
	// construction through result extraction.
	SolveNanos int64
}

// PathFlow is one path of the flow decomposition: Flow units of commodity
// Commodity routed along the directed arcs Arcs (source to destination).
type PathFlow struct {
	Commodity int
	Arcs      []int32
	Flow      float64
}

// Solve computes the maximum concurrent flow for the commodities in flows
// on graph g.
func Solve(g *graph.Graph, flows []traffic.Flow, opt Options) (*Result, error) {
	eps := opt.Epsilon
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	if eps >= 0.5 {
		return nil, fmt.Errorf("mcf: epsilon %v too large", eps)
	}
	if len(flows) == 0 {
		return &Result{Throughput: math.Inf(1), Stretch: 1}, nil
	}
	for _, f := range flows {
		if f.Src == f.Dst || f.Demand <= 0 {
			return nil, fmt.Errorf("mcf: invalid commodity %+v", f)
		}
	}

	s := newState(g, flows, eps, opt)
	if err := s.checkReachability(); err != nil {
		return nil, err
	}
	maxPhases := opt.MaxPhases
	if maxPhases <= 0 {
		maxPhases = math.MaxInt32
	}
	// The classical Garg–Könemann potential rule (Σ lens·caps ≥ 1) bounds
	// the phase count in the worst case, but in practice the primal-dual
	// gap closes much earlier. Each phase costs O(m) extra to certify: the
	// phase's tree builds yield α(l) = Σ_j demand_j·dist_l(s_j, t_j) under
	// length functions ≤ the end-of-phase lengths, so λ* ≤ lenCapSum/α is a
	// valid dual bound, and the scaled primal minRatio/χ is feasible. Stop
	// at whichever certificate fires first. The gap target 1.5ε matches the
	// accuracy the potential rule actually delivers on this workload family
	// (measured ≈ 1.2ε at ε = 0.1), so the early stop does not change the
	// solver's effective quality class, only its phase count.
	for s.lenCapSum < 1 && s.phases < maxPhases {
		if opt.Cancel != nil {
			select {
			case <-opt.Cancel:
				return nil, ErrCanceled
			default:
			}
		}
		s.runPhase()
		if s.alpha > 0 {
			// Track the best dual bound seen and snapshot its length
			// function as the optimality witness for the verifier.
			if bound := s.lenCapSum / s.alpha; bound < s.bestBound {
				s.bestBound = bound
				if s.bestLens == nil {
					s.bestLens = make([]float64, s.m)
				}
				copy(s.bestLens, s.lens)
			}
			// Gap target for the early stop. Cold solves compare against the
			// CURRENT phase's bound with a 1.5ε gap — preserved exactly, so
			// cold output stays byte-identical. Warm-seeded solves compare
			// against the best bound seen, at the FULL certification gap 3ε:
			// the parent's witness makes bestBound usable from phase one (a
			// cold solve only earns a bound near the end), which is where
			// the delta-evaluation speedup comes from — but a witness mapped
			// across a topology delta is looser than a native one, so
			// insisting on 1.5ε against it would burn the saved phases back.
			// bestBound is a valid dual bound for ANY nonnegative length
			// function, its argmin is exactly the witness exported in
			// Result.DualLens, and flowcheck certifies warm results against
			// that witness at its default tolerance 3ε — so every warm stop
			// is re-certified in exactly the class it targeted, and one that
			// somehow missed it falls back to a cold solve upstream.
			target := s.lenCapSum / s.alpha
			gap := 1.5 * eps
			if s.warm {
				target, gap = s.bestBound, 3*eps
			}
			if s.primal() >= (1-gap)*target {
				break
			}
		}
	}
	return s.result(), nil
}

// state holds the working data of one solve.
type state struct {
	g     *graph.Graph
	eps   float64
	m     int       // arc count
	caps  []float64 // per-arc capacity
	lens  []float64 // GK length function
	flow  []float64 // raw accumulated per-arc flow
	bySrc map[int][]int
	srcs  []int // sorted keys of bySrc, for deterministic iteration
	flows []traffic.Flow
	// routed[j] is the total demand routed so far for commodity j.
	routed []float64
	// volume-weighted path length accumulator.
	volLen, vol float64
	phases      int
	// alpha is the dual normalizer of the just-finished phase:
	// Σ_j demand_j · dist(s_j, t_j) with each distance measured under a
	// length function pointwise ≤ the end-of-phase lengths, making
	// lenCapSum/alpha a valid upper bound on the optimum λ*.
	alpha float64

	// lenCapSum is Σ lens[a]·caps[a], the Garg–Könemann potential that ends
	// the solve once it reaches 1. It is maintained incrementally (O(1) per
	// arc update) instead of rescanning all m arcs every phase.
	lenCapSum float64
	// perSrc holds one persistent shortest-path tree per distinct source.
	// Trees survive across phases: lengths only grow, so a tree path stays
	// usable until its total length exceeds (1+ε) of its at-build total,
	// regardless of when the tree was built. When the per-source footprint
	// would be too large, perSrc is nil and the shared tree is rebuilt per
	// source batch instead.
	perSrc    map[int]*srcTree
	shared    *srcTree
	pathBuf   []int32
	viaLenBuf []float64 // ViaLen of each pathBuf arc (see walkPath)
	targetBuf []int32

	// bestBound/bestLens track the smallest per-phase dual bound and its
	// length snapshot — the ε-optimality witness exported on Result.
	bestBound float64
	bestLens  []float64

	// builds counts tree constructions (Result.TreeBuilds).
	builds int

	// Wall-clock telemetry for Result.Timing: startedAt stamps state
	// construction; routeNanos sums the phases' routing loops.
	startedAt  time.Time
	routeNanos int64

	// Per-phase traversal choice (see choosePhaseTraversal): phaseDelta is
	// the bucket width derived from the phase-start length function,
	// useBucket the phase's heap-vs-bucket decision, noBucket the sticky
	// off switch (Options.DisableBucket or the rebase kill switch).
	// bucketBuilds/bucketRebases track the bucket path's hit count and its
	// failure mode, which trips the kill switch.
	phaseDelta    float64
	useBucket     bool
	noBucket      bool
	bucketBuilds  int
	bucketRebases int

	// rec accumulates the path decomposition when Options.RecordPaths is on.
	rec []PathFlow
	// recordPaths mirrors Options.RecordPaths.
	recordPaths bool
	// warm records that the length function was seeded from
	// Options.WarmLens (exported as Result.WarmStarted).
	warm bool
}

// srcTree is a shortest-path tree rooted at one source. Its scratch keeps,
// beside each node's via arc, that arc's length when the tree last set it
// (DijkstraScratch.ViaLen). Summed along a tree path, ViaLen gives the
// path's at-build length, against which per-path staleness is measured.
type srcTree struct {
	scratch *graph.DijkstraScratch
	built   bool
}

// persistentTreeBudget caps the memory (in bytes, approximately) spent on
// per-source persistent trees before falling back to one shared tree.
const persistentTreeBudget = 1 << 28

func newState(g *graph.Graph, flows []traffic.Flow, eps float64, opt Options) *state {
	m := g.NumArcs()
	s := &state{
		g:           g,
		eps:         eps,
		m:           m,
		caps:        make([]float64, m),
		lens:        make([]float64, m),
		flow:        make([]float64, m),
		bySrc:       make(map[int][]int),
		flows:       flows,
		routed:      make([]float64, len(flows)),
		noBucket:    opt.DisableBucket,
		recordPaths: opt.RecordPaths,
		bestBound:   math.Inf(1),
		startedAt:   time.Now(),
	}
	delta := (1 + eps) * math.Pow((1+eps)*float64(m), -1/eps)
	for a := 0; a < m; a++ {
		s.caps[a] = g.Arc(a).Cap
	}
	if !s.seedWarm(opt.WarmLens, delta) {
		for a := 0; a < m; a++ {
			s.lens[a] = delta / s.caps[a]
			s.lenCapSum += delta
		}
	}
	for j, f := range flows {
		s.bySrc[f.Src] = append(s.bySrc[f.Src], j)
	}
	for src := range s.bySrc {
		s.srcs = append(s.srcs, src)
	}
	sort.Ints(s.srcs)
	// Footprint per persistent tree: the scratch's dist/vlen (8n each) and
	// via/stamp/tmark (4n each) arrays. The traversal working set (heap,
	// bucket window) is pooled per goroutine, not per tree.
	if len(s.srcs)*28*g.N() <= persistentTreeBudget {
		s.perSrc = make(map[int]*srcTree, len(s.srcs))
	} else {
		s.shared = &srcTree{scratch: g.NewDijkstraScratch()}
	}
	return s
}

// seedWarm initializes the length function from a parent solve's witness
// (see Options.WarmLens), reporting whether the warm start was taken.
// Mapped arcs (warm > 0, finite) keep the parent's length; unmapped arcs
// — links the parent graph did not have, or that the arc mapping could
// not match — get the mean l·cap of the mapped arcs divided by their own
// capacity, a neutral average-utilization prior. Everything is then
// rescaled so Σ l·cap = m·δ, the cold start's potential: the dual bound
// lenCapSum/α is scale-invariant, so the rescale preserves the witness's
// quality while the potential rule's termination accounting stays exactly
// as the cold analysis assumes. Every step is deterministic in the input
// bytes: identical WarmLens (bit for bit) yields identical seeds, hence
// byte-identical solves regardless of where the witness was loaded from.
func (s *state) seedWarm(warm []float64, delta float64) bool {
	if len(warm) != s.m {
		return false
	}
	usable := func(l float64) bool { return l > 0 && !math.IsInf(l, 1) && !math.IsNaN(l) }
	var sum float64
	mapped := 0
	for a, l := range warm {
		if usable(l) {
			sum += l * s.caps[a]
			mapped++
		}
	}
	if mapped == 0 || sum <= 0 || math.IsInf(sum, 1) || math.IsNaN(sum) {
		return false
	}
	fill := sum / float64(mapped)
	var tot float64
	for a := 0; a < s.m; a++ {
		lc := fill
		if l := warm[a]; usable(l) {
			lc = l * s.caps[a]
		}
		s.lens[a] = lc / s.caps[a]
		tot += lc
	}
	scale := float64(s.m) * delta / tot
	s.lenCapSum = 0
	for a := 0; a < s.m; a++ {
		s.lens[a] *= scale
		s.lenCapSum += s.lens[a] * s.caps[a]
	}
	s.warm = true
	return true
}

// treeFor returns the tree slot for src: the persistent per-source tree,
// or the shared slot (invalidated, since another source last used it).
func (s *state) treeFor(src int) *srcTree {
	if s.perSrc == nil {
		s.shared.built = false
		return s.shared
	}
	t := s.perSrc[src]
	if t == nil {
		t = &srcTree{scratch: s.g.NewDijkstraScratch()}
		s.perSrc[src] = t
	}
	return t
}

func (s *state) checkReachability() error {
	// One BFS per distinct source suffices.
	for _, src := range s.srcs {
		js := s.bySrc[src]
		dist := s.g.BFS(src)
		for _, j := range js {
			if dist[s.flows[j].Dst] < 0 {
				return fmt.Errorf("%w: %d -> %d", ErrUnreachable, src, s.flows[j].Dst)
			}
		}
	}
	return nil
}

// bucketRangeLimit bounds the length spread (max/min over positive arc
// lengths) under which the bucket-queue traversal is considered at all.
// Beyond it, bucket indices (distance/delta) can outgrow what the queue
// handles gracefully: the window thrashes and, in the extreme, the
// float→int64 bucket conversion itself would overflow. Garg–Könemann
// lengths start uniform up to capacity ratios and spread multiplicatively
// as phases route, so early and mid solve sit far below the limit.
const bucketRangeLimit = 1 << 16

// Deterministic bucket kill switch: once bucketMinRuns bucket traversals
// have executed and they averaged more than bucketRebaseBudget overflow
// rebases each, the length structure is hostile (distances spread far
// beyond the resident window) and the solver reverts to the heap for the
// rest of the solve.
const (
	bucketMinRuns      = 16
	bucketRebaseBudget = 4
)

// choosePhaseTraversal derives the phase's bucket width from the
// phase-start length function and decides heap vs bucket from the length
// spread. One O(m) scan per phase; every rebuild in the phase reuses the
// decision (lengths only grow, so phaseDelta stays a valid bucket width
// all phase).
func (s *state) choosePhaseTraversal() {
	if s.noBucket {
		s.useBucket = false
		return
	}
	minLen, maxLen := graph.LengthRange(s.lens)
	s.phaseDelta = minLen
	s.useBucket = minLen > 0 && maxLen <= bucketRangeLimit*minLen
}

// noteBucket folds one bucket-queue construction's rebase count into the
// solve and trips the kill switch when the bucket path keeps losing:
// persistent window rebases mean the length spread outgrew the resident
// window.
func (s *state) noteBucket(rebases int) {
	s.bucketBuilds++
	s.bucketRebases += rebases
	if s.bucketBuilds >= bucketMinRuns && s.bucketRebases > bucketRebaseBudget*s.bucketBuilds {
		s.noBucket = true
		s.useBucket = false
	}
}

// buildTree computes a fresh shortest-path tree for the source batch,
// exiting early once every destination of the batch is settled; the
// scratch's ViaLen records the lengths later routing detects staleness by.
func (s *state) buildTree(t *srcTree, src int, targets []int32) {
	if s.useBucket {
		t.scratch.RunBucketed(src, s.lens, targets, s.phaseDelta)
		if !t.scratch.BucketBailed() { // a bailed run was redone by the heap
			s.noteBucket(t.scratch.BucketRebases())
		}
	} else {
		t.scratch.Run(src, s.lens, targets)
	}
	t.built = true
	s.builds++
}

// runPhase routes each commodity's full demand once under the current
// length function. Commodities sharing a source share one Dijkstra tree
// (Fleischer-style batching), and trees persist across phases; a tree is
// recomputed only when the path a piece is about to use has grown stale —
// its total length under the current length function exceeds (1+ε) times
// its length when the tree was built. Until then the path is within (1+ε)
// of a current shortest path (lengths only increase), which is exactly the
// slack the Garg–Könemann analysis tolerates, so capacity-limited pieces
// whose updates moved the lengths only negligibly no longer force a fresh
// Dijkstra each, and sources whose neighborhoods are quiet skip the
// per-phase Dijkstra entirely. A tree is refreshed only here, when its
// source routes, so each refresh sees the current lengths.
func (s *state) runPhase() {
	s.choosePhaseTraversal()
	routeStart := time.Now()
	defer func() { s.routeNanos += time.Since(routeStart).Nanoseconds() }()
	onePlusEps := 1 + s.eps
	s.alpha = 0
	for _, src := range s.srcs {
		js := s.bySrc[src]
		targets := s.targetBuf[:0]
		for _, j := range js {
			targets = append(targets, int32(s.flows[j].Dst))
		}
		s.targetBuf = targets
		t := s.treeFor(src)
		if !t.built {
			s.buildTree(t, src, targets)
		}
		for _, j := range js {
			dst := s.flows[j].Dst
			remaining := s.flows[j].Demand
			// In shared-tree mode the slot is overwritten by the next
			// source, so the dual term must be taken from the tree the
			// first piece routes on; per-source mode defers to the fresher
			// phase-end trees below.
			firstPiece := s.perSrc == nil
			for remaining > 0 {
				path := s.walkPath(t, dst)
				if path != nil {
					var nowLen, buildLen float64
					for i, a := range path {
						nowLen += s.lens[a]
						buildLen += s.viaLenBuf[i]
					}
					if nowLen > onePlusEps*buildLen {
						path = nil // stale: force a rebuild
					}
				}
				if path == nil {
					s.buildTree(t, src, targets)
					path = s.walkPath(t, dst)
					if path == nil {
						// Should be impossible after checkReachability.
						break
					}
				}
				if firstPiece {
					s.alpha += s.flows[j].Demand * t.scratch.Dist(dst)
					firstPiece = false
				}
				bottleneck := math.Inf(1)
				for _, a := range path {
					if s.caps[a] < bottleneck {
						bottleneck = s.caps[a]
					}
				}
				u := math.Min(remaining, bottleneck)
				for _, a := range path {
					s.flow[a] += u
					old := s.lens[a]
					nl := old * (1 + s.eps*u/s.caps[a])
					s.lens[a] = nl
					s.lenCapSum += (nl - old) * s.caps[a]
				}
				if s.recordPaths {
					s.recordPiece(j, path, u)
				}
				s.routed[j] += u
				s.volLen += u * float64(len(path))
				s.vol += u
				remaining -= u
			}
		}
	}
	if s.perSrc != nil {
		// Dual normalizer from the phase-end trees: each source's newest
		// tree was built under lengths ≤ the end-of-phase lengths, so
		// Σ demand·dist is a valid α — and the freshest one available
		// without extra Dijkstras, which keeps the primal-dual certificate
		// as tight as possible.
		for _, src := range s.srcs {
			t := s.perSrc[src]
			for _, j := range s.bySrc[src] {
				s.alpha += s.flows[j].Demand * t.scratch.Dist(s.flows[j].Dst)
			}
		}
	}
	s.phases++
}

// recordPiece appends one routed piece to the decomposition, merging with
// the previous entry when the same commodity reused the same path (the
// common case when demand exceeds the bottleneck).
func (s *state) recordPiece(j int, path []int32, u float64) {
	if n := len(s.rec); n > 0 {
		last := &s.rec[n-1]
		if last.Commodity == j && int32SlicesEqual(last.Arcs, path) {
			last.Flow += u
			return
		}
	}
	s.rec = append(s.rec, PathFlow{Commodity: j, Arcs: append([]int32(nil), path...), Flow: u})
}

func int32SlicesEqual(a, b []int32) bool {
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

// walkPath returns the arc sequence from t's root to dst, or nil if dst
// was unreachable, and leaves each arc's at-build length (ViaLen) at the
// same index of s.viaLenBuf. Both are reusable buffers, valid until the
// next walkPath call.
func (s *state) walkPath(t *srcTree, dst int) []int32 {
	rev, lens := s.pathBuf[:0], s.viaLenBuf[:0]
	at := dst
	for {
		a := t.scratch.Via(at)
		if a < 0 {
			break
		}
		rev = append(rev, a)
		lens = append(lens, t.scratch.ViaLen(at))
		at = int(s.g.Arc(int(a)).From)
	}
	s.pathBuf, s.viaLenBuf = rev, lens
	if len(rev) == 0 {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
		lens[i], lens[j] = lens[j], lens[i]
	}
	return rev
}

// primal returns the certified-feasible throughput of the flow routed so
// far: the worst commodity's routed fraction, scaled down by the maximum
// congestion.
func (s *state) primal() float64 {
	var chi float64
	for a := 0; a < s.m; a++ {
		if c := s.flow[a] / s.caps[a]; c > chi {
			chi = c
		}
	}
	if chi == 0 {
		return 0
	}
	minRatio := math.Inf(1)
	for j := range s.flows {
		if r := s.routed[j] / s.flows[j].Demand; r < minRatio {
			minRatio = r
		}
	}
	return minRatio / chi
}

func (s *state) result() *Result {
	witness := s.bestLens
	if witness == nil {
		witness = s.lens
	}
	res := &Result{
		ArcFlow:      make([]float64, s.m),
		ArcUtil:      make([]float64, s.m),
		Phases:       s.phases,
		TreeBuilds:   s.builds,
		BucketBuilds: s.bucketBuilds,
		Epsilon:      s.eps,
		DualLens:     append([]float64(nil), witness...),
		WarmStarted:  s.warm,
		Timing: SolveTiming{
			RouteNanos: s.routeNanos,
			SolveNanos: time.Since(s.startedAt).Nanoseconds(),
		},
	}
	// Maximum congestion certifies feasibility after scaling.
	var chi float64
	for a := 0; a < s.m; a++ {
		if c := s.flow[a] / s.caps[a]; c > chi {
			chi = c
		}
	}
	if chi == 0 {
		return res
	}
	minRatio := math.Inf(1)
	for j := range s.flows {
		if r := s.routed[j] / s.flows[j].Demand; r < minRatio {
			minRatio = r
		}
	}
	res.Throughput = minRatio / chi
	if s.recordPaths {
		res.Paths = s.rec
		for i := range res.Paths {
			res.Paths[i].Flow /= chi
		}
	}
	var totalFlow, totalCap float64
	for a := 0; a < s.m; a++ {
		res.ArcFlow[a] = s.flow[a] / chi
		res.ArcUtil[a] = res.ArcFlow[a] / s.caps[a]
		totalFlow += res.ArcFlow[a]
		totalCap += s.caps[a]
	}
	res.Utilization = totalFlow / totalCap
	if s.vol > 0 {
		res.FlowPathLen = s.volLen / s.vol
	}
	// Demand-weighted shortest path length (hops).
	var dsum, dtot float64
	distCache := make(map[int][]int)
	for _, f := range s.flows {
		dist, ok := distCache[f.Src]
		if !ok {
			dist = s.g.BFS(f.Src)
			distCache[f.Src] = dist
		}
		dsum += float64(dist[f.Dst]) * f.Demand
		dtot += f.Demand
	}
	if dtot > 0 {
		res.DemandSPL = dsum / dtot
	}
	if res.DemandSPL > 0 {
		res.Stretch = res.FlowPathLen / res.DemandSPL
	}
	return res
}
