package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/trace"
)

// benchRoot names the root span the benchmark opens around each call
// into the engine; its self time is the harness's own.
const benchRoot = "bench.point"

// layerSpans are the span names the program records at its layer
// boundaries: scenario (point, run, warm.*, tier.memory), mcf
// (mcf.solve), flowcheck (warm.certify), store (tier.store, tier.disk,
// claim.wait), remotestore (tier.peer) and service (resp.cache,
// flight.*). Coverage counts the union of these spans.
var layerSpans = map[string]bool{
	"point":            true,
	"run":              true,
	"warm.prepare":     true,
	"warm.materialize": true,
	"tier.memory":      true,
	"mcf.solve":        true,
	"warm.certify":     true,
	"tier.store":       true,
	"tier.disk":        true,
	"claim.wait":       true,
	"tier.peer":        true,
	"resp.cache":       true,
	"flight.attach":    true,
	"flight.lead":      true,
}

// interval is a span's extent in absolute microseconds.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by ivs.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// spanStats aggregates the spans of a set of traces.
type spanStats struct {
	// total and self are summed durations in seconds by span name; a
	// span's self time is its duration minus the part its children cover.
	total, self map[string]float64
	// topPoint sums the point spans, leaving out parents materialized
	// inside another point.
	topPoint float64
	// mcf sums the solver's per-solve telemetry attributes.
	mcf map[string]float64
	// warmSolve and coldSolve are solve-span durations by seeding.
	warmSolve, coldSolve []float64
	// covered is the union of layer spans, in seconds.
	covered float64
	dropped int
	traces  int
}

func analyzeTraces(trs []trace.TraceJSON) spanStats {
	st := spanStats{total: map[string]float64{}, self: map[string]float64{}, mcf: map[string]float64{}}
	var layer []interval
	for _, tr := range trs {
		st.traces++
		st.dropped += tr.Dropped
		base := tr.Start.UnixMicro()
		byID := map[string]interval{}
		children := map[string][]interval{}
		names := map[string]string{}
		for _, sp := range tr.Spans {
			iv := interval{base + sp.StartUS, base + sp.StartUS + sp.DurationUS}
			byID[sp.SpanID] = iv
			names[sp.SpanID] = sp.Name
			if sp.Parent != "" {
				children[sp.Parent] = append(children[sp.Parent], iv)
			}
			if layerSpans[sp.Name] {
				layer = append(layer, iv)
			}
		}
		for _, sp := range tr.Spans {
			iv := byID[sp.SpanID]
			d := float64(sp.DurationUS) / 1e6
			st.total[sp.Name] += d
			var clipped []interval
			for _, c := range children[sp.SpanID] {
				c.lo, c.hi = max(c.lo, iv.lo), min(c.hi, iv.hi)
				if c.hi > c.lo {
					clipped = append(clipped, c)
				}
			}
			st.self[sp.Name] += d - float64(unionLen(clipped))/1e6
			switch sp.Name {
			case "point":
				if names[sp.Parent] != "warm.materialize" {
					st.topPoint += d
				}
			case "mcf.solve":
				for _, k := range []string{"phases", "prebuild_ns", "route_ns", "tree_builds", "tree_repairs", "tree_prebuilds", "bucket_builds"} {
					st.mcf[k] += attrNum(sp.Attrs[k])
				}
				switch sp.Attrs["seed"] {
				case "warm":
					st.warmSolve = append(st.warmSolve, d)
				case "cold":
					st.coldSolve = append(st.coldSolve, d)
				}
			}
		}
	}
	st.covered = float64(unionLen(layer)) / 1e6
	return st
}

// attrNum reads a numeric span attribute as the snapshot's JSON-ready
// map holds it.
func attrNum(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case int:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// setSpanMetrics fills the span-derived per-layer metrics, each divided
// by per (the number of passes the traces cover).
func setSpanMetrics(m map[string]float64, st spanStats, per float64) {
	m["mcf.solve_s"] = st.total["mcf.solve"] / per
	m["mcf.prebuild_s"] = st.mcf["prebuild_ns"] / 1e9 / per
	m["mcf.route_s"] = st.mcf["route_ns"] / 1e9 / per
	m["mcf.phases"] = st.mcf["phases"] / per
	m["mcf.tree_builds"] = st.mcf["tree_builds"] / per
	m["mcf.bucket_builds"] = st.mcf["bucket_builds"] / per
	m["mcf.tree_repairs"] = st.mcf["tree_repairs"] / per
	m["mcf.tree_prebuilds"] = st.mcf["tree_prebuilds"] / per
	if refresh := st.mcf["tree_builds"] + st.mcf["tree_repairs"]; refresh > 0 {
		m["graph.tree_build_us"] = (st.mcf["prebuild_ns"] + st.mcf["route_ns"]) / 1e3 / refresh
	}
	if len(st.warmSolve) > 0 && len(st.coldSolve) > 0 {
		m["mcf.warm_cold_solve_ratio"] = mean(st.warmSolve) / mean(st.coldSolve)
	}
	m["scenario.point_s"] = st.topPoint / per
	m["scenario.run_self_s"] = st.self["run"] / per
	// warm.prepare includes waiting for the parent's materialization.
	m["scenario.warm_prepare_s"] = st.total["warm.prepare"] / per
	m["flowcheck.certify_s"] = st.total["warm.certify"] / per
	// A plain disk store behind the cache is read under tier.store with
	// no child span; behind store.Tiered the disk read is tier.disk.
	m["store.read_s"] = (st.total["tier.disk"] + st.self["tier.store"]) / per
	m["remotestore.read_s"] = st.total["tier.peer"] / per
}

// runtimeDelta is the Go runtime's GC and allocation cost over an
// interval.
type runtimeDelta struct {
	gcCPU, busyCPU, allocBytes float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeDelta{gcCPU: val(0), busyCPU: val(1) - val(2), allocBytes: val(3)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.gcCPU - b.gcCPU, a.busyCPU - b.busyCPU, a.allocBytes - b.allocBytes}
}

func (a runtimeDelta) add(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.gcCPU + b.gcCPU, a.busyCPU + b.busyCPU, a.allocBytes + b.allocBytes}
}

// setRuntimeMetrics fills the runtime metrics from a delta covering per
// passes.
func setRuntimeMetrics(m map[string]float64, d runtimeDelta, per float64) {
	if d.busyCPU > 0 {
		m["runtime.gc_cpu_frac"] = d.gcCPU / d.busyCPU
	}
	m["runtime.alloc_mb"] = d.allocBytes / (1 << 20) / per
}

// layers fills a batch run's per-layer metrics: span-derived ones from
// the traced passes, counters and CPU from the untraced ones.
func (b batchWorkload) layers(res *result, passes []*batchPass) error {
	var traces []trace.TraceJSON
	var traced, plain []*batchPass
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
			traces = append(traces, p.traces...)
		} else {
			plain = append(plain, p)
		}
	}
	st := analyzeTraces(traces)
	if st.dropped > 0 {
		return fmt.Errorf("%s: traced passes dropped %d spans", b.name, st.dropped)
	}
	if st.traces != len(traced)*len(passes[0].vals) {
		return fmt.Errorf("%s: %d traces for %d traced points", b.name, st.traces, len(traced)*len(passes[0].vals))
	}
	m := res.Metrics
	setSpanMetrics(m, st, float64(len(traced)))
	var window time.Duration
	for _, p := range traced {
		window += p.wall
	}
	// Passes come in (untraced, traced) pairs on one instance.
	var overhead []float64
	for k := 1; k < len(passes); k += 2 {
		overhead = append(overhead, passes[k].wall.Seconds()/passes[k-1].wall.Seconds()-1)
	}
	var rt runtimeDelta
	var util []float64
	for _, p := range plain {
		rt = rt.add(p.rt)
		util = append(util, p.cpu.Seconds()/(p.wall.Seconds()*float64(gomaxprocs())))
	}
	m["bench.span_coverage_frac"] = st.covered / window.Seconds()
	m["bench.trace_overhead_frac"] = median(overhead)
	m["runner.cpu_util"] = median(util)
	setRuntimeMetrics(m, rt, float64(len(plain)))
	last := plain[len(plain)-1]
	m["scenario.warm_starts"] = float64(last.warm.Starts)
	m["scenario.warm_fallbacks"] = float64(last.warm.Fallbacks)
	m["scenario.parent_misses"] = float64(last.warm.ParentMisses)
	m["store.hits"] = float64(last.store.Hits)
	m["store.writes"] = float64(last.store.Writes)
	m["store.parent_links"] = float64(last.store.ParentLinks)
	return nil
}
