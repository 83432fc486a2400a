package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/scenario"
)

// referenceJSON holds the committed batch references:
// workload → grid seed → point key → per-run values. Instance i of a
// batch workload is its grid at grid seed i+1.
//
//go:embed reference.json
var referenceJSON []byte

type references map[string]map[string]map[string][]float64

func loadReferences() (references, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// epsClass reports whether v lies in the certified ε class of ref. Every
// certified solve (cold or warm-started) lands within a factor 1−3ε
// below the optimum and never above it, so two certified values of one
// instance differ by at most that factor either way.
func epsClass(v, ref, eps float64) bool {
	lo := 1 - 3*eps
	return v >= ref*lo-1e-12 && v*lo <= ref+1e-12
}

// checkValue returns why one run value of p is wrong, or "" when it is
// fine: it must be finite, an rrg value must not exceed the Theorem 1
// bound (normalized as the paper figures normalize it), and when a
// reference is given the value must lie in its certified ε class.
func checkValue(p scenario.Point, run int, v float64, ref []float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Sprintf("%s run %d: non-finite value %v", p.Key(), run, v)
	}
	if r, ok := p.Topo.(*scenario.RRG); ok {
		if _, perm := p.Traffic.(scenario.Permutation); perm {
			ub := bounds.ThroughputUpperBound(r.N, r.Deg, r.N*r.SPS)
			if v > ub*(1+1e-9) {
				return fmt.Sprintf("%s run %d: value %v exceeds the Theorem 1 bound %v", p.Key(), run, v, ub)
			}
		}
	}
	if ref != nil {
		if run >= len(ref) {
			return fmt.Sprintf("%s: reference has %d runs, need run %d", p.Key(), len(ref), run)
		}
		if !epsClass(v, ref[run], p.Epsilon) {
			return fmt.Sprintf("%s run %d: value %v outside the ε=%g class of reference %v", p.Key(), run, v, p.Epsilon, ref[run])
		}
	}
	return ""
}
