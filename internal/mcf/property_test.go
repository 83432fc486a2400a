// Property-based certification of the solver: every solve on randomized
// instances must pass the independent flowcheck verifier.
// The package is mcf_test so it can import flowcheck (which imports mcf).
package mcf_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/flowcheck"
	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/mcf"
	"repro/internal/rrg"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// randomDemands draws a randomized demand matrix: each commodity joins two
// distinct random switches with a demand in (0, maxD].
func randomDemands(rng *rand.Rand, n, count int, maxD float64) []traffic.Flow {
	var flows []traffic.Flow
	seen := map[[2]int]bool{}
	for len(flows) < count {
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d || seen[[2]int{s, d}] {
			continue
		}
		seen[[2]int{s, d}] = true
		flows = append(flows, traffic.Flow{Src: s, Dst: d, Demand: maxD * (0.1 + 0.9*rng.Float64())})
	}
	return flows
}

// certify solves the instance with path recording and demands a clean
// flowcheck report.
func certify(t *testing.T, g *graph.Graph, flows []traffic.Flow, eps float64, ctx string) {
	t.Helper()
	res, err := mcf.Solve(g, flows, mcf.Options{Epsilon: eps, RecordPaths: true})
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	rep, err := flowcheck.Verify(g, flows, res, flowcheck.Options{})
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if !rep.OK() {
		t.Fatalf("%s: verifier rejected the solve:\n%s", ctx, rep)
	}
}

// TestFlowcheckCertifiesRandomRRG: randomized regular random graphs under
// randomized demand matrices; every solve must verify.
func TestFlowcheckCertifiesRandomRRG(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		n := 12 + rng.Intn(30)
		r := 3 + rng.Intn(5)
		if r >= n {
			r = n - 1
		}
		if n*r%2 == 1 {
			r--
		}
		g, err := rrg.Regular(rng, n, r)
		if err != nil {
			t.Fatal(err)
		}
		flows := randomDemands(rng, n, 2+rng.Intn(3*n), 1+4*rng.Float64())
		eps := 0.05 + 0.1*rng.Float64()
		certify(t, g, flows, eps, fmt.Sprintf("rrg trial %d (n=%d r=%d)", trial, n, r))
	}
}

// TestFlowcheckCertifiesFatTree: the Clos baseline with permutation and
// randomized demands.
func TestFlowcheckCertifiesFatTree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.Permutation(rng, traffic.HostsOf(g))
	certify(t, g, tm.Flows, 0.08, "fat-tree permutation")
	flows := randomDemands(rng, g.N(), 40, 2)
	certify(t, g, flows, 0.1, "fat-tree random demands")
}

// TestFlowcheckCertifiesAllToAll: the potential-rule exit regime. Dense
// all-to-all demand ends the solve on Σ lens·caps ≥ 1 rather than the
// early certificate, where only the classical 3ε guarantee (against the
// best-phase dual witness) holds — the regime that forced DualLens to be
// the argmin-phase snapshot instead of the final lengths.
func TestFlowcheckCertifiesAllToAll(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g, err := rrg.Regular(rng, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		g.SetServers(u, 2)
	}
	tm := traffic.AllToAll(traffic.HostsOf(g))
	certify(t, g, tm.Flows, 0.1, "all-to-all")
}

// TestFlowcheckCertifiesHeavyDemand: demand far above bottleneck capacity,
// so each phase routes many pieces and trees go stale mid-phase, must stay
// certified. Besides a random RRG with random heavy demands, this covers
// the paper's heterogeneous networks under permutation traffic: mixed
// switch sizes with servers packed onto the large switches (ratio 1.5),
// once with uniform line speeds and once with a 10× high-speed mesh among
// the large switches.
func TestFlowcheckCertifiesHeavyDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, err := rrg.Regular(rng, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	certify(t, g, randomDemands(rng, 60, 8, 30), 0.1, "heavy-demand rrg")

	base := hetero.Config{NumLarge: 10, NumSmall: 20, PortsLarge: 20, PortsSmall: 8,
		Servers: 160, ServerRatio: 1.5}
	mixed := base
	mixed.HighLinksPerLarge, mixed.HighCap = 3, 10
	for _, c := range []struct {
		name string
		cfg  hetero.Config
	}{{"hetero ratio=1.5", base}, {"hetero ratio=1.5 10x mesh", mixed}} {
		rng := rand.New(rand.NewSource(5))
		g, err := hetero.Build(rng, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tm := traffic.Permutation(rng, traffic.HostsOf(g))
		certify(t, g, tm.Flows, 0.1, c.name)
	}
}
