// Command flowsolve computes the maximum concurrent flow throughput of a
// topology under a chosen traffic matrix.
//
// Usage:
//
//	topogen -kind rrg -n 40 -r 10 -servers 200 -format json > g.json
//	flowsolve -graph g.json -tm permutation [-eps 0.05] [-seed 1] [-detail] [-verify]
//
// Traffic matrices: permutation | all-to-all | chunky:<fraction>.
// With -detail, per-link-class utilization and the §6.1 decomposition are
// printed alongside the throughput. With -verify, the solve records its
// path decomposition and the internal/flowcheck verifier replays
// conservation, capacity, demand proportionality, and the primal-dual
// ε-gap from first principles, printing the report (non-zero exit on
// failure).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/flowcheck"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/routing"
	"repro/internal/store"
	"repro/internal/traffic"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "path to a JSON graph (from topogen -format json)")
		tmName    = flag.String("tm", "permutation", "traffic matrix: permutation|all-to-all|chunky:<frac>")
		eps       = flag.Float64("eps", 0.05, "solver epsilon")
		seed      = flag.Int64("seed", 1, "RNG seed for the traffic matrix")
		detail    = flag.Bool("detail", false, "print decomposition and per-class utilization")
		lpOut     = flag.String("lp", "", "also write the CPLEX LP file for this instance (TopoBench parity)")
		ecmp      = flag.Bool("ecmp", false, "also report static ECMP-over-shortest-paths throughput")
		verify    = flag.Bool("verify", false, "independently verify the flow (conservation, capacity, demand, ε-gap) and print the report")
		cacheDir  = flag.String("cache-dir", "", "memoize throughputs in a persistent result store keyed on (graph bytes, tm, eps, seed)")
	)
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Open the store before any heavy work: an unusable cache dir is a
	// clean non-zero exit, not a panic mid-solve.
	var st *store.Store
	if *cacheDir != "" {
		var err error
		st, err = store.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
	}
	data, err := os.ReadFile(*graphPath)
	if err != nil {
		fatal(err)
	}
	var g graph.Graph
	if err := json.Unmarshal(data, &g); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *graphPath, err))
	}
	if g.TotalServers() == 0 {
		fatal(fmt.Errorf("graph has no servers attached; traffic would be empty"))
	}

	rng := rand.New(rand.NewSource(*seed))
	h := traffic.HostsOf(&g)
	var tm *traffic.Matrix
	switch {
	case *tmName == "permutation":
		tm = traffic.Permutation(rng, h)
	case *tmName == "all-to-all":
		tm = traffic.AllToAll(h)
	case strings.HasPrefix(*tmName, "chunky:"):
		frac, err := strconv.ParseFloat(strings.TrimPrefix(*tmName, "chunky:"), 64)
		if err != nil {
			fatal(fmt.Errorf("bad chunky fraction: %w", err))
		}
		tm, err = traffic.Chunky(rng, h, frac)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown traffic matrix %q", *tmName))
	}

	if *lpOut != "" {
		f, err := os.Create(*lpOut)
		if err != nil {
			fatal(err)
		}
		if err := mcf.WriteLP(f, &g, tm.Flows); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("lp written:   %s\n", *lpOut)
	}

	// The solve is a pure function of (graph bytes, traffic name, eps,
	// seed); with -cache-dir that content address memoizes the throughput
	// across processes. Modes needing the full result object still solve.
	var cacheKey string
	if st != nil {
		cacheKey = fmt.Sprintf("flowsolve|graph=%x|tm=%s|eps=%g|seed=%d",
			sha256.Sum256(data), *tmName, *eps, *seed)
		if !*detail && !*verify && !*ecmp {
			if vals, ok := st.Load(cacheKey); ok && len(vals) == 1 {
				fmt.Printf("throughput:   %.5f per unit demand (cached)\n", vals[0])
				fmt.Printf("commodities:  %d (%d server flows, %d colocated)\n",
					len(tm.Flows), tm.ServerFlows, tm.Colocated)
				return
			}
		}
	}

	res, err := mcf.Solve(&g, tm.Flows, mcf.Options{Epsilon: *eps, RecordPaths: *verify})
	if err != nil {
		fatal(err)
	}
	if st != nil {
		if err := st.Save(cacheKey, []float64{res.Throughput}); err != nil {
			fmt.Fprintln(os.Stderr, "flowsolve: cache save:", err)
		}
	}
	fmt.Printf("throughput:   %.5f per unit demand\n", res.Throughput)
	fmt.Printf("commodities:  %d (%d server flows, %d colocated)\n",
		len(tm.Flows), tm.ServerFlows, tm.Colocated)
	fmt.Printf("phases:       %d (%d tree builds)\n", res.Phases, res.TreeBuilds)
	fmt.Printf("tree engine:  %d bucket-queue builds\n", res.BucketBuilds)
	if *verify {
		rep, err := flowcheck.Verify(&g, tm.Flows, res, flowcheck.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep)
		if !rep.OK() {
			fatal(rep.Err())
		}
	}
	if *ecmp {
		er, err := routing.ECMP(&g, tm.Flows)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ecmp:         %.5f per unit demand (%.1f%% of optimal, %.1f paths/flow)\n",
			er.Throughput, 100*er.Throughput/res.Throughput, er.PathsPerFlow)
	}
	if *detail {
		d := analysis.Decompose(&g, res)
		fmt.Printf("capacity:     %.0f\n", d.Capacity)
		fmt.Printf("utilization:  %.4f\n", d.Utilization)
		fmt.Printf("spl:          %.4f\n", d.SPL)
		fmt.Printf("stretch:      %.4f\n", d.Stretch)
		fmt.Println("per-class utilization:")
		cu := analysis.ClassUtilization(&g, res)
		for _, p := range analysis.ClassPairs(&g) {
			fmt.Printf("  class %s: %.4f\n", p, cu[p])
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flowsolve:", err)
	os.Exit(1)
}
