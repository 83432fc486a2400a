package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goTestOutput is canned `go test -bench -benchmem` output over two
// packages: GOMAXPROCS=2 names carry a -2 suffix, the second package ran
// at GOMAXPROCS=1 (no suffix), and the non-result lines around them must
// be skipped.
const goTestOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkSolverScale/n=80-2              	       2	  58169974 ns/op	  458832 B/op	    1338 allocs/op
BenchmarkSolverEpsilon/eps=0.05-2        	       1	  77932137 ns/op	  146224 B/op	     691 allocs/op
BenchmarkFig2a-2                         	       1	 919667472 ns/op	14007432 B/op	   34012 allocs/op
BenchmarkSolverWarmStart/ladder/cold
    bench_test.go:42: a benchmark's own log line
BenchmarkSolverWarmStart/ladder/cold-2   	       1	 108795512 ns/op	 1902728 B/op	    9686 allocs/op
PASS
ok  	repro	2.639s
goos: linux
goarch: amd64
pkg: repro/internal/service
BenchmarkServeEvalWarm   	    4185	      2717.5 ns/op	     336 B/op	       8 allocs/op
PASS
ok  	repro/internal/service	0.020s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(goTestOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Name: "SolverScale/n=80", Iterations: 2, NsPerOp: 58169974, BytesPerOp: 458832, AllocsPerOp: 1338},
		{Name: "SolverEpsilon/eps=0.05", Iterations: 1, NsPerOp: 77932137, BytesPerOp: 146224, AllocsPerOp: 691},
		{Name: "Fig2a", Iterations: 1, NsPerOp: 919667472, BytesPerOp: 14007432, AllocsPerOp: 34012},
		{Name: "SolverWarmStart/ladder/cold", Iterations: 1, NsPerOp: 108795512, BytesPerOp: 1902728, AllocsPerOp: 9686},
		{Name: "ServeEvalWarm", Iterations: 4185, NsPerOp: 2718, BytesPerOp: 336, AllocsPerOp: 8},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.Seconds <= 0 {
			t.Errorf("%s: seconds %v, want > 0", g.Name, g.Seconds)
		}
		g.Seconds = 0
		if g != w {
			t.Errorf("entry %d = %+v, want %+v", i, g, w)
		}
	}
}

// writeBaseline stores entries as a snapshot file and returns its path.
func writeBaseline(t *testing.T, entries ...Entry) string {
	t.Helper()
	data, err := json.Marshal(Snapshot{Date: "2026-01-01", Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_2026-01-01.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGate(t *testing.T) {
	base := writeBaseline(t,
		Entry{Name: "SolverScale/n=80", NsPerOp: 1000, AllocsPerOp: 100},
		Entry{Name: "ServeEvalWarm", NsPerOp: 2000, AllocsPerOp: 8},
	)
	const gate = "SolverScale/n=80=25,ServeEvalWarm=50"
	for _, c := range []struct {
		name    string
		entries []Entry
		fail    string // substring of the expected error; "" = pass
	}{
		{"within limits", []Entry{
			{Name: "SolverScale/n=80", NsPerOp: 1200, AllocsPerOp: 100},
			{Name: "ServeEvalWarm", NsPerOp: 2900, AllocsPerOp: 8},
		}, ""},
		{"ns/op +30%", []Entry{
			{Name: "SolverScale/n=80", NsPerOp: 1300, AllocsPerOp: 100},
			{Name: "ServeEvalWarm", NsPerOp: 2000, AllocsPerOp: 8},
		}, "SolverScale/n=80 regressed 30.0%"},
		{"allocs/op +30%", []Entry{
			{Name: "SolverScale/n=80", NsPerOp: 1000, AllocsPerOp: 130},
			{Name: "ServeEvalWarm", NsPerOp: 2000, AllocsPerOp: 8},
		}, "SolverScale/n=80 allocs regressed 30.0%"},
		{"gated name missing", []Entry{
			{Name: "SolverScale/n=80", NsPerOp: 1000, AllocsPerOp: 100},
		}, "gated benchmark ServeEvalWarm missing from this run"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := compare(base, &Snapshot{Entries: c.entries}, gate)
			switch {
			case c.fail == "" && err != nil:
				t.Fatalf("unexpected failure: %v", err)
			case c.fail != "" && (err == nil || !strings.Contains(err.Error(), c.fail)):
				t.Fatalf("err = %v, want one containing %q", err, c.fail)
			}
		})
	}
}

func TestLadderFloor(t *testing.T) {
	ladder := func(cold, warm int64) []Entry {
		return []Entry{
			{Name: "SolverWarmStart/ladder/cold", NsPerOp: cold},
			{Name: "SolverWarmStart/ladder/warm", NsPerOp: warm},
		}
	}
	if err := checkLadderFloor(ladder(350, 100)); err != nil {
		t.Fatalf("3.5x ladder rejected: %v", err)
	}
	if err := checkLadderFloor(ladder(290, 100)); err == nil {
		t.Fatal("2.9x ladder passed the 3x floor")
	}
	if err := checkLadderFloor(ladder(350, 100)[:1]); err == nil {
		t.Fatal("a run without the ladder's warm entry passed")
	}
}
