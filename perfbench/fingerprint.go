package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies where and on what a result was measured. The
// environment fields (GOMAXPROCS, nproc, CPU model, Go version) must
// match for two results to be compared; the commit and seed say what
// was measured and are what a comparison varies.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func takeFingerprint(workload string, seed int64) fingerprint {
	return fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commitID(),
		Workload:   workload,
		Seed:       seed,
	}
}

// envMismatch names the first environment field on which a and b differ,
// or "" when they are comparable.
func envMismatch(a, b fingerprint) string {
	switch {
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return "gomaxprocs"
	case a.NProc != b.NProc:
		return "nproc"
	case a.CPUModel != b.CPUModel:
		return "cpu_model"
	case a.GoVersion != b.GoVersion:
		return "go_version"
	case a.Workload != b.Workload:
		return "workload"
	}
	return ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitID is the git commit of the working directory when it is a
// repository, else a digest of the program's Go sources (go.mod, cmd/,
// internal/), which identifies the code just as well in an exported
// checkout.
func commitID() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var files []string
	for _, root := range []string{"go.mod", "cmd", "internal"} {
		filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
				files = append(files, p)
			}
			return nil
		})
	}
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
