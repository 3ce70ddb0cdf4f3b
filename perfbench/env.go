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
	"sync"
	"syscall"
	"time"
)

// envFingerprint identifies the code and the machine a result came
// from. This box's real parallelism is not GOMAXPROCS, so the spin probe
// measures it.
type envFingerprint struct {
	Commit              string  `json:"commit"`
	SourceSHA256        string  `json:"source_sha256"`
	GoVersion           string  `json:"go_version"`
	CPUModel            string  `json:"cpu_model"`
	NumCPU              int     `json:"nproc"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
	EffectiveParallel   float64 `json:"effective_parallelism"`
	SpinOneGoroutineMs  float64 `json:"spin_1_goroutine_ms"`
	SpinTwoGoroutinesMs float64 `json:"spin_2_goroutines_ms"`
}

func fingerprint() envFingerprint {
	fp := envFingerprint{
		Commit:       commit(),
		SourceSHA256: sourceHash("."),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
	}
	fp.EffectiveParallel, fp.SpinOneGoroutineMs, fp.SpinTwoGoroutinesMs = spinProbe()
	return fp
}

// commit is the checked-out commit, or "unknown" when the working
// directory is not the root of a git work tree (source_sha256 identifies
// the code then). Git is kept from searching the parent directories.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes every Go source and module file under root, in path
// order, skipping the build directory.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
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

// spin burns CPU for iters steps.
func spin(iters int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

var spinSink uint64

// spinProbe times a fixed CPU-bound amount of work on one goroutine and
// split across two; the ratio is the parallelism the box delivers
// (1.0 = one core, 2.0 = two). Median of three trials.
func spinProbe() (eff, oneMs, twoMs float64) {
	const work = 40_000_000
	var ones, twos []float64
	for trial := 0; trial < 3; trial++ {
		one := timeIt(func() { spinSink += spin(work) })
		two := timeIt(func() {
			var wg sync.WaitGroup
			var r [2]uint64
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r[g] = spin(work / 2)
				}(g)
			}
			wg.Wait()
			spinSink += r[0] + r[1]
		})
		ones = append(ones, ms(one))
		twos = append(twos, ms(two))
	}
	oneMs, twoMs = medianFloat(ones), medianFloat(twos)
	return oneMs / twoMs, oneMs, twoMs
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
