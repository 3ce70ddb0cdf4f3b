// Command perfbench is the repository's end-to-end benchmark for the
// colord serving stack. It drives in-process service.Servers over
// loopback HTTP with one of four closed-loop workloads, checks every
// output it receives, and prints one JSON result line.
//
//	go build -o bench . && ./bench --workload color-cold --seed 1 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//   - color-cold: 1 client, GET /v1/color/bin?noCache=1 over four graph
//     families × {JP-ADG, SPEC-ADG, JP-R, Greedy-ID}.
//   - read-warm: 2 clients, GET /v1/color/bin for 16 pre-warmed keys.
//   - mutate-durable: 1 writer posting 32+32-edge batches to a node with
//     a data directory whose WAL is past the fold threshold, beside 1
//     reader of the maintained coloring.
//   - cluster-proxy: the same writer/reader mix entering a 3-node R=2
//     cluster at the node outside the graph's placement.
//
// With --trace 0 a run measures its workload for --seconds and reports
// the end-to-end metrics. Every workload reports every end-to-end
// metric: the request classes its own traffic lacks are measured by a
// fixed-size probe of that class run after the main phase.
//
// With --trace 1 a run repeats the main phase with a span around every
// request, then times calls into each module's public functions from
// outside (layers.go) and reports the per-layer metrics. Spans are kept
// in memory and written to the work directory when the run ends.
//
// Any wrong output makes the command exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run.
type bench struct {
	seed    uint64
	seconds float64
	traced  bool
	workDir string

	attempted atomic.Int64
	failed    atomic.Int64
	wrongMu   sync.Mutex
	wrong     []string
	warnings  []string

	metrics map[string]metric
	// extra holds figures printed for people but not gated (p99s,
	// failed_ratio, per-phase counts).
	extra map[string]metric
	tr    *tracer
}

// e2e records an end-to-end metric; a traced run prints it as an
// ungated note, since its timings carry the tracing cost.
func (b *bench) e2e(name string, v float64, unit string) {
	if b.traced {
		b.note(name, v, unit)
		return
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// layer records a per-layer metric (traced runs only).
func (b *bench) layer(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) note(name string, v float64, unit string) {
	b.extra[name] = metric{Value: v, Unit: unit}
}

// fail records one failed or wrong response.
func (b *bench) fail(format string, args ...interface{}) {
	b.failed.Add(1)
	b.wrongMu.Lock()
	defer b.wrongMu.Unlock()
	if len(b.wrong) < 20 {
		b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
	}
}

// warn records a defect the run found that does not make an output
// wrong; it is printed with the summary.
func (b *bench) warn(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	b.wrongMu.Lock()
	defer b.wrongMu.Unlock()
	for _, w := range b.warnings {
		if w == msg {
			return
		}
	}
	b.warnings = append(b.warnings, msg)
}

// newDir makes a fresh directory under the work directory.
func (b *bench) newDir(prefix string) (string, error) {
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(b.workDir, prefix)
}

var workloads = map[string]func(*bench) error{
	"color-cold":     colorCold,
	"read-warm":      readWarm,
	"mutate-durable": mutateDurable,
	"cluster-proxy":  clusterProxy,
}

func main() {
	workload := flag.String("workload", "", "color-cold | read-warm | mutate-durable | cluster-proxy")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	workDir := flag.String("workdir", ".bench_build/work", "directory for the run's data directories; traces go to its sibling traces/")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	res, err := runBench(*workload, run, *seed, *seconds, *trace == 1, *workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runBench executes one run and returns its result line.
func runBench(workload string, run func(*bench) error, seed uint64, seconds float64, traced bool, workDir string) (*result, error) {
	b := &bench{
		seed:    seed,
		seconds: seconds,
		traced:  traced,
		metrics: map[string]metric{},
		extra:   map[string]metric{},
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	b.workDir = dir
	defer os.RemoveAll(dir)
	if traced {
		b.tr = newTracer()
	}

	fp := fingerprint()
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("# fingerprint %s\n", fpLine)

	if err := run(b); err != nil {
		return nil, err
	}
	if traced {
		if err := b.layers(); err != nil {
			return nil, err
		}
	} else {
		b.e2e("peak_rss_mb", peakRSSMB(), "MB")
		att := b.attempted.Load()
		b.note("failed_ratio", float64(b.failed.Load())/float64(max(att, 1)), "ratio")
	}

	b.printSummary(workload)
	if traced {
		path := filepath.Join(filepath.Dir(workDir), "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := b.tr.write(path, fp); err != nil {
			return nil, err
		}
		fmt.Printf("# trace %s (%d spans)\n", path, len(b.tr.spans))
	}
	res := &result{
		Attempted: max(b.attempted.Load(), 1),
		Failed:    b.failed.Load(),
		Metrics:   b.metrics,
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printSummary prints every metric by name and unit, gated or not, and
// any wrong outputs, ahead of the result line.
func (b *bench) printSummary(workload string) {
	names := make([]string, 0, len(b.metrics)+len(b.extra))
	for n := range b.metrics {
		names = append(names, n)
	}
	for n := range b.extra {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "end-to-end"
	if b.traced {
		mode = "per-layer"
	}
	fmt.Printf("# %s seed=%d seconds=%g %s metrics (attempted %d, failed %d)\n",
		workload, b.seed, b.seconds, mode, b.attempted.Load(), b.failed.Load())
	for _, n := range names {
		m, gated := b.metrics[n]
		tag := ""
		if !gated {
			m, tag = b.extra[n], "  (not gated)"
		}
		fmt.Printf("#   %-36s %14.6g %s%s\n", n, m.Value, m.Unit, tag)
	}
	for _, w := range b.warnings {
		fmt.Printf("# WARNING: %s\n", w)
	}
	for _, w := range b.wrong {
		fmt.Printf("# WRONG: %s\n", strings.TrimSpace(w))
	}
}
