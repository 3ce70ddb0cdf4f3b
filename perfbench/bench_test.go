package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics fails unless res carries exactly the named metrics, each
// with its declared unit.
func checkMetrics(t *testing.T, label string, res *result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", label, res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, want %q", label, name, m.Unit, unit)
		}
	}
	var extra []string
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: metrics not declared in BENCHMARK.json: %v", label, extra)
	}
}

// TestShortRunsPrintEveryMetric runs every workload for a fraction of a
// second and one of them traced, and checks that each result line holds
// every metric BENCHMARK.json names, with its unit.
func TestShortRunsPrintEveryMetric(t *testing.T) {
	s := loadSpec(t)
	e2e := map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range s.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the command has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Errorf("workload %s is not implemented", w.Name)
			continue
		}
		res, err := runBench(w.Name, run, 7, 0.3, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkMetrics(t, w.Name, res, e2e)
	}
	res, err := runBench("read-warm", readWarm, 7, 0.3, true, t.TempDir())
	if err != nil {
		t.Fatalf("traced read-warm: %v", err)
	}
	checkMetrics(t, "traced read-warm", res, layer)
}
