package jp

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/verify"
)

// TestJPADGDeterministicAcrossProcs asserts the Las Vegas determinism
// contract end to end: for a fixed seed, the full JP-ADG pipeline
// (ADG-O ordering + JP coloring, both run with p workers) produces
// bit-identical colors for p ∈ {1, 2, 8}. Scheduling, the persistent
// pool, the edge-balanced partitioner and the sequential cutoff must
// all be invisible in the output.
func TestJPADGDeterministicAcrossProcs(t *testing.T) {
	g, err := gen.Kronecker(11, 8, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p int) []uint32 {
		ord := order.ADG(g, order.ADGOptions{Epsilon: 0.01, Procs: p, Seed: 42, Sorted: true})
		return Color(g, ord, p).Colors
	}
	base := run(1)
	for _, p := range []int{2, 8} {
		got := run(p)
		for v := range base {
			if got[v] != base[v] {
				t.Fatalf("p=%d: color of vertex %d is %d, p=1 gave %d", p, v, got[v], base[v])
			}
		}
	}
}

// TestJPADGMDeterministicAcrossProcs covers the median variant, whose
// ordering takes a different batch-selection path.
func TestJPADGMDeterministicAcrossProcs(t *testing.T) {
	g, err := gen.BarabasiAlbert(4000, 6, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p int) []uint32 {
		ord := order.ADG(g, order.ADGOptions{Median: true, Procs: p, Seed: 42, Sorted: true})
		return Color(g, ord, p).Colors
	}
	base := run(1)
	for _, p := range []int{2, 8} {
		got := run(p)
		for v := range base {
			if got[v] != base[v] {
				t.Fatalf("p=%d: color of vertex %d differs from p=1", p, v)
			}
		}
	}
}

// TestJPADGIgnoresSeed pins ADG-O's seed independence: its total
// positions leave no ties, so JP-ADG colors a graph identically under
// every seed (the grid case keeps its 2-coloring).
func TestJPADGIgnoresSeed(t *testing.T) {
	kron, err := gen.Kronecker(10, 8, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid2D(32, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"kron": kron, "grid": grid} {
		run := func(seed uint64) []uint32 {
			ord := order.ADG(g, order.ADGOptions{Epsilon: 0.01, Procs: 2, Seed: seed, Sorted: true})
			return Color(g, ord, 2).Colors
		}
		base := run(1)
		for _, seed := range []uint64{2, 99} {
			if !slices.Equal(run(seed), base) {
				t.Fatalf("%s: seed %d coloring differs from seed 1", name, seed)
			}
		}
		if name == "grid" {
			if nc := verify.NumColors(base); nc != 2 {
				t.Fatalf("grid: JP-ADG used %d colors, want 2", nc)
			}
		}
	}
}
