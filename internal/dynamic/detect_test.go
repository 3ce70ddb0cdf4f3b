package dynamic

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
	"repro/internal/xrand"
)

// TestConflictFrontierAllOneColor is the adversarial worst case: every
// vertex of a connected component shares one color, so every non-isolated
// vertex is an endpoint of a monochromatic edge.
func TestConflictFrontierAllOneColor(t *testing.T) {
	// Path 0-1-2-3 plus isolated vertex 4.
	g := mustGraph(t)(graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, 1))
	colors := []uint32{1, 1, 1, 1, 1}
	got := ConflictFrontier(g, colors, 2)
	want := []uint32{0, 1, 2, 3} // 4 is isolated: colored, no conflict
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frontier = %v, want %v", got, want)
	}
}

func TestConflictFrontierEmptyGraph(t *testing.T) {
	g := mustGraph(t)(graph.FromEdges(0, nil, 1))
	if got := ConflictFrontier(g, nil, 4); len(got) != 0 {
		t.Fatalf("frontier of empty graph = %v, want empty", got)
	}
}

// TestConflictFrontierUncolored: color 0 means uncolored and must be
// flagged even with no monochromatic edge — isolated vertices included.
func TestConflictFrontierUncolored(t *testing.T) {
	g := mustGraph(t)(graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}}, 1))
	colors := []uint32{1, 2, 0, 3}
	got := ConflictFrontier(g, colors, 1)
	if want := []uint32{2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("frontier = %v, want %v", got, want)
	}
}

func TestConflictFrontierProperIsEmpty(t *testing.T) {
	g := mustGraph(t)(gen.ErdosRenyiGNM(300, 900, 3, 1))
	colors := make([]uint32, g.NumVertices())
	// Proper by construction: color = position in a greedy scan.
	for v := 0; v < g.NumVertices(); v++ {
		used := map[uint32]bool{}
		for _, u := range g.Neighbors(uint32(v)) {
			used[colors[u]] = true
		}
		c := uint32(1)
		for used[c] {
			c++
		}
		colors[v] = c
	}
	if got := ConflictFrontier(g, colors, 3); len(got) != 0 {
		t.Fatalf("frontier of proper coloring = %v, want empty", got)
	}
}

// TestConflictFrontierDeterministicAcrossProcs pins the packed output
// order at p ∈ {1, 2, 8}.
func TestConflictFrontierDeterministicAcrossProcs(t *testing.T) {
	g := mustGraph(t)(gen.Kronecker(9, 8, 3, 0))
	colors := make([]uint32, g.NumVertices())
	for v := range colors {
		colors[v] = uint32(v%3) + 1 // improper on purpose
	}
	base := ConflictFrontier(g, colors, 1)
	for _, p := range []int{2, 8} {
		if got := ConflictFrontier(g, colors, p); !reflect.DeepEqual(got, base) {
			t.Fatalf("p=%d frontier differs from p=1", p)
		}
	}
}

// TestRepairColorsOverCSR drives the localized JP-over-ADG repair over a
// plain immutable graph (no Overlay): the adversarial all-one-color
// input must come out proper, and clean vertices must keep their color.
func TestRepairColorsOverCSR(t *testing.T) {
	g := mustGraph(t)(gen.Kronecker(10, 8, 3, 4))
	n := g.NumVertices()
	colors := make([]uint32, n)
	for v := range colors {
		colors[v] = 1
	}
	dirty := ConflictFrontier(g, colors, 2)
	inDirty := make([]bool, n)
	for _, v := range dirty {
		inDirty[v] = true
	}
	repaired, rounds := RepairColors(g, colors, dirty, newSlot(n), Options{Procs: 2, Seed: 9}, 1)
	if err := verify.CheckProper(g, colors); err != nil {
		t.Fatalf("repair left an improper coloring: %v", err)
	}
	if repaired <= 0 || rounds <= 0 {
		t.Fatalf("repaired=%d rounds=%d, want both positive", repaired, rounds)
	}
	for v := 0; v < n; v++ {
		if !inDirty[v] && colors[v] != 1 {
			t.Fatalf("clean vertex %d changed color to %d", v, colors[v])
		}
	}
}

// TestRepairColorsDeterministicAcrossProcs: same seed and dirty set give
// bit-identical repairs at any worker count.
func TestRepairColorsDeterministicAcrossProcs(t *testing.T) {
	g := mustGraph(t)(gen.BarabasiAlbert(400, 5, 3, 2))
	n := g.NumVertices()
	run := func(p int) []uint32 {
		colors := make([]uint32, n)
		for v := range colors {
			colors[v] = uint32(v%2) + 1
		}
		dirty := ConflictFrontier(g, colors, p)
		RepairColors(g, colors, dirty, newSlot(n), Options{Procs: p, Seed: 5}, 7)
		return colors
	}
	base := run(1)
	for _, p := range []int{2, 8} {
		if got := run(p); !reflect.DeepEqual(got, base) {
			t.Fatalf("p=%d repair differs from p=1", p)
		}
	}
}

// TestGraphSatisfiesSource pins the refactor contract: both the overlay
// and the plain CSR graph satisfy the Source adjacency interface.
func TestGraphSatisfiesSource(t *testing.T) {
	var _ Source = (*graph.Graph)(nil)
	var _ Source = (*Overlay)(nil)
	g := mustGraph(t)(graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, 1))
	buf := g.AppendNeighbors(nil, 1)
	if want := []uint32{0, 2}; !reflect.DeepEqual(buf, want) {
		t.Fatalf("AppendNeighbors(1) = %v, want %v", buf, want)
	}
	// Appends, not overwrites.
	buf = g.AppendNeighbors(buf, 0)
	if want := []uint32{0, 2, 1}; !reflect.DeepEqual(buf, want) {
		t.Fatalf("AppendNeighbors append = %v, want %v", buf, want)
	}
}

// newSlot returns a RepairColors slot index for n vertices (all -1).
func newSlot(n int) []int32 {
	slot := make([]int32, n)
	for v := range slot {
		slot[v] = -1
	}
	return slot
}

// TestRepairColorsIdenticalAcrossProcsAndSources: one repair over a
// mutated Overlay and over its materialized CSR snapshot gives
// byte-identical colors at p ∈ {1, 2, 8}, and the shared slot index is
// all -1 again after every call.
func TestRepairColorsIdenticalAcrossProcsAndSources(t *testing.T) {
	base := mustGraph(t)(gen.Kronecker(9, 8, 4, 0))
	ov := NewOverlay(base)
	n := base.NumVertices()
	rng := xrand.New(17)
	var b Batch
	for i := 0; i < 300; i++ {
		e := graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
		if i%3 == 0 {
			b.DelEdges = append(b.DelEdges, e)
		} else {
			b.AddEdges = append(b.AddEdges, e)
		}
	}
	if _, err := ov.Apply(b); err != nil {
		t.Fatal(err)
	}
	snap, err := ov.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	start := make([]uint32, n)
	for v := range start {
		start[v] = uint32(v%3) + 1 // improper on purpose
	}
	dirty := ConflictFrontier(snap, start, 1)
	if len(dirty) == 0 {
		t.Fatal("test needs a non-empty dirty set")
	}
	slot := newSlot(n)
	var want []uint32
	for _, src := range []Source{ov, snap} {
		for _, p := range []int{1, 2, 8} {
			colors := append([]uint32(nil), start...)
			RepairColors(src, colors, dirty, slot, Options{Procs: p, Seed: 3}, 5)
			for v, s := range slot {
				if s != -1 {
					t.Fatalf("%T p=%d: slot[%d] = %d after the call, want -1", src, p, v, s)
				}
			}
			if err := verify.CheckProper(snap, colors); err != nil {
				t.Fatalf("%T p=%d: %v", src, p, err)
			}
			if want == nil {
				want = colors
			} else if !reflect.DeepEqual(colors, want) {
				t.Fatalf("%T p=%d: colors differ from the Overlay p=1 repair", src, p)
			}
		}
	}
}

// TestRepairColorsSeedBreaksTies: the subgraph's ADG ties are broken by
// a permutation seeded with Seed+salt, so on a regular graph (where
// every vertex ties) a different salt gives a different repair DAG —
// and a shallow one: a row-order tie-break would chain the whole dirty
// path into one JP round per vertex.
func TestRepairColorsSeedBreaksTies(t *testing.T) {
	g := mustGraph(t)(gen.Path(2000, 1))
	n := g.NumVertices()
	dirty := make([]uint32, n)
	for v := range dirty {
		dirty[v] = uint32(v)
	}
	slot := newSlot(n)
	repair := func(salt uint64) ([]uint32, int) {
		colors := make([]uint32, n)
		_, rounds := RepairColors(g, colors, dirty, slot, Options{Procs: 2, Seed: 1}, salt)
		if err := verify.CheckProper(g, colors); err != nil {
			t.Fatal(err)
		}
		return colors, rounds
	}
	c1, r1 := repair(1)
	c2, _ := repair(2)
	if reflect.DeepEqual(c1, c2) {
		t.Fatal("salts 1 and 2 gave the same repair: the seed breaks no ties")
	}
	if r1 > 100 {
		t.Fatalf("repair of a %d-vertex path took %d JP rounds, want a shallow DAG", n, r1)
	}
}
