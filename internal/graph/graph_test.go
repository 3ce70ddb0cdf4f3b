package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func mustGraph(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := mustGraph(t, 0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph wrong")
	}
	g2 := mustGraph(t, 5, nil)
	if g2.NumVertices() != 5 || g2.NumEdges() != 0 || g2.MaxDegree() != 0 {
		t.Fatal("edgeless graph wrong")
	}
}

func TestTriangle(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1}, {1, 2}, {2, 0}})
	if g.NumEdges() != 3 {
		t.Fatalf("m=%d", g.NumEdges())
	}
	for v := uint32(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("deg(%d)=%d", v, g.Degree(v))
		}
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) || g.HasEdge(0, 0) {
		t.Fatal("HasEdge wrong")
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 0}, {1, 1}, {0, 1}})
	if g.NumEdges() != 1 {
		t.Fatalf("m=%d want 1", g.NumEdges())
	}
}

func TestDuplicatesCollapse(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 3}, {3, 2}})
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d want 2", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatal("degrees after dedup wrong")
	}
}

func TestOutOfRangeEdgeRejected(t *testing.T) {
	if _, err := FromEdges(3, []Edge{{0, 3}}, 1); err == nil {
		t.Fatal("expected error for out-of-range vertex")
	}
	if _, err := FromEdges(-1, nil, 1); err == nil {
		t.Fatal("expected error for negative n")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := mustGraph(t, 6, []Edge{{0, 5}, {0, 2}, {0, 4}, {0, 1}, {0, 3}})
	ns := g.Neighbors(0)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("neighbors not sorted: %v", ns)
		}
	}
	if g.Degree(0) != 5 || g.MaxDegree() != 5 || g.MinDegree() != 1 {
		t.Fatal("degree stats wrong")
	}
}

func TestAvgDegree(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	if got := g.AvgDegree(); got != 1.5 {
		t.Fatalf("avg=%v want 1.5", got)
	}
	var empty Graph
	if empty.AvgDegree() != 0 {
		t.Fatal("empty avg != 0")
	}
}

func TestDegrees(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	d := g.Degrees()
	want := []int32{3, 1, 1, 1}
	for i := range d {
		if d[i] != want[i] {
			t.Fatalf("degrees=%v", d)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}
	g := mustGraph(t, 4, in)
	out := g.Edges()
	if len(out) != len(in) {
		t.Fatalf("edge count %d want %d", len(out), len(in))
	}
	g2 := mustGraph(t, 4, out)
	for v := uint32(0); v < 4; v++ {
		if g.Degree(v) != g2.Degree(v) {
			t.Fatal("round trip changed degrees")
		}
	}
}

func TestFromAdjacency(t *testing.T) {
	g, err := FromAdjacency([][]uint32{{1, 2}, {0}, {0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.Degree(0) != 2 {
		t.Fatal("FromAdjacency wrong")
	}
}

func TestInducedSubgraph(t *testing.T) {
	// Path 0-1-2-3-4 plus chord 0-2.
	g := mustGraph(t, 5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}})
	sub, old, err := g.InducedSubgraph([]uint32{0, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// Induced edges: {0,2} and {2,3} -> new IDs {0,1} and {1,2}.
	if sub.NumEdges() != 2 {
		t.Fatalf("sub m=%d want 2", sub.NumEdges())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Fatal("induced edges wrong")
	}
	if old[0] != 0 || old[1] != 2 || old[2] != 3 {
		t.Fatalf("mapping wrong: %v", old)
	}
}

func TestInducedSubgraphErrors(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1}})
	if _, _, err := g.InducedSubgraph([]uint32{0, 0}, 1); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	if _, _, err := g.InducedSubgraph([]uint32{7}, 1); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

func TestComputeStats(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{0, 1}, {0, 2}, {0, 3}})
	s := ComputeStats(g)
	if s.N != 5 || s.M != 3 || s.MaxDeg != 3 || s.MinDeg != 0 || s.Isolated != 1 {
		t.Fatalf("stats=%+v", s)
	}
}

func TestRandomGraphInvariants(t *testing.T) {
	check := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%50) + 2
		mTry := int(mRaw) % 200
		r := xrand.New(seed)
		edges := make([]Edge, mTry)
		for i := range edges {
			edges[i] = Edge{uint32(r.Intn(n)), uint32(r.Intn(n))}
		}
		g, err := FromEdges(n, edges, 2)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		// Handshake: sum of degrees = 2m.
		var sum int64
		for v := 0; v < n; v++ {
			sum += int64(g.Degree(uint32(v)))
		}
		if sum != g.NumArcs() {
			return false
		}
		// The edge set is exactly the input's, loops and repeats dropped.
		model := map[Edge]bool{}
		for _, e := range edges {
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			if e.U != e.V {
				model[e] = true
			}
		}
		if g.NumEdges() != int64(len(model)) {
			return false
		}
		for e := range model {
			if !g.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildParallelismIndependence(t *testing.T) {
	r := xrand.New(77)
	n := 500
	edges := make([]Edge, 3000)
	for i := range edges {
		edges[i] = Edge{uint32(r.Intn(n)), uint32(r.Intn(n))}
	}
	g1, _ := FromEdges(n, edges, 1)
	g4, _ := FromEdges(n, edges, 4)
	if g1.NumEdges() != g4.NumEdges() {
		t.Fatal("edge count depends on p")
	}
	for v := 0; v < n; v++ {
		n1, n4 := g1.Neighbors(uint32(v)), g4.Neighbors(uint32(v))
		if len(n1) != len(n4) {
			t.Fatalf("degree of %d depends on p", v)
		}
		for i := range n1 {
			if n1[i] != n4[i] {
				t.Fatalf("adjacency of %d depends on p", v)
			}
		}
	}
}

func TestStringer(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1}})
	if g.String() == "" {
		t.Fatal("empty String()")
	}
}

func BenchmarkFromEdges(b *testing.B) {
	r := xrand.New(1)
	n := 1 << 16
	edges := make([]Edge, 1<<19)
	for i := range edges {
		edges[i] = Edge{uint32(r.Intn(n)), uint32(r.Intn(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromEdges(n, edges, 0); err != nil {
			b.Fatal(err)
		}
	}
}
