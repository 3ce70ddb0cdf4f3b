package gen

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

func validate(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	t.Helper()
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if verr := g.Validate(); verr != nil {
			t.Fatal(verr)
		}
		return g
	}
}

func TestErdosRenyi(t *testing.T) {
	g := validate(t)(ErdosRenyiGNM(1000, 5000, 1, 2))
	if g.NumVertices() != 1000 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	// Collisions/self-loops shave a few edges off; expect within 5%.
	if g.NumEdges() < 4700 || g.NumEdges() > 5000 {
		t.Fatalf("m=%d want ~5000", g.NumEdges())
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := validate(t)(ErdosRenyiGNM(200, 800, 7, 1))
	b := validate(t)(ErdosRenyiGNM(200, 800, 7, 4))
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("seeded generator not deterministic across p")
	}
}

func TestErdosRenyiEdgeCases(t *testing.T) {
	validate(t)(ErdosRenyiGNM(0, 0, 1, 1))
	validate(t)(ErdosRenyiGNM(1, 100, 1, 1)) // all self-loops dropped
	if _, err := ErdosRenyiGNM(-1, 0, 1, 1); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestKronecker(t *testing.T) {
	g := validate(t)(Kronecker(10, 8, 3, 2))
	if g.NumVertices() != 1024 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	if g.NumEdges() < 1024 { // heavy dedup expected, but not this heavy
		t.Fatalf("m=%d suspiciously small", g.NumEdges())
	}
	// Scale-free shape: max degree should far exceed the average.
	if float64(g.MaxDegree()) < 4*g.AvgDegree() {
		t.Fatalf("Δ=%d avg=%.1f: not heavy-tailed", g.MaxDegree(), g.AvgDegree())
	}
}

func TestKroneckerBounds(t *testing.T) {
	if _, err := Kronecker(-1, 4, 1, 1); err == nil {
		t.Fatal("negative scale accepted")
	}
	if _, err := Kronecker(31, 4, 1, 1); err == nil {
		t.Fatal("huge scale accepted")
	}
	g := validate(t)(Kronecker(0, 4, 1, 1))
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Fatal("scale-0 kronecker wrong")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := validate(t)(BarabasiAlbert(2000, 4, 9, 2))
	if g.NumVertices() != 2000 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	// Every vertex beyond the seed clique adds <= k edges.
	if g.NumEdges() > int64(2000*4+10) {
		t.Fatalf("m=%d too large", g.NumEdges())
	}
	// Minimum degree must be >= 1 and heavy tail must exist.
	if g.MinDegree() < 1 {
		t.Fatal("BA produced isolated vertex")
	}
	if float64(g.MaxDegree()) < 3*g.AvgDegree() {
		t.Fatalf("Δ=%d avg=%.1f: no hub", g.MaxDegree(), g.AvgDegree())
	}
}

func TestBarabasiAlbertSmall(t *testing.T) {
	// n <= k degenerates to a clique.
	g := validate(t)(BarabasiAlbert(3, 5, 1, 1))
	if g.NumEdges() != 3 {
		t.Fatalf("m=%d want 3 (K3)", g.NumEdges())
	}
	if _, err := BarabasiAlbert(10, 0, 1, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestRandomRegular(t *testing.T) {
	g := validate(t)(RandomRegular(500, 6, 11, 2))
	if g.NumVertices() != 500 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	// Dedup may remove a handful of edges; degrees must be near k.
	if g.MaxDegree() > 6 {
		t.Fatalf("Δ=%d > k", g.MaxDegree())
	}
	if g.AvgDegree() < 5.5 {
		t.Fatalf("avg=%.2f too far below k=6", g.AvgDegree())
	}
}

func TestRandomRegularValidation(t *testing.T) {
	if _, err := RandomRegular(5, 5, 1, 1); err == nil {
		t.Fatal("k>=n accepted")
	}
	if _, err := RandomRegular(5, 3, 1, 1); err == nil {
		t.Fatal("odd n*k accepted")
	}
	validate(t)(RandomRegular(0, 0, 1, 1))
}

func TestGrid2D(t *testing.T) {
	g := validate(t)(Grid2D(10, 15, 2))
	if g.NumVertices() != 150 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	wantM := int64(10*14 + 9*15)
	if g.NumEdges() != wantM {
		t.Fatalf("m=%d want %d", g.NumEdges(), wantM)
	}
	if g.MaxDegree() != 4 || g.MinDegree() != 2 {
		t.Fatalf("Δ=%d δ=%d", g.MaxDegree(), g.MinDegree())
	}
}

func TestGridDegenerate(t *testing.T) {
	validate(t)(Grid2D(0, 5, 1))
	g := validate(t)(Grid2D(1, 5, 1)) // a path
	if g.NumEdges() != 4 || g.MaxDegree() != 2 {
		t.Fatal("1-row grid is not a path")
	}
}

func TestTorus2D(t *testing.T) {
	g := validate(t)(Torus2D(5, 8, 2))
	if g.NumVertices() != 40 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	for v := uint32(0); v < 40; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus not 4-regular at %d: deg=%d", v, g.Degree(v))
		}
	}
}

func TestCommunity(t *testing.T) {
	g := validate(t)(Community(200, 4, 0.5, 100, 13, 2))
	if g.NumVertices() != 200 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	// Each community of 50 contributes ~0.5*C(50,2) ≈ 612 edges.
	if g.NumEdges() < 2000 {
		t.Fatalf("m=%d: communities too sparse", g.NumEdges())
	}
	if _, err := Community(10, 0, 0.5, 0, 1, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Community(10, 2, 1.5, 0, 1, 1); err == nil {
		t.Fatal("pIn>1 accepted")
	}
}

func TestComplete(t *testing.T) {
	g := validate(t)(Complete(10, 1))
	if g.NumEdges() != 45 {
		t.Fatalf("m=%d want 45", g.NumEdges())
	}
	for v := uint32(0); v < 10; v++ {
		if g.Degree(v) != 9 {
			t.Fatal("K10 not 9-regular")
		}
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := validate(t)(CompleteBipartite(3, 7, 1))
	if g.NumVertices() != 10 || g.NumEdges() != 21 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(0) != 7 || g.Degree(3) != 3 {
		t.Fatal("bipartite degrees wrong")
	}
}

func TestStarPathCycle(t *testing.T) {
	star := validate(t)(Star(100, 1))
	if star.Degree(0) != 99 || star.MaxDegree() != 99 || star.NumEdges() != 99 {
		t.Fatal("star wrong")
	}
	path := validate(t)(Path(5, 1))
	if path.NumEdges() != 4 || path.MaxDegree() != 2 || path.MinDegree() != 1 {
		t.Fatal("path wrong")
	}
	cyc := validate(t)(Cycle(5, 1))
	if cyc.NumEdges() != 5 || cyc.MinDegree() != 2 || cyc.MaxDegree() != 2 {
		t.Fatal("cycle wrong")
	}
	// Tiny cycles degrade to paths.
	c2 := validate(t)(Cycle(2, 1))
	if c2.NumEdges() != 1 {
		t.Fatal("C2 wrong")
	}
}

func TestCaterpillar(t *testing.T) {
	g := validate(t)(Caterpillar(10, 3, 1))
	if g.NumVertices() != 40 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	// A tree on 40 vertices has 39 edges.
	if g.NumEdges() != 39 {
		t.Fatalf("m=%d want 39", g.NumEdges())
	}
	if g.MaxDegree() != 5 { // interior spine: 2 spine + 3 legs
		t.Fatalf("Δ=%d want 5", g.MaxDegree())
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := validate(t)(WattsStrogatz(500, 6, 0.1, 3, 2))
	if g.NumVertices() != 500 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	// Rewiring swaps endpoints one-for-one; only duplicate collisions
	// shave edges off the lattice's n*k/2 = 1500.
	if g.NumEdges() < 1400 || g.NumEdges() > 1500 {
		t.Fatalf("m=%d want ~1500", g.NumEdges())
	}
	// Constant-degree regime: no hub should emerge at beta=0.1.
	if g.MaxDegree() > 6+8 {
		t.Fatalf("Δ=%d: rewiring built a hub", g.MaxDegree())
	}
}

func TestWattsStrogatzBetaExtremes(t *testing.T) {
	// beta=0 is the exact ring lattice: every vertex has degree k.
	lat := validate(t)(WattsStrogatz(100, 4, 0, 1, 1))
	if lat.NumEdges() != 200 || lat.MinDegree() != 4 || lat.MaxDegree() != 4 {
		t.Fatalf("lattice m=%d deg=[%d,%d], want 200 edges all degree 4", lat.NumEdges(), lat.MinDegree(), lat.MaxDegree())
	}
	// beta=1 rewires everything; the edge count stays near n*k/2.
	rw := validate(t)(WattsStrogatz(100, 4, 1, 2, 1))
	if rw.NumEdges() < 170 || rw.NumEdges() > 200 {
		t.Fatalf("fully rewired m=%d want ~200", rw.NumEdges())
	}
}

func TestWattsStrogatzDeterministicAcrossP(t *testing.T) {
	a := validate(t)(WattsStrogatz(300, 6, 0.2, 7, 1))
	b := validate(t)(WattsStrogatz(300, 6, 0.2, 7, 4))
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("seeded generator not deterministic across p")
	}
	for v := 0; v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(uint32(v)), b.Neighbors(uint32(v))
		if len(na) != len(nb) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func TestWattsStrogatzValidation(t *testing.T) {
	if _, err := WattsStrogatz(10, 3, 0.1, 1, 1); err == nil {
		t.Fatal("odd k accepted")
	}
	if _, err := WattsStrogatz(10, 4, 1.5, 1, 1); err == nil {
		t.Fatal("beta > 1 accepted")
	}
	if _, err := WattsStrogatz(-1, 4, 0.1, 1, 1); err == nil {
		t.Fatal("negative n accepted")
	}
	// k >= n degenerates to a clique, like BA.
	g := validate(t)(WattsStrogatz(4, 6, 0.5, 1, 1))
	if g.NumEdges() != 6 {
		t.Fatalf("m=%d want 6 (K4)", g.NumEdges())
	}
	validate(t)(WattsStrogatz(0, 0, 0, 1, 1))
}

// TestBarabasiAlbertDeterministic: the same (n, k, seed) builds the
// same CSR on every call and at every worker count, so nodes that
// bootstrap a ba graph from its spec agree on it.
func TestBarabasiAlbertDeterministic(t *testing.T) {
	base := validate(t)(BarabasiAlbert(3000, 6, 5, 1))
	for _, p := range []int{1, 2, 8} {
		for rep := 0; rep < 3; rep++ {
			g := validate(t)(BarabasiAlbert(3000, 6, 5, p))
			if !slices.Equal(g.Offsets(), base.Offsets()) || !slices.Equal(g.Adjacency(), base.Adjacency()) {
				t.Fatalf("p=%d build %d: CSR differs from the first build", p, rep)
			}
		}
	}
}
