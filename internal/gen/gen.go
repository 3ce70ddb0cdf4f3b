// Package gen provides the synthetic graph generators used to reproduce the
// paper's evaluation. The paper evaluates on real SNAP/KONECT/DIMACS/
// WebGraph datasets (Table V) plus synthetic Kronecker graphs for weak
// scaling (§VI-F, [101]). Real datasets are unavailable offline, so this
// package supplies structural stand-ins:
//
//   - Kronecker/RMAT: scale-free, heavy-tailed — stands in for the social
//     and hyperlink graphs (s-ork, s-pok, h-bai, …) and drives Fig. 2's
//     weak scaling exactly as in the paper.
//   - Barabási–Albert: power-law with tunable density; degeneracy equals
//     the attachment parameter, giving d ≪ Δ exactly as in §IV-E.
//   - Erdős–Rényi G(n, m): the neutral baseline.
//   - Community (planted partition): dense clusters with sparse cross
//     edges — the structure §VI-A blames for conflict storms in
//     speculative coloring.
//   - Grid/Torus: planar-like, constant degeneracy — stands in for the
//     road network v-usa.
//   - RandomRegular, Complete, CompleteBipartite, Star, Path, Cycle,
//     Caterpillar: structured graphs with known d, Δ, χ used by tests.
//
// All generators are deterministic for a fixed seed.
package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// ErdosRenyiGNM samples a simple undirected graph with n vertices and
// (approximately, after dedup) m edges chosen uniformly with replacement.
func ErdosRenyiGNM(n int, m int64, seed uint64, p int) (*graph.Graph, error) {
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("gen: negative size")
	}
	r := xrand.New(seed)
	edges := make([]graph.Edge, 0, m)
	if n >= 2 {
		for i := int64(0); i < m; i++ {
			u := uint32(r.Intn(n))
			v := uint32(r.Intn(n))
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return graph.FromEdges(n, edges, p)
}

// Kronecker samples a graph from the stochastic Kronecker (RMAT) model with
// 2^scale vertices and edgeFactor·2^scale sampled edges, using the Graph500
// initiator (a,b,c) = (0.57, 0.19, 0.19). Vertex IDs are randomly permuted
// so degree does not correlate with ID. This is the generator of §VI-F.
func Kronecker(scale int, edgeFactor int, seed uint64, p int) (*graph.Graph, error) {
	if scale < 0 || scale > 30 {
		return nil, fmt.Errorf("gen: kronecker scale %d out of range [0,30]", scale)
	}
	if edgeFactor < 0 {
		return nil, fmt.Errorf("gen: negative edge factor")
	}
	n := 1 << uint(scale)
	m := int64(edgeFactor) * int64(n)
	const a, b, c = 0.57, 0.19, 0.19
	r := xrand.New(seed)
	perm := r.Perm(n, nil)
	edges := make([]graph.Edge, 0, m)
	for i := int64(0); i < m; i++ {
		var u, v int
		for bit := 0; bit < scale; bit++ {
			f := r.Float64()
			switch {
			case f < a: // top-left quadrant
			case f < a+b:
				v |= 1 << uint(bit)
			case f < a+b+c:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		edges = append(edges, graph.Edge{U: perm[u], V: perm[v]})
	}
	return graph.FromEdges(n, edges, p)
}

// BarabasiAlbert grows a preferential-attachment graph: starting from a
// k-clique, each new vertex attaches to k existing vertices chosen
// proportionally to degree. The result has degeneracy exactly k (for
// n > k), a heavy-tailed degree distribution, and d ≪ Δ — the regime where
// the paper's d-dependent bounds beat Δ-dependent ones (§IV-E).
func BarabasiAlbert(n, k int, seed uint64, p int) (*graph.Graph, error) {
	if k < 1 || n < 0 {
		return nil, fmt.Errorf("gen: BarabasiAlbert requires k >= 1, n >= 0")
	}
	if n <= k {
		return Complete(n, p)
	}
	r := xrand.New(seed)
	// targets holds one entry per edge endpoint; sampling uniformly from it
	// is sampling proportional to degree.
	var targets []uint32
	edges := make([]graph.Edge, 0, int64(n)*int64(k))
	for u := 0; u < k+1; u++ {
		for v := u + 1; v < k+1; v++ {
			edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
			targets = append(targets, uint32(u), uint32(v))
		}
	}
	// chosen keeps v's k distinct targets in draw order, so the edge
	// list — and through targets every later draw — is a pure function
	// of the seed. pickedBy[t] == v marks t as already drawn for v.
	chosen := make([]uint32, 0, k)
	pickedBy := make([]uint32, n)
	for v := k + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < k {
			if t := targets[r.Intn(len(targets))]; pickedBy[t] != uint32(v) {
				pickedBy[t] = uint32(v)
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			edges = append(edges, graph.Edge{U: uint32(v), V: t})
			targets = append(targets, uint32(v), t)
		}
	}
	return graph.FromEdges(n, edges, p)
}

// WattsStrogatz builds a small-world graph: a ring lattice where each
// vertex connects to its k nearest neighbors (k/2 on each side), then
// every lattice edge is rewired with probability beta to a uniformly
// random endpoint (self-loops and duplicate rewires are rejected by
// FromEdges' dedup, keeping the edge count fixed at n*k/2). beta=0 is
// the pure lattice (degeneracy k/2 — low-d, high-locality), beta=1 is
// essentially ER — the sweep between them exercises the coloring
// algorithms across the locality spectrum at CONSTANT degree, the
// regime the kron/er/ba families don't cover.
func WattsStrogatz(n, k int, beta float64, seed uint64, p int) (*graph.Graph, error) {
	if n < 0 || k < 0 {
		return nil, fmt.Errorf("gen: negative size")
	}
	if k%2 != 0 {
		return nil, fmt.Errorf("gen: WattsStrogatz needs even k (k/2 neighbors per side), got %d", k)
	}
	if !(beta >= 0 && beta <= 1) {
		return nil, fmt.Errorf("gen: WattsStrogatz needs beta in [0, 1], got %v", beta)
	}
	if k >= n && n > 0 {
		return Complete(n, p)
	}
	r := xrand.New(seed)
	edges := make([]graph.Edge, 0, int64(n)*int64(k)/2)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := uint32((u + j) % n)
			if beta > 0 && r.Float64() < beta {
				// Rewire the far endpoint; a draw that recreates a
				// self-loop is resampled a bounded number of times and
				// then kept as the lattice edge (FromEdges drops loops,
				// so giving up never corrupts the graph).
				for try := 0; try < 8; try++ {
					w := uint32(r.Intn(n))
					if w != uint32(u) {
						v = w
						break
					}
				}
			}
			edges = append(edges, graph.Edge{U: uint32(u), V: v})
		}
	}
	return graph.FromEdges(n, edges, p)
}

// RandomRegular samples an (approximately) k-regular graph via the
// configuration model with rejection of self-loops and duplicates: each
// vertex gets k stubs, stubs are randomly paired. A bounded number of
// reshuffle passes keeps the degree deviation small.
func RandomRegular(n, k int, seed uint64, p int) (*graph.Graph, error) {
	if n < 0 || k < 0 {
		return nil, fmt.Errorf("gen: negative size")
	}
	if k >= n && n > 0 {
		return nil, fmt.Errorf("gen: RandomRegular needs k < n (k=%d, n=%d)", k, n)
	}
	if n*k%2 != 0 {
		return nil, fmt.Errorf("gen: RandomRegular needs n*k even")
	}
	r := xrand.New(seed)
	stubs := make([]uint32, 0, n*k)
	for v := 0; v < n; v++ {
		for i := 0; i < k; i++ {
			stubs = append(stubs, uint32(v))
		}
	}
	var edges []graph.Edge
	for pass := 0; pass < 20 && len(stubs) > 0; pass++ {
		// Shuffle stubs, pair adjacent ones; keep valid pairs.
		for i := len(stubs) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			stubs[i], stubs[j] = stubs[j], stubs[i]
		}
		var leftovers []uint32
		for i := 0; i+1 < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				leftovers = append(leftovers, u, v)
				continue
			}
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		if len(stubs)%2 == 1 {
			leftovers = append(leftovers, stubs[len(stubs)-1])
		}
		stubs = leftovers
	}
	return graph.FromEdges(n, edges, p)
}

// Grid2D returns the rows×cols lattice graph (4-neighborhood). Planar,
// bipartite, degeneracy 2 (for rows, cols >= 2), Δ = 4 — the stand-in for
// road networks.
func Grid2D(rows, cols int, p int) (*graph.Graph, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("gen: negative grid dimensions")
	}
	n := rows * cols
	edges := make([]graph.Edge, 0, 2*n)
	id := func(rr, cc int) uint32 { return uint32(rr*cols + cc) }
	for rr := 0; rr < rows; rr++ {
		for cc := 0; cc < cols; cc++ {
			if cc+1 < cols {
				edges = append(edges, graph.Edge{U: id(rr, cc), V: id(rr, cc+1)})
			}
			if rr+1 < rows {
				edges = append(edges, graph.Edge{U: id(rr, cc), V: id(rr+1, cc)})
			}
		}
	}
	return graph.FromEdges(n, edges, p)
}

// Torus2D is Grid2D with wraparound edges; 4-regular for rows, cols >= 3.
func Torus2D(rows, cols int, p int) (*graph.Graph, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("gen: negative torus dimensions")
	}
	n := rows * cols
	edges := make([]graph.Edge, 0, 2*n)
	id := func(rr, cc int) uint32 { return uint32(rr*cols + cc) }
	for rr := 0; rr < rows; rr++ {
		for cc := 0; cc < cols; cc++ {
			if cols > 1 {
				edges = append(edges, graph.Edge{U: id(rr, cc), V: id(rr, (cc+1)%cols)})
			}
			if rows > 1 {
				edges = append(edges, graph.Edge{U: id(rr, cc), V: id((rr+1)%rows, cc)})
			}
		}
	}
	return graph.FromEdges(n, edges, p)
}

// Community samples a planted-partition graph: k communities of size
// n/k; within a community each edge exists with probability pIn, across
// communities mOut random edges are added. Dense clusters with sparse
// cut — the conflict-heavy structure discussed in §VI-A.
func Community(n, k int, pIn float64, mOut int64, seed uint64, p int) (*graph.Graph, error) {
	if n < 0 || k < 1 || pIn < 0 || pIn > 1 || mOut < 0 {
		return nil, fmt.Errorf("gen: invalid community parameters")
	}
	r := xrand.New(seed)
	size := (n + k - 1) / k
	var edges []graph.Edge
	for c := 0; c < k; c++ {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		for u := lo; u < hi; u++ {
			for v := u + 1; v < hi; v++ {
				if r.Float64() < pIn {
					edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
				}
			}
		}
	}
	if n >= 2 {
		for i := int64(0); i < mOut; i++ {
			edges = append(edges, graph.Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))})
		}
	}
	return graph.FromEdges(n, edges, p)
}

// Complete returns K_n (degeneracy n-1, χ = n).
func Complete(n int, p int) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: negative size")
	}
	edges := make([]graph.Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
		}
	}
	return graph.FromEdges(n, edges, p)
}

// CompleteBipartite returns K_{a,b} (degeneracy min(a,b), χ = 2).
func CompleteBipartite(a, b int, p int) (*graph.Graph, error) {
	if a < 0 || b < 0 {
		return nil, fmt.Errorf("gen: negative size")
	}
	edges := make([]graph.Edge, 0, a*b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			edges = append(edges, graph.Edge{U: uint32(u), V: uint32(a + v)})
		}
	}
	return graph.FromEdges(a+b, edges, p)
}

// Star returns the star K_{1,n-1}: vertex 0 joined to all others
// (degeneracy 1, Δ = n-1 — the extreme d ≪ Δ case).
func Star(n int, p int) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: negative size")
	}
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: uint32(v)})
	}
	return graph.FromEdges(n, edges, p)
}

// Path returns the path P_n (degeneracy 1, χ = 2).
func Path(n int, p int) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: negative size")
	}
	edges := make([]graph.Edge, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: uint32(v), V: uint32(v + 1)})
	}
	return graph.FromEdges(n, edges, p)
}

// Cycle returns the cycle C_n (degeneracy 2; χ = 2 or 3).
func Cycle(n int, p int) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: negative size")
	}
	if n < 3 {
		return Path(n, p)
	}
	edges := make([]graph.Edge, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: uint32(v), V: uint32((v + 1) % n)})
	}
	return graph.FromEdges(n, edges, p)
}

// Caterpillar returns a path of length spine where every spine vertex has
// legs pendant vertices (a tree: degeneracy 1, Δ = legs+2).
func Caterpillar(spine, legs int, p int) (*graph.Graph, error) {
	if spine < 0 || legs < 0 {
		return nil, fmt.Errorf("gen: negative size")
	}
	n := spine * (legs + 1)
	var edges []graph.Edge
	for s := 0; s < spine; s++ {
		if s+1 < spine {
			edges = append(edges, graph.Edge{U: uint32(s), V: uint32(s + 1)})
		}
		for l := 0; l < legs; l++ {
			leaf := uint32(spine + s*legs + l)
			edges = append(edges, graph.Edge{U: uint32(s), V: leaf})
		}
	}
	return graph.FromEdges(n, edges, p)
}
