package dynamic

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/jp"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/verify"
)

// Options parameterizes a Colored. The zero value selects the paper's
// evaluation settings: ε = 0.01, GOMAXPROCS workers, seed 0 and a 25%
// dirty-fraction fallback threshold.
type Options struct {
	// Procs is the worker count for detection, repair and recolor
	// passes (<= 0: GOMAXPROCS).
	Procs int
	// Seed fixes all randomness; with equal seeds the maintained
	// coloring is a deterministic function of the batch sequence.
	Seed uint64
	// Epsilon is the ADG ε used for both the initial/full recolors and
	// the localized repair priorities (0 selects 0.01).
	Epsilon float64
	// FallbackFraction caps the incremental path: when the dirty set
	// exceeds this fraction of the vertices, repair falls back to a
	// full JP-ADG recolor (0 selects 0.25; negative disables fallback).
	FallbackFraction float64
}

func (o Options) withDefaults() Options {
	if o.Procs <= 0 {
		o.Procs = par.DefaultProcs()
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.01
	}
	if o.FallbackFraction == 0 {
		o.FallbackFraction = 0.25
	}
	return o
}

// Result reports one Apply: what the batch changed, the conflict
// frontier it created, and how the repair resolved it.
type Result struct {
	// Version is the overlay version after the batch.
	Version uint64
	// AddedEdges/RemovedEdges/NewVertices are the materialized diff.
	AddedEdges   int
	RemovedEdges int
	NewVertices  int
	// ConflictEdges counts inserted edges that were monochromatic.
	ConflictEdges int
	// Dirty is the repair frontier: both endpoints of every conflict
	// edge plus the batch's new vertices, deduplicated and sorted.
	// The repair pass writes colors only inside this set.
	Dirty []uint32
	// Repaired counts vertices whose color actually changed (for a
	// fallback recolor: changes across the whole graph).
	Repaired int
	// Rounds is the localized JP pass's frontier round count (or the
	// full recolor's rounds when Fallback).
	Rounds int
	// Fallback reports that the dirty set exceeded the threshold and a
	// full JP-ADG recolor ran instead of the localized pass.
	Fallback bool
	// NumColors is the color count after the repair.
	NumColors int
}

// Colored maintains a proper coloring of a mutable graph. Mutation
// batches are applied through Apply, which repairs the coloring
// incrementally. Colored is not safe for concurrent use.
type Colored struct {
	ov     *Overlay
	opts   Options
	colors []uint32
	// slot is RepairColors' dense dirty index (-1 = not dirty), kept
	// across Applies and grown with the overlay.
	slot []int32

	numColors    int
	repairs      int
	fullRecolors int
}

// NewColored builds the initial coloring of base with a full JP-ADG
// run and wraps it for incremental maintenance.
func NewColored(base *graph.Graph, opts Options) *Colored {
	c := &Colored{ov: NewOverlay(base), opts: opts.withDefaults()}
	colors, _ := c.fullColor(base)
	c.colors = colors
	c.numColors = countColors(colors)
	return c
}

// Overlay exposes the underlying mutable graph (read-only use).
func (c *Colored) Overlay() *Overlay { return c.ov }

// Version returns the overlay version.
func (c *Colored) Version() uint64 { return c.ov.Version() }

// NumColors returns the current coloring's distinct color count.
func (c *Colored) NumColors() int { return c.numColors }

// FullRecolors returns how many Applies fell back to a full recolor.
func (c *Colored) FullRecolors() int { return c.fullRecolors }

// Repairs returns how many Applies ran the localized repair pass.
func (c *Colored) Repairs() int { return c.repairs }

// Colors returns a copy of the maintained coloring (a copy so later
// Applies cannot race with a caller still reading the slice).
func (c *Colored) Colors() []uint32 {
	return append([]uint32(nil), c.colors...)
}

// Snapshot materializes the current graph (memoized per version).
func (c *Colored) Snapshot() (*graph.Graph, error) {
	return c.ov.Snapshot(c.opts.Procs)
}

// AdoptColors replaces the maintained coloring with an externally
// improved one — the recolor worker's adoption hook. The overlay
// version is untouched: an adoption changes which proper coloring is
// maintained, not the graph, so mutation semantics (version-keyed
// caches, WAL continuity, replication watermarks) see nothing. The
// candidate must be proper on the current graph and use STRICTLY fewer
// colors than the maintained coloring; anything else is rejected so a
// racing mutation or a buggy improvement pass can never regress
// quality. Returns how many colors the adoption saved.
func (c *Colored) AdoptColors(colors []uint32) (int, error) {
	g, err := c.ov.Snapshot(c.opts.Procs)
	if err != nil {
		return 0, err
	}
	if len(colors) != g.NumVertices() {
		return 0, fmt.Errorf("dynamic: adopt: %d colors for %d vertices", len(colors), g.NumVertices())
	}
	if err := verify.CheckProper(g, colors); err != nil {
		return 0, fmt.Errorf("dynamic: adopt: candidate coloring invalid: %v", err)
	}
	nc := countColors(colors)
	if nc >= c.numColors {
		return 0, fmt.Errorf("dynamic: adopt: candidate uses %d colors, not strictly fewer than the maintained %d", nc, c.numColors)
	}
	saved := c.numColors - nc
	c.colors = append([]uint32(nil), colors...)
	c.numColors = nc
	return saved, nil
}

// fullColor runs the static pipeline: ADG ordering, then JP.
func (c *Colored) fullColor(g *graph.Graph) ([]uint32, int) {
	ord := order.ADG(g, order.ADGOptions{
		Epsilon: c.opts.Epsilon, Procs: c.opts.Procs, Seed: c.opts.Seed, Sorted: true,
	})
	res := jp.Color(g, ord, c.opts.Procs)
	return res.Colors, res.Rounds
}

// Apply applies the batch to the graph and repairs the coloring.
//
// Properness is an invariant: a proper coloring stays proper under
// deletions, so the only possible violations are the batch's inserted
// monochromatic edges (plus new vertices, which start uncolored). Those
// endpoints form the dirty frontier; the localized pass recolors
// exactly that set under ADG (Algorithm 1) priorities computed on its
// induced subgraph, reading (never writing) the distance-1 fixed
// neighborhood. Each dirty vertex receives the smallest color unused by
// any current neighbor, so no new conflict can appear and the repaired
// coloring is proper by construction (verified before returning).
func (c *Colored) Apply(b Batch) (*Result, error) {
	diff, err := c.ov.Apply(b)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Version:      c.ov.Version(),
		AddedEdges:   len(diff.Added),
		RemovedEdges: len(diff.Removed),
		NewVertices:  diff.NewVertices,
	}
	n := c.ov.NumVertices()
	for i := 0; i < diff.NewVertices; i++ {
		c.colors = append(c.colors, 0)
	}
	p := c.opts.Procs

	// Conflict frontier, in parallel over the materialized insertions:
	// an inserted edge conflicts iff both endpoints are colored equal.
	// par.Pack keeps index order, so the frontier is deterministic.
	colors := c.colors
	conflicts := par.Pack(p, len(diff.Added), func(i int) bool {
		e := diff.Added[i]
		return colors[e.U] != 0 && colors[e.U] == colors[e.V]
	})
	res.ConflictEdges = len(conflicts)

	// Dirty set: conflict endpoints plus the new vertices.
	dirty := make([]uint32, 0, 2*len(conflicts)+diff.NewVertices)
	for _, ci := range conflicts {
		e := diff.Added[ci]
		dirty = append(dirty, e.U, e.V)
	}
	for v := n - diff.NewVertices; v < n; v++ {
		dirty = append(dirty, uint32(v))
	}
	dirty = dedupSorted(dirty)
	res.Dirty = dirty
	if len(dirty) == 0 {
		res.NumColors = c.numColors
		return res, nil
	}

	if c.opts.FallbackFraction >= 0 && float64(len(dirty)) > c.opts.FallbackFraction*float64(n) {
		if err := c.fallbackRecolor(res); err != nil {
			return nil, err
		}
	} else {
		c.repairLocal(res)
		c.repairs++
	}
	c.numColors = countColors(c.colors)
	res.NumColors = c.numColors
	if err := c.checkDirtyProper(dirty); err != nil {
		return nil, err
	}
	return res, nil
}

// fallbackRecolor recomputes the whole coloring from scratch.
func (c *Colored) fallbackRecolor(res *Result) error {
	g, err := c.ov.Snapshot(c.opts.Procs)
	if err != nil {
		return err
	}
	fresh, rounds := c.fullColor(g)
	res.Fallback = true
	res.Rounds = rounds
	res.Repaired = par.Count(c.opts.Procs, len(fresh), func(v int) bool {
		return fresh[v] != c.colors[v]
	})
	c.colors = fresh
	c.fullRecolors++
	return nil
}

// repairLocal recolors exactly res.Dirty over the overlay; see
// RepairColors for the engine itself.
func (c *Colored) repairLocal(res *Result) {
	for len(c.slot) < c.ov.NumVertices() {
		c.slot = append(c.slot, -1)
	}
	repaired, rounds := RepairColors(c.ov, c.colors, res.Dirty, c.slot, c.opts, c.ov.Version())
	res.Repaired = repaired
	res.Rounds = rounds
}

// RepairColors recolors exactly dirty in place: JP over the
// dirty-induced subgraph under the paper's Algorithm 1 ADG ordering of
// that subgraph (the removal round is the rank, and a random
// permutation ρ_R seeded with opts.Seed+salt breaks ties inside a
// round), with the fixed distance-1 neighborhood contributing
// forbidden colors. The seeded ties keep the subgraph's JP DAG
// shallow; ADG-O's vertex-ID ties would chain along rows of a grid.
// Writes stay inside the dirty set; reads stay inside its distance-1
// closure, so a proper coloring of the non-dirty region stays proper
// and every dirty vertex ends properly colored (each receives the
// smallest color unused by any current neighbor, with adjacent dirty
// vertices sequenced by the priority DAG).
//
// src is any adjacency source — the mutable Overlay on the mutation
// path, a plain CSR graph on the static speculate-and-repair path.
// dirty must be sorted ascending and duplicate-free. slot is a dense
// index owned by the caller, with len(slot) >= src.NumVertices() and
// every entry -1 ("not dirty"); the call maps each dirty vertex to its
// local index there and restores every touched entry to -1 before it
// returns, so one slot array serves any number of calls.
//
// The result is a deterministic function of (opts.Seed, salt, dirty,
// colors): it is bit-identical at any worker count. It returns how
// many colors actually changed and the localized JP pass's round
// count.
func RepairColors(src Source, colors, dirty []uint32, slot []int32, opts Options, salt uint64) (repaired, rounds int) {
	opts = opts.withDefaults()
	p := opts.Procs
	nd := len(dirty)
	vol := 0
	for i, v := range dirty {
		slot[v] = int32(i)
		vol += src.Degree(v)
	}

	// Gather every dirty vertex's merged neighborhood once into one
	// arena (the whole distance-1 read budget) and, in the same pass,
	// the induced subgraph as CSR. Local indices follow the sorted
	// dirty order, so each local row comes out sorted.
	arena := make([]uint32, 0, vol)
	subAdj := make([]uint32, 0, vol)
	nbrOff := make([]int64, nd+1)
	subOff := make([]int64, nd+1)
	maxDeg := 0
	for i, v := range dirty {
		lo := len(arena)
		arena = src.AppendNeighbors(arena, v)
		for _, u := range arena[lo:] {
			if j := slot[u]; j >= 0 {
				subAdj = append(subAdj, uint32(j))
			}
		}
		maxDeg = max(maxDeg, len(arena)-lo)
		nbrOff[i+1] = int64(len(arena))
		subOff[i+1] = int64(len(subAdj))
	}
	sub, err := graph.FromCSR(subOff, subAdj)
	if err != nil {
		panic(fmt.Sprintf("dynamic: induced subgraph (dirty set must be sorted and duplicate-free): %v", err))
	}
	keys := order.ADG(sub, order.ADGOptions{
		Epsilon: opts.Epsilon, Procs: p, Seed: opts.Seed + salt,
	}).Keys
	counts := order.PredCounts(sub, keys, p)
	frontier := par.Pack(p, nd, func(i int) bool { return counts[i] == 0 })

	newCol := make([]uint32, nd)
	type workerState struct {
		stamp []uint64
		epoch uint64
		next  []uint32
	}
	states := make([]*workerState, p)
	for w := range states {
		states[w] = &workerState{stamp: make([]uint64, maxDeg+2)}
	}
	nextCounts := make([]int32, p)
	nextOffs := make([]int64, p+1)
	for len(frontier) > 0 {
		rounds++
		fr := frontier
		par.ForWorkers(p, len(fr), func(w, lo, hi int) {
			st := states[w]
			for fi := lo; fi < hi; fi++ {
				i := fr[fi]
				ns := arena[nbrOff[i]:nbrOff[i+1]]
				deg := len(ns)
				st.epoch++
				for _, u := range ns {
					var cu uint32
					if j := slot[u]; j >= 0 {
						cu = newCol[j] // 0 until that dirty vertex is colored
					} else {
						cu = colors[u] // fixed distance-1 neighbor
					}
					if cu != 0 && int(cu) <= deg+1 {
						st.stamp[cu] = st.epoch
					}
				}
				nc := uint32(1)
				for st.stamp[nc] == st.epoch {
					nc++
				}
				newCol[i] = nc
				ki := keys[i]
				for _, j := range sub.Neighbors(i) {
					if keys[j] < ki && par.Join(&counts[j]) {
						st.next = append(st.next, j)
					}
				}
			}
		})
		// Deterministic frontier compaction in worker order (the same
		// scheme as jp.ColorContext).
		for w, st := range states {
			nextCounts[w] = int32(len(st.next))
		}
		total := par.PrefixSumInt32(1, nextCounts, nextOffs)
		nf := make([]uint32, total)
		for w, st := range states {
			copy(nf[nextOffs[w]:nextOffs[w+1]], st.next)
			st.next = st.next[:0]
		}
		frontier = nf
	}

	for i, v := range dirty {
		slot[v] = -1
		if colors[v] != newCol[i] {
			colors[v] = newCol[i]
			repaired++
		}
	}
	return repaired, rounds
}

// checkDirtyProper asserts the repair invariant on the region it could
// have broken: every dirty vertex is colored and differs from all of
// its merged neighbors. O(vol(dirty)) — cheap enough to always run.
func (c *Colored) checkDirtyProper(dirty []uint32) error {
	var buf []uint32
	for _, v := range dirty {
		if c.colors[v] == 0 {
			return fmt.Errorf("dynamic: vertex %d left uncolored by repair", v)
		}
		buf = c.ov.AppendNeighbors(buf[:0], v)
		for _, u := range buf {
			if c.colors[u] == c.colors[v] {
				return fmt.Errorf("dynamic: repair left edge (%d,%d) monochromatic with color %d", v, u, c.colors[v])
			}
		}
	}
	return nil
}

// countColors counts distinct colors (uncolored vertices excluded).
func countColors(colors []uint32) int {
	max := uint32(0)
	for _, c := range colors {
		if c > max {
			max = c
		}
	}
	seen := make([]bool, max+1)
	cnt := 0
	for _, c := range colors {
		if c != 0 && !seen[c] {
			seen[c] = true
			cnt++
		}
	}
	return cnt
}

// dedupSorted sorts s and removes duplicates in place.
func dedupSorted(s []uint32) []uint32 {
	if len(s) < 2 {
		return s
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}
