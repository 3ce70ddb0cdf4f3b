package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/verify"
	"repro/internal/xrand"
)

// Batch shapes: the measured writers send 32 inserts + 32 deletes; the
// prefill that pushes the WAL past the fold threshold sends 1024 + 1024,
// so it gets there in a few hundred requests.
const (
	batchEdges   = 32
	prefillEdges = 1024
)

// mutator generates mutation batches for one graph and keeps the
// client's own replica of it: the base graph plus the inserted edges
// still present. Inserts are always new edges; deletes remove the
// oldest surviving inserts, so the edge count stays nearly constant and
// base edges are never removed.
type mutator struct {
	base    *graph.Graph
	rng     *xrand.RNG
	present map[uint64]struct{}
	fifo    []graph.Edge
	version uint64
	// log[v-1] is the batch that produced version v.
	log []loggedBatch
}

type loggedBatch struct{ add, del []graph.Edge }

func edgeKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func newMutator(base *graph.Graph, seed uint64) *mutator {
	return &mutator{base: base, rng: xrand.New(seed), present: map[uint64]struct{}{}}
}

// next draws the next batch: up to nDel of the oldest inserts deleted,
// nIns fresh edges inserted. It does not change the replica; commit
// does, once the server acked the batch.
func (m *mutator) next(nIns, nDel int) (service.MutateRequest, loggedBatch) {
	var lb loggedBatch
	if nDel > len(m.fifo) {
		nDel = len(m.fifo)
	}
	lb.del = append(lb.del, m.fifo[:nDel]...)
	n := uint32(m.base.NumVertices())
	drawn := map[uint64]struct{}{}
	for len(lb.add) < nIns {
		u, v := m.rng.Uint32n(n), m.rng.Uint32n(n)
		k := edgeKey(u, v)
		if u == v || m.base.HasEdge(u, v) {
			continue
		}
		if _, ok := m.present[k]; ok {
			continue
		}
		if _, ok := drawn[k]; ok {
			continue
		}
		drawn[k] = struct{}{}
		lb.add = append(lb.add, graph.Edge{U: u, V: v})
	}
	req := service.MutateRequest{}
	for _, e := range lb.del {
		req.DelEdges = append(req.DelEdges, [2]uint32{e.U, e.V})
	}
	for _, e := range lb.add {
		req.AddEdges = append(req.AddEdges, [2]uint32{e.U, e.V})
	}
	return req, lb
}

// commit applies an acked batch to the replica.
func (m *mutator) commit(lb loggedBatch) {
	for _, e := range lb.del {
		delete(m.present, edgeKey(e.U, e.V))
	}
	m.fifo = m.fifo[len(lb.del):]
	for _, e := range lb.add {
		m.present[edgeKey(e.U, e.V)] = struct{}{}
	}
	m.fifo = append(m.fifo, lb.add...)
	m.version++
	m.log = append(m.log, lb)
}

// edges is the replica's edge count.
func (m *mutator) edges() int64 { return m.base.NumEdges() + int64(len(m.present)) }

// write posts one batch to url and checks the ack against the replica:
// the next version, the replica's edge count, durability and the
// replica count the deployment promises. It returns the request latency
// (0 on failure).
func (b *bench) write(url string, m *mutator, nIns, nDel int, wantReplicated int) time.Duration {
	req, lb := m.next(nIns, nDel)
	body, err := json.Marshal(req)
	if err != nil {
		b.fail("mutate: %v", err)
		return 0
	}
	b.attempted.Add(1)
	id := b.tr.begin("mutate.http", fmt.Sprintf("mutate-v%d", m.version+1), 0)
	status, out, d, err := post(url, body)
	b.tr.end(id)
	if err != nil {
		b.fail("mutate v%d: %v", m.version+1, err)
		return 0
	}
	if status != http.StatusOK {
		b.fail("mutate v%d: HTTP %d %s", m.version+1, status, truncate(out))
		return 0
	}
	var resp service.MutateResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		b.fail("mutate v%d: %v", m.version+1, err)
		return 0
	}
	m.commit(lb)
	switch {
	case resp.Version != m.version:
		b.fail("mutate: acked version %d, want %d", resp.Version, m.version)
	case resp.M != m.edges():
		b.fail("mutate v%d: server has %d edges, replica %d", m.version, resp.M, m.edges())
	case !resp.Persisted:
		b.fail("mutate v%d: not persisted", m.version)
	case resp.Replicated != wantReplicated:
		b.fail("mutate v%d: replicated to %d nodes, want %d", m.version, resp.Replicated, wantReplicated)
	default:
		return d
	}
	return 0
}

// colorChange is one vertex whose color differs from the previous read.
type colorChange struct{ v, c uint32 }

// readEntry is one maintained-coloring read, stored as its change
// against the read before it.
type readEntry struct {
	version   uint64
	numColors int
	diff      []colorChange
}

// readLog records every maintained coloring read during a phase: the
// first in full, each later one that differs from the one before as a
// sparse diff against it, so a run's reads fit in memory whatever their
// count. A read byte-identical to the one before carries nothing new to
// check.
type readLog struct {
	n        int
	first    []uint32
	firstVer uint64
	firstNC  int
	prev     []uint32
	prevBody []byte
	entries  []readEntry
}

func (r *readLog) add(body []byte) error {
	if r.first != nil && bytes.Equal(body, r.prevBody) {
		return nil
	}
	r.prevBody = append(r.prevBody[:0], body...)
	version, _, _, numColors, colors, err := service.DecodeColorBin(body)
	if err != nil {
		return err
	}
	if len(colors) != r.n {
		return fmt.Errorf("%d colors for %d vertices", len(colors), r.n)
	}
	if r.first == nil {
		r.first, r.firstVer, r.firstNC, r.prev = colors, version, numColors, colors
		return nil
	}
	e := readEntry{version: version, numColors: numColors}
	for v, c := range colors {
		if r.prev[v] != c {
			e.diff = append(e.diff, colorChange{uint32(v), c})
		}
	}
	r.prev = colors
	r.entries = append(r.entries, e)
	return nil
}

// replica is the client's graph moved to any logged version: the base
// graph plus the inserted edges present at that version.
type replica struct {
	m       *mutator
	at      uint64
	present map[uint64]struct{}
}

// seek moves the replica to version v (forward or back).
func (r *replica) seek(v uint64) {
	for ; r.at < v; r.at++ {
		lb := r.m.log[r.at]
		for _, e := range lb.del {
			delete(r.present, edgeKey(e.U, e.V))
		}
		for _, e := range lb.add {
			r.present[edgeKey(e.U, e.V)] = struct{}{}
		}
	}
	for ; r.at > v; r.at-- {
		lb := r.m.log[r.at-1]
		for _, e := range lb.add {
			delete(r.present, edgeKey(e.U, e.V))
		}
		for _, e := range lb.del {
			r.present[edgeKey(e.U, e.V)] = struct{}{}
		}
	}
}

// checkInserted checks every inserted edge present at the replica's
// version, and numColors against the coloring.
func (r *replica) checkInserted(colors []uint32, numColors int) error {
	for k := range r.present {
		u, v := uint32(k>>32), uint32(k)
		if colors[u] == colors[v] {
			return fmt.Errorf("inserted edge (%d,%d) is monochromatic (color %d)", u, v, colors[u])
		}
	}
	if numColors != verify.NumColors(colors) {
		return fmt.Errorf("header says %d colors, coloring has %d", numColors, verify.NumColors(colors))
	}
	return nil
}

// checkReads verifies every maintained coloring read during a phase
// against the replica at that coloring's version. The first coloring is
// checked in full; each later one on the base edges of the vertices that
// changed color and on every inserted edge present, which together cover
// every edge that could have become monochromatic.
func (b *bench) checkReads(m *mutator, rl *readLog) {
	if rl.first == nil {
		return
	}
	rep := &replica{m: m, present: map[uint64]struct{}{}}
	valid := func(v uint64) bool {
		if v == 0 || v > m.version {
			b.fail("maintained read at version %d, acked versions are 1..%d", v, m.version)
			return false
		}
		return true
	}
	if !valid(rl.firstVer) {
		return
	}
	colors := append([]uint32(nil), rl.first...)
	rep.seek(rl.firstVer)
	if err := verify.CheckProper(m.base, colors); err != nil {
		b.fail("maintained read at version %d: %v", rl.firstVer, err)
		return
	}
	if err := rep.checkInserted(colors, rl.firstNC); err != nil {
		b.fail("maintained read at version %d: %v", rl.firstVer, err)
		return
	}
	for _, e := range rl.entries {
		if !valid(e.version) {
			return
		}
		rep.seek(e.version)
		for _, ch := range e.diff {
			colors[ch.v] = ch.c
		}
		for _, ch := range e.diff {
			for _, w := range m.base.Neighbors(ch.v) {
				if colors[w] == ch.c {
					b.fail("maintained read at version %d: edge (%d,%d) is monochromatic (color %d)", e.version, ch.v, w, ch.c)
					return
				}
			}
		}
		if err := rep.checkInserted(colors, e.numColors); err != nil {
			b.fail("maintained read at version %d: %v", e.version, err)
			return
		}
	}
}

// mixResult is what a writer+reader phase measured.
type mixResult struct {
	writes, reads series
	// wall is the measured time: the phase's length minus the time the
	// fold guard spent re-priming the WAL.
	wall    time.Duration
	refills int
}

// foldGuard keeps a durable node's measured batches past the WAL fold
// threshold. When a fold commits (the WAL resets to empty), the guard
// pushes the WAL back past the threshold with prefill batches before the
// next measured batch; that time is not measured.
type foldGuard struct {
	b       *bench
	n       *durableNode
	commits int64
}

func newFoldGuard(b *bench, n *durableNode) *foldGuard {
	return &foldGuard{b: b, n: n, commits: n.srv.Store().Stats().Compactions}
}

func (g *foldGuard) folded() bool { return g.n.srv.Store().Stats().Compactions != g.commits }

func (g *foldGuard) refill() error {
	err := g.b.prefill(g.n)
	g.commits = g.n.srv.Store().Stats().Compactions
	return err
}

// mix runs 1 writer posting batchEdges+batchEdges batches to writeURL
// beside 1 reader of readURL. stop is asked before every write with the
// writes done and the measured time so far. guard, when non-nil, checks
// after every write whether a fold committed, and then re-primes the WAL
// with the reader held off. Afterwards every read and the final
// maintained coloring are checked.
func (b *bench) mix(writeURL, readURL string, m *mutator, wantReplicated int, guard *foldGuard, stop func(writes int, measured time.Duration) bool) (mixResult, int) {
	var res mixResult
	rl := &readLog{n: m.base.NumVertices()}
	var done atomic.Bool
	var gate sync.RWMutex
	var paused atomic.Int64 // ns the fold guard spent re-priming
	t0 := time.Now()
	measured := func() time.Duration { return time.Since(t0) - time.Duration(paused.Load()) }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for k := 0; ; k++ {
			gate.RLock()
			if done.Load() {
				gate.RUnlock()
				return
			}
			b.attempted.Add(1)
			id := b.tr.begin("maintained.http", fmt.Sprintf("read-%d", k), 0)
			status, body, d, err := get(readURL, &buf)
			b.tr.end(id)
			gate.RUnlock()
			switch {
			case err != nil:
				b.fail("maintained read: %v", err)
			case status != http.StatusOK:
				b.fail("maintained read: HTTP %d %s", status, truncate(body))
			default:
				if err := rl.add(body); err != nil {
					b.fail("maintained read: %v", err)
					continue
				}
				res.reads.add(measured(), d)
			}
		}
	}()
	for n := 0; !stop(n, measured()); n++ {
		if d := b.write(writeURL, m, batchEdges, batchEdges, wantReplicated); d > 0 {
			res.writes.add(measured(), d)
		} else if b.failed.Load() > 0 {
			break
		}
		if guard != nil && guard.folded() {
			gate.Lock()
			p0 := time.Now()
			err := guard.refill()
			paused.Add(int64(time.Since(p0)))
			gate.Unlock()
			res.refills++
			if err != nil {
				b.fail("re-priming the WAL: %v", err)
				break
			}
		}
	}
	done.Store(true)
	wg.Wait()
	res.wall = measured()

	b.checkReads(m, rl)
	// The final maintained coloring must be at the last acked version
	// and proper on the fully replayed graph.
	b.attempted.Add(1)
	status, body, _, err := get(readURL, nil)
	if err != nil || status != http.StatusOK {
		b.fail("final maintained read: HTTP %d %v", status, err)
		return res, 0
	}
	final := &readLog{n: m.base.NumVertices()}
	if err := final.add(body); err != nil {
		b.fail("final maintained read: %v", err)
		return res, 0
	}
	if final.firstVer != m.version {
		b.fail("final maintained coloring at version %d, want %d", final.firstVer, m.version)
	}
	b.checkReads(m, final)
	return res, final.firstNC
}

// reportMix sets the write_* and maintained_colors metrics, and the
// read_* ones when the phase's reads are the workload's read class.
func (b *bench) reportMix(res mixResult, maintained int, reads bool) {
	b.e2e("write_rps", res.writes.rate(res.wall), "1/s")
	b.e2e("write_p50_ms", ms(res.writes.q(res.wall, 0.5)), "ms")
	b.e2e("write_p90_ms", ms(res.writes.q(res.wall, 0.9)), "ms")
	b.note("write_p99_ms", ms(res.writes.lat.quantile(0.99)), "ms")
	b.note("write_requests", float64(len(res.writes.lat)), "count")
	b.note("fold_refills", float64(res.refills), "count")
	if reads {
		b.reportReads(res.reads, res.wall)
	}
	b.e2e("maintained_colors", float64(maintained), "colors")
}

// durableNode is one server with a data directory holding the mutated
// graph, already carrying a maintained coloring (version 1).
type durableNode struct {
	srv *service.Server
	ts  *httptest.Server
	m   *mutator
}

func (n *durableNode) close() {
	n.ts.Close()
	_ = n.srv.Close(context.Background())
}

func (n *durableNode) writeURL() string { return n.ts.URL + "/v1/graphs/dyn/mutate" }
func (n *durableNode) readURL() string {
	return n.ts.URL + "/v1/color/bin?graph=dyn&algorithm=maintained"
}

// dynSpec is the mutated graph of the write workloads.
func dynSpec(seed uint64) string { return fmt.Sprintf("kron:14:16:%d", specSeed(seed)) }

// startDurable boots a server on a fresh data directory, registers the
// graph and applies the first batch, which builds the maintained
// coloring.
func (b *bench) startDurable(base *graph.Graph) (*durableNode, error) {
	dir, err := b.newDir("durable-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	srv := newServer()
	srv.AttachStore(st)
	if _, err := srv.RegisterSpec("dyn", dynSpec(b.seed)); err != nil {
		_ = srv.Close(context.Background())
		return nil, err
	}
	n := &durableNode{srv: srv, ts: httptest.NewServer(srv.Handler()), m: newMutator(base, b.seed)}
	if b.write(n.writeURL(), n.m, batchEdges, 0, 0) == 0 {
		n.close()
		return nil, fmt.Errorf("first batch failed")
	}
	return n, nil
}

// prefill pushes the WAL past store.DefaultCompactBytes with large
// batches, so the phase that follows runs in the post-threshold regime
// where every batch schedules a fold.
func (b *bench) prefill(n *durableNode) error {
	for i := 0; ; i++ {
		if st := n.srv.Store().Stats(); st.WALBytes >= store.DefaultCompactBytes {
			b.note("prefill_batches", float64(i), "count")
			return nil
		}
		if i > 4096 {
			return fmt.Errorf("WAL still below %d bytes after %d prefill batches", store.DefaultCompactBytes, i)
		}
		if b.write(n.writeURL(), n.m, prefillEdges, prefillEdges, 0) == 0 {
			return fmt.Errorf("prefill batch failed")
		}
	}
}

// probeSeconds is how long the write probe measures.
const probeSeconds = 3

// measuredFor stops a mix once d has been measured, or after three times
// d of wall time, whichever comes first.
func measuredFor(d time.Duration) func(int, time.Duration) bool {
	deadline := time.Now().Add(3 * d)
	return func(_ int, measured time.Duration) bool {
		return measured >= d || !time.Now().Before(deadline)
	}
}

// mutateProbe measures the write class for workloads whose own traffic
// lacks it: the mutate-durable set-up, prefill and probeSeconds of its
// mix.
func (b *bench) mutateProbe() error {
	base, err := service.BuildSpec(dynSpec(b.seed))
	if err != nil {
		return err
	}
	n, err := b.startDurable(base)
	if err != nil {
		return err
	}
	defer n.close()
	if err := b.prefill(n); err != nil {
		return err
	}
	var res mixResult
	var maintained int
	measure(func() {
		res, maintained = b.mix(n.writeURL(), n.readURL(), n.m, 0, newFoldGuard(b, n), measuredFor(probeSeconds*time.Second))
	})
	b.reportMix(res, maintained, false)
	return nil
}

// mutateDurable is the mutate-durable workload.
func mutateDurable(b *bench) error {
	if !b.traced {
		if err := b.coldProbe(); err != nil {
			return err
		}
	}
	base, err := service.BuildSpec(dynSpec(b.seed))
	if err != nil {
		return err
	}
	n, err := setupMedian(b, func() (*durableNode, error) { return b.startDurable(base) }, (*durableNode).close)
	if err != nil {
		return err
	}
	if err := b.prefill(n); err != nil {
		n.close()
		return err
	}
	before := n.srv.Store().Stats()
	var res mixResult
	var maintained int
	cost := measure(func() {
		res, maintained = b.mix(n.writeURL(), n.readURL(), n.m, 0, newFoldGuard(b, n), measuredFor(b.dur()))
	})
	after := n.srv.Store().Stats()
	n.close()
	b.note("fold_commits_in_phase", float64(after.Compactions-before.Compactions), "count")
	b.note("wal_bytes_at_start", float64(before.WALBytes), "bytes")
	b.note("wal_bytes_at_end", float64(after.WALBytes), "bytes")
	b.runtimeFigures(cost)
	b.reportMix(res, maintained, true)
	return nil
}
