package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/harness"
	"repro/internal/jp"
	"repro/internal/order"
	"repro/internal/service"
	"repro/internal/speculate"
	"repro/internal/store"
	"repro/internal/verify"
)

// Repetitions of the per-layer measurements. Cold calls cost tens of
// milliseconds each, so they repeat least.
const (
	coldReps   = 2
	warmReps   = 2000
	writeReps  = 200
	snapReps   = 5
	hitBatch   = 200
	adgEpsilon = 0.01
)

// budget is one request class's layer budget: the class's in-process
// end-to-end cost per request, and the cost of each part, each timed as
// a separate call into the layer that does that part of the work.
type budget struct {
	e2e   samples
	parts map[string]samples
	names []string
}

func newBudget() *budget { return &budget{parts: map[string]samples{}} }

func (bu *budget) add(name string, d time.Duration) {
	if _, ok := bu.parts[name]; !ok {
		bu.names = append(bu.names, name)
	}
	bu.parts[name] = append(bu.parts[name], d)
}

func (bu *budget) part(name string) time.Duration { return bu.parts[name].quantile(0.5) }

// attributed sums the parts' medians.
func (bu *budget) attributed() time.Duration {
	var t time.Duration
	for _, n := range bu.names {
		t += bu.part(n)
	}
	return t
}

// overhead accumulates the same composed requests run with and without
// span recording, for trace.overhead_ratio.
type overhead struct{ traced, untraced time.Duration }

// compose runs one composed request: a root span whose children are the
// parts, each a call into one layer. Every other request runs with span
// recording off; o collects both totals.
func (b *bench) compose(o *overhead, k int, class, req string, parts func(tr *tracer, root int)) {
	tr := b.tr
	if k%2 == 1 {
		tr = nil
	}
	d := tr.call(class+".request", req, 0, func(root int) { parts(tr, root) })
	if tr == nil {
		o.untraced += d
	} else {
		o.traced += d
	}
}

// handle runs one request through h into a recorder and times it.
func handle(h http.Handler, method, target string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	d := timeIt(func() { h.ServeHTTP(rec, r) })
	return rec, d
}

// writeBody times writing a response body of the same size into a
// fresh recorder: the cost of the payload write the handler does.
func writeBody(body []byte) time.Duration {
	rec := httptest.NewRecorder()
	return timeIt(func() { _, _ = rec.Write(body) })
}

// envelope times one request to a path the colord mux does not route:
// the observability envelope, mux dispatch and a plain 404, which is the
// overhead every request pays around its endpoint's own work.
func envelope(tr *tracer, req string, root int, h http.Handler) time.Duration {
	r := httptest.NewRequest(http.MethodGet, "/perfbench-envelope", nil)
	rec := httptest.NewRecorder()
	return tr.call("service.envelope", req, root, func(int) { h.ServeHTTP(rec, r) })
}

// layers records every per-layer metric and each class's unattributed
// ratio.
func (b *bench) layers() error {
	var o overhead
	if err := b.coldLayers(&o); err != nil {
		return fmt.Errorf("cold layers: %w", err)
	}
	socket, env, err := b.warmLayers(&o)
	if err != nil {
		return fmt.Errorf("warm layers: %w", err)
	}
	w, err := b.writeLayers(&o)
	if err != nil {
		return fmt.Errorf("write layers: %w", err)
	}
	if err := b.clusterLayers(w, socket, env); err != nil {
		return fmt.Errorf("cluster layers: %w", err)
	}
	b.layer("trace.overhead_ratio", float64(o.traced-o.untraced)/float64(o.untraced), "ratio")
	return nil
}

// coldLayers times the engines per family and the cold request path.
func (b *bench) coldLayers(o *overhead) error {
	cs, err := newColdSuite(b)
	if err != nil {
		return err
	}
	n, err := cs.start()
	if err != nil {
		return err
	}
	defer n.close()
	h := n.srv.Handler()
	seed := b.seed
	var e2eSum, partSum time.Duration
	for fi, f := range cs.fams {
		g := f.g
		arcs := float64(g.NumArcs())
		perFam := map[string]*budget{}
		var adgIters, jpRounds int
		var firstTry float64
		for rep := 0; rep < coldReps; rep++ {
			for _, algo := range coldAlgos {
				bu := perFam[algo]
				if bu == nil {
					bu = newBudget()
					perFam[algo] = bu
				}
				target := cs.url("", coldKey{fi, algo})
				req := fmt.Sprintf("cold-%s-%s-%d", f.name, algo, rep)
				b.attempted.Add(1)
				id := b.tr.begin("cold.handler", req, 0)
				rec, d := handle(h, http.MethodGet, target, nil)
				b.tr.end(id)
				if rec.Code != http.StatusOK {
					b.fail("cold handler %s/%s: HTTP %d", f.name, algo, rec.Code)
					continue
				}
				cs.check(coldKey{fi, algo}, rec.Code, rec.Body.Bytes())
				bu.e2e = append(bu.e2e, d)
				body := rec.Body.Bytes()
				b.compose(o, rep, "cold", req, func(tr *tracer, root int) {
					var colors []uint32
					switch algo {
					case "JP-ADG":
						var ord *order.Ordering
						bu.add("order.adg", tr.call("order.adg", req, root, func(int) {
							ord = order.ADG(g, order.ADGOptions{Epsilon: adgEpsilon, Seed: seed, Sorted: true})
						}))
						var res *jp.Result
						bu.add("jp.color", tr.call("jp.color", req, root, func(int) { res = jp.Color(g, ord, 0) }))
						colors, adgIters, jpRounds = res.Colors, ord.Iterations, res.Rounds
					case "SPEC-ADG":
						var res *speculate.Result
						var serr error
						bu.add("speculate.color", tr.call("speculate.color", req, root, func(int) {
							res, serr = speculate.Color(g, speculate.Options{Seed: seed, Epsilon: adgEpsilon})
						}))
						if serr != nil {
							b.fail("speculate %s: %v", f.name, serr)
							return
						}
						colors = res.Colors
						firstTry = 1 - float64(res.Conflicts)/float64(g.NumVertices())
					case "JP-R":
						var ord *order.Ordering
						bu.add("order.random", tr.call("order.random", req, root, func(int) { ord = order.Random(g, seed) }))
						var res *jp.Result
						bu.add("jp.color", tr.call("jp.color", req, root, func(int) { res = jp.Color(g, ord, 0) }))
						colors = res.Colors
					case "Greedy-ID":
						var res *greedy.Result
						bu.add("greedy.id", tr.call("greedy.id", req, root, func(int) { res = greedy.ID(g) }))
						colors = res.Colors
					}
					var verr error
					bu.add("verify.check", tr.call("verify.check", req, root, func(int) { verr = verify.CheckProper(g, colors) }))
					if verr != nil {
						b.fail("cold layer %s/%s: %v", f.name, algo, verr)
					}
					bu.add("service.bin_write", tr.call("service.bin_write", req, root, func(int) { writeBody(body) }))
					bu.add("service.envelope", envelope(tr, req, root, h))
				})
			}
		}
		nsPerArc := func(algo, part string) float64 { return float64(perFam[algo].part(part)) / arcs }
		b.layer("order.adg_ns_per_arc."+f.name, nsPerArc("JP-ADG", "order.adg"), "ns/arc")
		b.layer("order.adg_iterations."+f.name, float64(adgIters), "count")
		b.layer("jp.color_ns_per_arc."+f.name, nsPerArc("JP-ADG", "jp.color"), "ns/arc")
		b.layer("jp.rounds."+f.name, float64(jpRounds), "count")
		b.layer("speculate.ns_per_arc."+f.name, nsPerArc("SPEC-ADG", "speculate.color"), "ns/arc")
		b.layer("speculate.first_try_ratio."+f.name, firstTry, "ratio")
		b.layer("greedy.id_ns_per_arc."+f.name, nsPerArc("Greedy-ID", "greedy.id"), "ns/arc")
		b.layer("verify.ns_per_arc."+f.name, nsPerArc("JP-ADG", "verify.check"), "ns/arc")
		for _, bu := range perFam {
			e2eSum += bu.e2e.quantile(0.5)
			partSum += bu.attributed()
		}
	}
	b.layer("cold.unattributed_ratio", float64(e2eSum-partSum)/float64(e2eSum), "ratio")

	// The serving path from outside: Manager.Color with NoCache, the
	// bare checked engine run, and the same request over loopback HTTP.
	var mgr, run, httpT samples
	var dispatches, runs int64
	for rep := 0; rep < coldReps; rep++ {
		for _, k := range cs.keys {
			f := cs.fams[k.fam]
			creq := service.ColorRequest{Graph: f.name, Algorithm: k.algo, Seed: seed, NoCache: true}
			b.attempted.Add(1)
			var resp *service.ColorResponse
			d := b.tr.call("service.manager_color", "mgr-"+f.name+"-"+k.algo, 0, func(int) {
				resp, err = n.srv.Manager().Color(context.Background(), creq)
			})
			if err != nil {
				b.fail("Manager.Color %s/%s: %v", f.name, k.algo, err)
				continue
			}
			if resp.NumColors != cs.colors[k] {
				b.fail("Manager.Color %s/%s: %d colors, the HTTP path gave %d", f.name, k.algo, resp.NumColors, cs.colors[k])
			}
			mgr = append(mgr, d)
			algo, err := harness.Lookup(k.algo)
			if err != nil {
				return err
			}
			var rr *harness.RunResult
			d = b.tr.call("harness.run_checked", "run-"+f.name+"-"+k.algo, 0, func(int) {
				rr, err = harness.RunChecked(algo, f.g, harness.Config{Seed: seed, Epsilon: adgEpsilon})
			})
			b.attempted.Add(1)
			if err != nil {
				b.fail("RunChecked %s/%s: %v", f.name, k.algo, err)
				continue
			}
			run = append(run, d)
			dispatches += rr.Dispatches
			runs++
			b.attempted.Add(1)
			id := b.tr.begin("cold.http", "http-"+f.name+"-"+k.algo, 0)
			status, body, d, err := get(cs.url(n.ts.URL, k), nil)
			b.tr.end(id)
			if err != nil {
				b.fail("cold http %s/%s: %v", f.name, k.algo, err)
				continue
			}
			cs.check(k, status, body)
			httpT = append(httpT, d)
		}
	}
	b.layer("service.manager_color_ms", ms(mgr.mean()), "ms")
	b.layer("service.cold_overhead_ratio", float64(httpT.sum()-run.sum())/float64(httpT.sum()), "ratio")
	b.layer("par.dispatches_per_run", float64(dispatches)/float64(max(runs, 1)), "count")
	return nil
}

// warmLayers times the warm read path and returns the loopback socket
// cost and the envelope cost for the composed budgets of other classes.
func (b *bench) warmLayers(o *overhead) (socket, env time.Duration, err error) {
	w, err := newWarmSet(b)
	if err != nil {
		return 0, 0, err
	}
	n, err := w.start()
	if err != nil {
		return 0, 0, err
	}
	defer n.close()
	h := n.srv.Handler()
	mgr := n.srv.Manager()
	cache := mgr.Cache()
	before := cache.Stats()
	bu := newBudget()
	var cached, decode, httpT samples
	for k := 0; k < warmReps; k++ {
		i := k % warmKeys
		target := w.path(i)
		req := fmt.Sprintf("warm-%d", k)
		b.attempted.Add(1)
		id := b.tr.begin("warm.handler", req, 0)
		rec, d := handle(h, http.MethodGet, target, nil)
		b.tr.end(id)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), w.ref[i]) {
			b.fail("warm handler key %d: HTTP %d or response differs from the verified one", i, rec.Code)
			continue
		}
		bu.e2e = append(bu.e2e, d)
		creq := service.ColorRequest{Graph: "warm", Algorithm: "JP-ADG", Seed: b.seed + uint64(i), IncludeColors: true}
		b.compose(o, k, "warm", req, func(tr *tracer, root int) {
			bu.add("service.envelope", envelope(tr, req, root, h))
			bu.add("service.query_parse", tr.call("service.query_parse", req, root, func(int) {
				u, _ := url.Parse(target)
				_ = u.Query()
			}))
			var resp *service.ColorResponse
			var merr error
			bu.add("service.manager_color", tr.call("service.manager_color", req, root, func(int) {
				resp, merr = mgr.Color(context.Background(), creq)
			}))
			if merr != nil || !resp.Cached {
				b.fail("warm Manager.Color key %d: err %v, cached %v", i, merr, resp != nil && resp.Cached)
			}
			bu.add("service.bin_write", tr.call("service.bin_write", req, root, func(int) { writeBody(rec.Body.Bytes()) }))
		})
		var ok bool
		cached = append(cached, b.tr.call("service.manager_cached", req, 0, func(int) { _, ok = mgr.ColorCached(creq) }))
		if !ok {
			b.fail("ColorCached key %d: not resident", i)
		}
		decode = append(decode, b.tr.call("service.bin_decode", req, 0, func(int) {
			_, _, _, _, _, err = service.DecodeColorBin(w.ref[i])
		}))
		b.attempted.Add(1)
		hid := b.tr.begin("warm.http", req, 0)
		status, body, d, gerr := get(n.ts.URL+target, nil)
		b.tr.end(hid)
		if gerr != nil || status != http.StatusOK || !bytes.Equal(body, w.ref[i]) {
			b.fail("warm http key %d: HTTP %d %v", i, status, gerr)
			continue
		}
		httpT = append(httpT, d)
	}
	after := cache.Stats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	b.layer("service.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")

	// Cache.Get alone is tens of nanoseconds: time it in batches.
	key := service.Key{Graph: "warm", Algorithm: "JP-ADG", Seed: b.seed, Epsilon: adgEpsilon}
	var gets samples
	for k := 0; k < warmReps/10; k++ {
		var ok bool
		d := b.tr.call("service.cache_get", fmt.Sprintf("get-%d", k), 0, func(int) {
			for j := 0; j < hitBatch; j++ {
				_, ok = cache.Get(key)
			}
		})
		if !ok {
			b.fail("Cache.Get: warm key missing")
		}
		gets = append(gets, d/hitBatch)
	}
	handler := bu.e2e.quantile(0.5)
	socket = httpT.quantile(0.5) - handler
	env = bu.part("service.envelope")
	b.layer("service.handler_us", us(handler), "us")
	b.layer("service.manager_cached_us", us(cached.quantile(0.5)), "us")
	b.layer("service.cache_get_ns", float64(gets.quantile(0.5)), "ns")
	b.layer("service.bin_decode_us", us(decode.quantile(0.5)), "us")
	b.layer("service.socket_us", us(socket), "us")
	b.layer("warm.unattributed_ratio", float64(handler-bu.attributed())/float64(handler), "ratio")
	return socket, env, nil
}

// writeCosts are the medians of the write path's layers, reused by the
// proxied budget.
type writeCosts struct {
	decode, mutate, append, encode time.Duration
}

// writeLayers times the dynamic and store layers, the composed mutate
// budget and the fold behaviour past the WAL threshold.
func (b *bench) writeLayers(o *overhead) (writeCosts, error) {
	var wc writeCosts
	base, err := service.BuildSpec(dynSpec(b.seed))
	if err != nil {
		return wc, err
	}
	// Layer calls on their own objects: a registry entry mutated with no
	// persist hook, and a store the batches are appended to directly.
	reg := service.NewRegistry()
	entry, err := reg.Add("dyn", dynSpec(b.seed), base)
	if err != nil {
		return wc, err
	}
	dir, err := b.newDir("store-")
	if err != nil {
		return wc, err
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return wc, err
	}
	defer st.Close()
	if err := st.Register("dyn", dynSpec(b.seed), nil, false); err != nil {
		return wc, err
	}
	m := newMutator(base, b.seed+1)
	// The first batch builds the maintained coloring: not a steady cost.
	_, lb0 := m.next(batchEdges, 0)
	if _, err := entry.Mutate(dynamic.Batch{AddEdges: lb0.add}, false, nil, nil); err != nil {
		return wc, err
	}
	m.commit(lb0)
	if _, err := st.AppendBatch("dyn", m.version, dynamic.Batch{AddEdges: lb0.add}); err != nil {
		return wc, err
	}

	// The same requests through a durable server's handler, in-process:
	// the class's end-to-end cost, below the fold threshold.
	n, err := b.startDurable(base)
	if err != nil {
		return wc, err
	}
	defer n.close()
	h := n.srv.Handler()
	hm := n.m

	bu := newBudget()
	var dirty, fallbacks int
	for k := 0; k < writeReps; k++ {
		req := fmt.Sprintf("mutate-%d", k)
		hreq, hlb := hm.next(batchEdges, batchEdges)
		hbody, _ := json.Marshal(hreq)
		b.attempted.Add(1)
		id := b.tr.begin("mutate.handler", req, 0)
		rec, d := handle(h, http.MethodPost, "/v1/graphs/dyn/mutate", hbody)
		b.tr.end(id)
		var ack service.MutateResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &ack) != nil {
			b.fail("mutate handler: HTTP %d %s", rec.Code, truncate(rec.Body.Bytes()))
			return wc, nil
		}
		hm.commit(hlb)
		if ack.Version != hm.version || ack.M != hm.edges() || !ack.Persisted {
			b.fail("mutate handler: ack version %d edges %d persisted %v, replica at %d with %d edges",
				ack.Version, ack.M, ack.Persisted, hm.version, hm.edges())
		}
		bu.e2e = append(bu.e2e, d)

		mreq, lb := m.next(batchEdges, batchEdges)
		body, _ := json.Marshal(mreq)
		b.compose(o, k, "mutate", req, func(tr *tracer, root int) {
			bu.add("service.envelope", envelope(tr, req, root, h))
			var parsed service.MutateRequest
			bu.add("service.json_decode", tr.call("service.json_decode", req, root, func(int) { _ = json.Unmarshal(body, &parsed) }))
			batch := dynamic.Batch{DelEdges: lb.del, AddEdges: lb.add}
			var out *service.MutateOutcome
			var merr error
			bu.add("dynamic.mutate", tr.call("dynamic.mutate", req, root, func(int) {
				out, merr = entry.Mutate(batch, false, nil, nil)
			}))
			if merr != nil {
				b.fail("GraphEntry.Mutate: %v", merr)
				return
			}
			m.commit(lb)
			dirty += len(out.Res.Dirty)
			if out.Res.Fallback {
				fallbacks++
			}
			bu.add("store.wal_append", tr.call("store.wal_append", req, root, func(int) {
				_, merr = st.AppendBatch("dyn", m.version, batch)
			}))
			if merr != nil {
				b.fail("Store.AppendBatch: %v", merr)
			}
			bu.add("service.json_encode", tr.call("service.json_encode", req, root, func(int) {
				_, _ = json.Marshal(service.MutateResponse{Graph: "dyn", Version: m.version, DirtyVertices: len(out.Res.Dirty)})
			}))
		})
	}
	wc = writeCosts{decode: bu.part("service.json_decode"), mutate: bu.part("dynamic.mutate"),
		append: bu.part("store.wal_append"), encode: bu.part("service.json_encode")}
	handlerMed := bu.e2e.quantile(0.5)
	b.layer("mutate.unattributed_ratio", float64(handlerMed-bu.attributed())/float64(handlerMed), "ratio")
	b.layer("dynamic.mutate_us", us(wc.mutate), "us")
	b.layer("dynamic.dirty_per_batch", float64(dirty)/float64(writeReps), "count")
	b.layer("dynamic.fallbacks", float64(fallbacks), "count")
	b.layer("store.wal_append_us", us(wc.append), "us")

	// Snapshot rebuild (View at a fresh version) and snapshot write: the
	// two halves of a fold.
	var snap, write samples
	for k := 0; k < snapReps; k++ {
		_, lb := m.next(batchEdges, batchEdges)
		if _, err := entry.Mutate(dynamic.Batch{DelEdges: lb.del, AddEdges: lb.add}, false, nil, nil); err != nil {
			return wc, err
		}
		m.commit(lb)
		var g *graph.Graph
		var version uint64
		snap = append(snap, b.tr.call("dynamic.snapshot", fmt.Sprintf("snap-%d", k), 0, func(int) {
			g, version, err = entry.View()
		}))
		if err != nil {
			return wc, err
		}
		colors, _, _, _ := entry.MaintainedColors()
		path := filepath.Join(dir, fmt.Sprintf("snap-%d.pcs", k))
		write = append(write, b.tr.call("store.snapshot_write", fmt.Sprintf("snap-%d", k), 0, func(int) {
			_, err = store.WriteSnapshotFile(path, g, colors, version)
		}))
		if err != nil {
			return wc, err
		}
	}
	b.layer("dynamic.snapshot_ms", ms(snap.quantile(0.5)), "ms")
	b.layer("store.snapshot_write_ms", ms(write.quantile(0.5)), "ms")

	// Past the threshold: prefill, then the mutate-durable writer for
	// writeReps batches, counting threshold crossings and fold commits
	// from Store.Stats after every batch.
	crossings, commits, walEnd, err := b.foldLoop(n)
	if err != nil {
		return wc, err
	}
	b.layer("store.fold_commits", float64(commits), "count")
	b.layer("store.wal_bytes_end", float64(walEnd), "bytes")
	b.layer("store.fold_commit_ratio", float64(commits)/float64(max(crossings, 1)), "ratio")
	return wc, nil
}

// foldLoop drives n's WAL past the fold threshold, then runs the
// mutate-durable mix (1 writer, 1 reader) for writeReps batches,
// sampling Store.Stats before every batch. A crossing is a sample at or
// above the threshold after one below it; a sample that sees no WAL
// records (the graph was busy folding) is skipped.
func (b *bench) foldLoop(n *durableNode) (crossings int, commits, walEnd int64, err error) {
	st := n.srv.Store()
	start := st.Stats()
	below := true
	sample := func() {
		s := st.Stats()
		if s.WALRecords == 0 && s.WALBytes == 0 {
			return
		}
		above := s.WALBytes >= store.DefaultCompactBytes
		if above && below {
			crossings++
		}
		below = !above
		walEnd = s.WALBytes
	}
	sample()
	for i := 0; below; i++ {
		if i > 4096 {
			return 0, 0, 0, fmt.Errorf("WAL still below the fold threshold after %d prefill batches", i)
		}
		if b.write(n.writeURL(), n.m, prefillEdges, prefillEdges, 0) == 0 {
			return 0, 0, 0, fmt.Errorf("prefill batch failed")
		}
		sample()
	}
	b.mix(n.writeURL(), n.readURL(), n.m, 0, nil, func(writes int, _ time.Duration) bool {
		sample()
		return writes >= writeReps
	})
	return crossings, st.Stats().Compactions - start.Compactions, walEnd, nil
}

// clusterLayers times the proxy hop and replication round trip, and
// composes the proxied write's budget from the measured layer costs.
func (b *bench) clusterLayers(wc writeCosts, socket, env time.Duration) error {
	base, err := service.BuildSpec(dynSpec(b.seed))
	if err != nil {
		return err
	}
	c, err := b.startCluster(base)
	if err != nil {
		return err
	}
	defer c.close()
	var entryW, direct, inproc samples
	for k := 0; k < writeReps; k++ {
		if d := b.write(c.writeURL(c.outsider), c.m, batchEdges, batchEdges, clusterReplicas-1); d > 0 {
			entryW = append(entryW, d)
		}
		if d := b.write(c.writeURL(c.primary), c.m, batchEdges, batchEdges, clusterReplicas-1); d > 0 {
			direct = append(direct, d)
		}
		// The proxied write in-process at the entry node: its own hop and
		// the replication still cross loopback sockets.
		req, lb := c.m.next(batchEdges, batchEdges)
		body, _ := json.Marshal(req)
		b.attempted.Add(1)
		id := b.tr.begin("proxied.handler", fmt.Sprintf("proxied-%d", k), 0)
		rec, d := handle(c.srvs[c.outsider].Handler(), http.MethodPost, "/v1/graphs/"+c.name+"/mutate", body)
		b.tr.end(id)
		if rec.Code != http.StatusOK {
			b.fail("proxied handler: HTTP %d %s", rec.Code, truncate(rec.Body.Bytes()))
			return nil
		}
		c.m.commit(lb)
		inproc = append(inproc, d)
	}
	hop := entryW.quantile(0.5) - direct.quantile(0.5)
	b.layer("cluster.proxy_hop_us", us(hop), "us")
	b.layer("cluster.replicate_us", us(direct.quantile(0.5)-wc.mutate-wc.append), "us")
	// A proxied write: the entry node's envelope and hop to the primary;
	// the primary's envelope, decode, repair, WAL append and encode; the
	// replication hop and the replica's envelope, decode, repair and
	// append.
	parts := env + socket +
		env + wc.decode + wc.mutate + wc.append + wc.encode +
		socket + env + wc.decode + wc.mutate + wc.append
	e2e := inproc.quantile(0.5)
	b.layer("proxied.unattributed_ratio", float64(e2e-parts)/float64(e2e), "ratio")
	return nil
}
