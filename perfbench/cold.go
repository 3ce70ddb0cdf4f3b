package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/verify"
)

// family is one graph of the cold suite, built client-side from the same
// deterministic spec the server gets.
type family struct {
	name, spec string
	g          *graph.Graph
}

// coldAlgos are the engines the cold suite runs on every family.
var coldAlgos = []string{"JP-ADG", "SPEC-ADG", "JP-R", "Greedy-ID"}

// specSeed maps the workload seed onto a generator seed.
func specSeed(seed uint64) uint64 { return seed%1_000_000 + 1 }

// coldFamilies returns the suite's four graphs for seed: degree skew
// (kron, ba), uniform density (er) and large diameter (grid).
func coldFamilies(seed uint64) ([]family, error) {
	s := specSeed(seed)
	fams := []family{
		{name: "kron", spec: fmt.Sprintf("kron:15:16:%d", s)},
		{name: "er", spec: fmt.Sprintf("er:65536:1048576:%d", s)},
		{name: "grid", spec: "grid:512:512"},
		{name: "ba", spec: fmt.Sprintf("ba:65536:8:%d", s)},
	}
	for i := range fams {
		g, err := service.BuildSpec(fams[i].spec)
		if err != nil {
			return nil, err
		}
		fams[i].g = g
	}
	return fams, nil
}

// coldKey is one request of the suite.
type coldKey struct {
	fam  int
	algo string
}

// coldSuite drives the cold coloring suite and checks its responses.
type coldSuite struct {
	b    *bench
	fams []family
	keys []coldKey
	// verified holds the first response of each key once it passed the
	// properness check; later responses must be byte-identical, because
	// every suite engine is deterministic for a fixed seed.
	verified map[coldKey][]byte
	colors   map[coldKey]int
}

func newColdSuite(b *bench) (*coldSuite, error) {
	fams, err := coldFamilies(b.seed)
	if err != nil {
		return nil, err
	}
	cs := &coldSuite{b: b, fams: fams, verified: map[coldKey][]byte{}, colors: map[coldKey]int{}}
	for i := range fams {
		for _, a := range coldAlgos {
			cs.keys = append(cs.keys, coldKey{i, a})
		}
	}
	return cs, nil
}

// coldNode is one server holding the suite's graphs.
type coldNode struct {
	srv *service.Server
	ts  *httptest.Server
}

// start boots a server holding the suite's graphs. Each graph the
// server built must equal the client's build of the same spec; a spec
// that builds differently is reported, and the responses for it are
// then checked against the graph the server actually colored.
func (cs *coldSuite) start() (*coldNode, error) {
	srv := newServer()
	for i, f := range cs.fams {
		e, err := srv.RegisterSpec(f.name, f.spec)
		if err != nil {
			return nil, err
		}
		if !sameGraph(e.G, f.g) {
			cs.b.warn("spec %q built a different graph on the server than on the client: "+
				"the generator is not deterministic; %s colorings are checked against the server's graph", f.spec, f.name)
			cs.b.note("spec_mismatch."+f.name, 1, "count")
			cs.fams[i].g = e.G
			cs.verified = map[coldKey][]byte{}
		}
	}
	return &coldNode{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// sameGraph reports whether a and b have identical CSR arrays.
func sameGraph(a, b *graph.Graph) bool {
	ao, bo, aa, ba := a.Offsets(), b.Offsets(), a.Adjacency(), b.Adjacency()
	if len(ao) != len(bo) || len(aa) != len(ba) {
		return false
	}
	for i := range ao {
		if ao[i] != bo[i] {
			return false
		}
	}
	for i := range aa {
		if aa[i] != ba[i] {
			return false
		}
	}
	return true
}

func (n *coldNode) close() {
	n.ts.Close()
	_ = n.srv.Close(context.Background())
}

func (cs *coldSuite) url(base string, k coldKey) string {
	return fmt.Sprintf("%s/v1/color/bin?graph=%s&algorithm=%s&seed=%d&noCache=1", base, cs.fams[k.fam].name, k.algo, cs.b.seed)
}

// check verifies one response of key k; it runs outside the timings.
func (cs *coldSuite) check(k coldKey, status int, body []byte) {
	f := cs.fams[k.fam]
	if status != http.StatusOK {
		cs.b.fail("cold %s/%s: HTTP %d %s", f.name, k.algo, status, truncate(body))
		return
	}
	if ref, ok := cs.verified[k]; ok {
		if !bytes.Equal(ref, body) {
			cs.b.fail("cold %s/%s: response differs from the verified one for the same key", f.name, k.algo)
		}
		return
	}
	_, seed, _, numColors, colors, err := service.DecodeColorBin(body)
	switch {
	case err != nil:
		cs.b.fail("cold %s/%s: %v", f.name, k.algo, err)
	case seed != cs.b.seed:
		cs.b.fail("cold %s/%s: seed %d, want %d", f.name, k.algo, seed, cs.b.seed)
	case len(colors) != f.g.NumVertices():
		cs.b.fail("cold %s/%s: %d colors for %d vertices", f.name, k.algo, len(colors), f.g.NumVertices())
	case verify.CheckProper(f.g, colors) != nil:
		cs.b.fail("cold %s/%s: %v", f.name, k.algo, verify.CheckProper(f.g, colors))
	case numColors != verify.NumColors(colors):
		cs.b.fail("cold %s/%s: header says %d colors, coloring has %d", f.name, k.algo, numColors, verify.NumColors(colors))
	default:
		cs.verified[k] = body
		cs.colors[k] = numColors
	}
}

// coldPass is one pass over the suite: every request's latency and the
// arcs of the graphs colored.
type coldPass struct {
	lat  samples
	arcs int64
}

// pass sends every suite request once, in order, from one client.
func (cs *coldSuite) pass(base string) coldPass {
	var p coldPass
	for _, k := range cs.keys {
		cs.b.attempted.Add(1)
		id := cs.b.tr.begin("cold.http", fmt.Sprintf("cold-%s-%s", cs.fams[k.fam].name, k.algo), 0)
		status, body, d, err := get(cs.url(base, k), nil)
		cs.b.tr.end(id)
		if err != nil {
			cs.b.fail("cold %s/%s: %v", cs.fams[k.fam].name, k.algo, err)
			continue
		}
		p.lat = append(p.lat, d)
		p.arcs += cs.fams[k.fam].g.NumArcs()
		cs.check(k, status, body)
	}
	return p
}

// report sets the color_* metrics and colors_total. Every pass holds
// the same mix of requests, so passes are the windows: each figure is the
// median over passes, like series.windowed.
func (cs *coldSuite) report(passes []coldPass) {
	b := cs.b
	var rates, p50, p90 []float64
	var all samples
	for _, p := range passes {
		rates = append(rates, float64(p.arcs)/p.lat.sum().Seconds())
		p50 = append(p50, ms(p.lat.quantile(0.5)))
		p90 = append(p90, ms(p.lat.quantile(0.9)))
		all = append(all, p.lat...)
	}
	b.e2e("color_arcs_per_s", medianFloat(rates), "arcs/s")
	b.e2e("color_p50_ms", medianFloat(p50), "ms")
	b.e2e("color_p90_ms", medianFloat(p90), "ms")
	b.note("color_p99_ms", ms(all.quantile(0.99)), "ms")
	b.note("color_requests", float64(len(all)), "count")
	total := 0
	for _, k := range cs.keys {
		total += cs.colors[k]
		b.note(fmt.Sprintf("colors.%s.%s", cs.fams[k.fam].name, k.algo), float64(cs.colors[k]), "colors")
	}
	b.e2e("colors_total", float64(total), "colors")
}

// coldProbePasses is how many suite passes the cold probe makes.
const coldProbePasses = 6

// coldProbe measures the cold class for workloads whose own traffic
// lacks it: coldProbePasses passes of the suite on a fresh server.
func (b *bench) coldProbe() error {
	cs, err := newColdSuite(b)
	if err != nil {
		return err
	}
	n, err := cs.start()
	if err != nil {
		return err
	}
	defer n.close()
	var passes []coldPass
	measure(func() {
		for i := 0; i < coldProbePasses; i++ {
			passes = append(passes, cs.pass(n.ts.URL))
		}
	})
	cs.report(passes)
	return nil
}

// colorCold is the color-cold workload: one client cycling the suite
// with noCache=1 for the run's length (whole passes only).
func colorCold(b *bench) error {
	cs, err := newColdSuite(b)
	if err != nil {
		return err
	}
	n, err := setupMedian(b, cs.start, (*coldNode).close)
	if err != nil {
		return err
	}
	var passes []coldPass
	cost := measure(func() {
		deadline := time.Now().Add(b.dur())
		for {
			passes = append(passes, cs.pass(n.ts.URL))
			if !time.Now().Before(deadline) {
				return
			}
		}
	})
	n.close()
	b.runtimeFigures(cost)
	cs.report(passes)
	if b.traced {
		return nil
	}
	if err := b.warmProbe(); err != nil {
		return err
	}
	return b.mutateProbe()
}
