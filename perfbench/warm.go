package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/verify"
)

// warmKeys is how many distinct (graph, JP-ADG, seed) keys the warm
// readers cycle through; all of them fit the result cache.
const warmKeys = 16

// warmClients is the warm readers' concurrency (the box's nproc).
const warmClients = 2

// warmSet is the read-warm key set and the verified response of each key.
type warmSet struct {
	b    *bench
	spec string
	g    *graph.Graph
	ref  [][]byte
}

func newWarmSet(b *bench) (*warmSet, error) {
	spec := fmt.Sprintf("kron:12:16:%d", specSeed(b.seed))
	g, err := service.BuildSpec(spec)
	if err != nil {
		return nil, err
	}
	return &warmSet{b: b, spec: spec, g: g}, nil
}

func (w *warmSet) path(i int) string {
	return fmt.Sprintf("/v1/color/bin?graph=warm&algorithm=JP-ADG&seed=%d", w.b.seed+uint64(i))
}

// warmNode is a server whose cache holds every warm key.
type warmNode struct {
	srv *service.Server
	ts  *httptest.Server
}

func (n *warmNode) close() {
	n.ts.Close()
	_ = n.srv.Close(context.Background())
}

// start boots a server, registers the graph and warms every key. The
// warming responses are verified proper against the client's own graph
// and become the reference the measured reads are compared with.
func (w *warmSet) start() (*warmNode, error) {
	srv := newServer()
	if _, err := srv.RegisterSpec("warm", w.spec); err != nil {
		return nil, err
	}
	n := &warmNode{srv: srv, ts: httptest.NewServer(srv.Handler())}
	ref := make([][]byte, warmKeys)
	for i := range ref {
		status, body, _, err := get(n.ts.URL+w.path(i), nil)
		if err != nil {
			n.close()
			return nil, err
		}
		if status != http.StatusOK {
			n.close()
			return nil, fmt.Errorf("warming key %d: HTTP %d %s", i, status, truncate(body))
		}
		_, _, _, numColors, colors, err := service.DecodeColorBin(body)
		if err == nil {
			err = verify.CheckProper(w.g, colors)
		}
		if err == nil && numColors != verify.NumColors(colors) {
			err = fmt.Errorf("header says %d colors, coloring has %d", numColors, verify.NumColors(colors))
		}
		if err != nil {
			n.close()
			return nil, fmt.Errorf("warming key %d: %w", i, err)
		}
		ref[i] = body
	}
	w.ref = ref
	return n, nil
}

// read runs warmClients closed-loop readers against base until stop
// returns true, and returns every request.
func (w *warmSet) read(base string, stop func(client, done int) bool) series {
	lats := make([]series, warmClients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < warmClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for k := 0; !stop(c, k); k++ {
				i := (c + k*warmClients) % warmKeys
				w.b.attempted.Add(1)
				id := w.b.tr.begin("warm.http", fmt.Sprintf("warm-%d-%d", c, k), 0)
				status, body, d, err := get(base+w.path(i), &buf)
				w.b.tr.end(id)
				switch {
				case err != nil:
					w.b.fail("warm key %d: %v", i, err)
				case status != http.StatusOK:
					w.b.fail("warm key %d: HTTP %d %s", i, status, truncate(body))
				case !bytes.Equal(body, w.ref[i]):
					w.b.fail("warm key %d: response differs from the verified one", i)
				default:
					lats[c].add(time.Since(t0), d)
				}
			}
		}(c)
	}
	wg.Wait()
	var all series
	for _, l := range lats {
		all.merge(l)
	}
	return all
}

// reportReads sets the read_* metrics from the reads of a phase of
// length wall.
func (b *bench) reportReads(reads series, wall time.Duration) {
	b.e2e("read_rps", reads.rate(wall), "1/s")
	b.e2e("read_p50_us", us(reads.q(wall, 0.5)), "us")
	b.e2e("read_p90_us", us(reads.q(wall, 0.9)), "us")
	b.note("read_p99_us", us(reads.lat.quantile(0.99)), "us")
	b.note("read_requests", float64(len(reads.lat)), "count")
}

// warmProbeSeconds is how long the warm probe reads.
const warmProbeSeconds = 2

// warmProbe measures the warm class for workloads whose own traffic
// lacks it: warmClients readers for warmProbeSeconds on a fresh warmed
// server.
func (b *bench) warmProbe() error {
	w, err := newWarmSet(b)
	if err != nil {
		return err
	}
	n, err := w.start()
	if err != nil {
		return err
	}
	defer n.close()
	var lat series
	cost := measure(func() {
		deadline := time.Now().Add(warmProbeSeconds * time.Second)
		lat = w.read(n.ts.URL, func(_, done int) bool { return done%64 == 0 && !time.Now().Before(deadline) })
	})
	b.reportReads(lat, cost.wall)
	return nil
}

// readWarm is the read-warm workload: warmClients readers cycling the
// pre-warmed keys for the run's length.
func readWarm(b *bench) error {
	w, err := newWarmSet(b)
	if err != nil {
		return err
	}
	n, err := setupMedian(b, w.start, (*warmNode).close)
	if err != nil {
		return err
	}
	var lat series
	cost := measure(func() {
		deadline := time.Now().Add(b.dur())
		lat = w.read(n.ts.URL, func(_, done int) bool { return done%64 == 0 && !time.Now().Before(deadline) })
	})
	n.close()
	b.runtimeFigures(cost)
	b.reportReads(lat, cost.wall)
	if b.traced {
		return nil
	}
	if err := b.coldProbe(); err != nil {
		return err
	}
	return b.mutateProbe()
}
