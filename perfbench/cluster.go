package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/store"
)

// clusterNodes and clusterReplicas shape the cluster-proxy deployment:
// every graph lives on a primary and one replica, so one of the three
// nodes is outside each graph's placement.
const (
	clusterNodes    = 3
	clusterReplicas = 2
)

// clusterCompactBytes keeps the cluster nodes' WALs below the fold
// threshold for the whole run: cluster-proxy measures routing and
// replication, and mutate-durable already measures folds.
const clusterCompactBytes = int64(1) << 40

// testCluster is clusterNodes in-process servers behind loopback
// listeners, each with its own data directory and cluster view.
type testCluster struct {
	srvs []*service.Server
	tss  []*httptest.Server
	// primary, replica and outsider index srvs/tss by role for graph dyn.
	primary, replica, outsider int
	name                       string
	m                          *mutator
}

func (c *testCluster) close() {
	for _, ts := range c.tss {
		ts.Close()
	}
	for _, s := range c.srvs {
		_ = s.Close(context.Background())
	}
}

func (c *testCluster) url(i int) string { return c.tss[i].URL }

func (c *testCluster) writeURL(i int) string { return c.url(i) + "/v1/graphs/" + c.name + "/mutate" }
func (c *testCluster) readURL(i int) string {
	return c.url(i) + "/v1/color/bin?graph=" + c.name + "&algorithm=maintained"
}

// maintainedRouteKey is the routing key colord derives for a
// maintained-coloring read of graph (FNV-1a over the graph, the
// algorithm name, the seed and epsilon, as in service.colorRouteKey).
// If the two ever disagree, the roles check in startCluster says so.
func maintainedRouteKey(graph string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(graph))
	h.Write([]byte{0})
	h.Write([]byte(service.AlgorithmMaintained))
	h.Write([]byte{0})
	var b [16]byte
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(0.01))
	h.Write(b[:])
	return h.Sum64()
}

// startCluster boots the cluster, registers the graph through the
// outsider (it is proxied to the primary and replicated) and applies the
// first batch through the outsider.
func (b *bench) startCluster(base *graph.Graph) (*testCluster, error) {
	slots := make([]atomic.Pointer[service.Server], clusterNodes)
	c := &testCluster{}
	urls := make([]string, clusterNodes)
	for i := range slots {
		slot := &slots[i]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s := slot.Load()
			if s == nil {
				http.Error(w, "booting", http.StatusServiceUnavailable)
				return
			}
			s.Handler().ServeHTTP(w, r)
		}))
		c.tss = append(c.tss, ts)
		urls[i] = ts.URL
	}
	for i := range slots {
		dir, err := b.newDir("node-")
		if err != nil {
			c.close()
			return nil, err
		}
		st, err := store.Open(store.Options{Dir: dir, CompactBytes: clusterCompactBytes})
		if err != nil {
			c.close()
			return nil, err
		}
		srv := newServer()
		srv.AttachStore(st)
		cl, err := cluster.New(cluster.Config{Self: urls[i], Peers: urls, Replicas: clusterReplicas})
		if err != nil {
			_ = srv.Close(context.Background())
			c.close()
			return nil, err
		}
		srv.AttachCluster(cl, service.ClusterOptions{})
		c.srvs = append(c.srvs, srv)
		slots[i].Store(srv)
	}
	// Placement and key homes hash the nodes' URLs, whose ports differ
	// from run to run. Pick the graph's name so every run has the same
	// roles: the maintained-coloring reads are homed on the replica.
	cl := c.srvs[0].Cluster()
	index := map[string]int{}
	for i, u := range urls {
		index[u] = i
	}
	for i := 0; ; i++ {
		name := fmt.Sprintf("dyn-%d", i)
		order := cl.Order(name)
		if home, ok := cl.KeyHome(name, maintainedRouteKey(name)); ok && home == order[1] {
			c.name = name
			c.primary, c.replica, c.outsider = index[order[0]], index[order[1]], index[order[2]]
			break
		}
	}

	reg, _ := json.Marshal(map[string]string{"name": c.name, "spec": dynSpec(b.seed)})
	status, body, _, err := post(c.url(c.outsider)+"/v1/graphs", reg)
	if err != nil || status != http.StatusOK {
		c.close()
		return nil, fmt.Errorf("registering through the outsider: HTTP %d %v %s", status, err, truncate(body))
	}
	c.m = newMutator(base, b.seed)
	if b.write(c.writeURL(c.outsider), c.m, batchEdges, 0, clusterReplicas-1) == 0 {
		c.close()
		return nil, fmt.Errorf("first batch failed")
	}
	resp, err := client.Get(c.readURL(c.outsider))
	if err != nil {
		c.close()
		return nil, err
	}
	resp.Body.Close()
	if home := resp.Header.Get("X-Colord-Key-Home"); home != urls[c.replica] {
		b.warn("maintained reads are homed on %q, not on the replica %q: the roles differ between runs", home, urls[c.replica])
	}
	return c, nil
}

// clusterProxy is the cluster-proxy workload: the mutate-durable mix,
// entering at the node outside the graph's placement, so every request
// takes a proxy hop and every write replicates.
func clusterProxy(b *bench) error {
	if !b.traced {
		if err := b.coldProbe(); err != nil {
			return err
		}
	}
	base, err := service.BuildSpec(dynSpec(b.seed))
	if err != nil {
		return err
	}
	c, err := setupMedian(b, func() (*testCluster, error) { return b.startCluster(base) }, (*testCluster).close)
	if err != nil {
		return err
	}
	var res mixResult
	var maintained int
	cost := measure(func() {
		res, maintained = b.mix(c.writeURL(c.outsider), c.readURL(c.outsider), c.m, clusterReplicas-1, nil, measuredFor(b.dur()))
	})
	c.close()
	b.runtimeFigures(cost)
	b.reportMix(res, maintained, true)
	return nil
}
