package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/service"
)

// setupReps is how many times a workload builds its servers; setup_s is
// the median, and the last instance serves the run.
const setupReps = 5

// setupMedian builds the workload's server side setupReps times,
// reports the median build time as setup_s and returns the last
// instance (the earlier ones are closed).
func setupMedian[T any](b *bench, start func() (T, error), stop func(T)) (T, error) {
	var times []float64
	var inst T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			stop(inst)
		}
		t0 := time.Now()
		n, err := start()
		if err != nil {
			return inst, err
		}
		times = append(times, time.Since(t0).Seconds())
		inst = n
	}
	b.e2e("setup_s", medianFloat(times), "s")
	return inst, nil
}

// dur is the measured phase length.
func (b *bench) dur() time.Duration {
	return time.Duration(b.seconds * float64(time.Second))
}

// gcCPU is the runtime's estimate of CPU time spent in GC so far.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// phaseCost is what a measured phase used: wall time, process CPU time
// and the GC's share of that CPU time.
type phaseCost struct {
	wall, cpu time.Duration
	gcSeconds float64
}

// measure runs fn and returns its cost. It collects garbage first, so
// a phase does not pay for the garbage of the one before it.
func measure(fn func()) phaseCost {
	runtime.GC()
	c0, g0, t0 := cpuTime(), gcCPU(), time.Now()
	fn()
	return phaseCost{wall: time.Since(t0), cpu: cpuTime() - c0, gcSeconds: gcCPU() - g0}
}

// runtimeFigures records, in traced runs, the main phase's process CPU
// per wall second and the share of that CPU the GC used.
func (b *bench) runtimeFigures(p phaseCost) {
	if !b.traced {
		return
	}
	b.layer("runtime.cpu_per_wall", p.cpu.Seconds()/p.wall.Seconds(), "ratio")
	b.layer("runtime.gc_cpu_fraction", p.gcSeconds/max(p.cpu.Seconds(), 1e-9), "ratio")
}

// client is the load generator's HTTP client: keep-alive connections,
// no compression, and enough idle connections for every concurrent
// client to keep its own.
var client = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost: 4,
	DisableCompression:  true,
}}

// get fetches url and returns the status, the body and the time until
// the whole body was read. The body is read into buf, which a client
// reuses across requests so that the load generator makes little garbage
// of its own; it is valid until buf's next use. A nil buf reads into a
// fresh buffer.
func get(url string, buf *bytes.Buffer) (int, []byte, time.Duration, error) {
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	t0 := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, buf.Bytes(), time.Since(t0), err
}

// post sends a JSON body to url, timed like get.
func post(url string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(t0), err
}

// newServer builds a server with the settings every workload uses.
func newServer() *service.Server {
	return service.NewServer(service.ManagerConfig{CacheEntries: 256, DefaultTimeout: time.Minute})
}

// truncate shortens a response body for an error message.
func truncate(body []byte) string {
	if len(body) > 200 {
		body = body[:200]
	}
	return string(body)
}
