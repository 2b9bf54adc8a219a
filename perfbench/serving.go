package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"time"

	"kvcc/server"
)

// loadWorkers is the open loop's goroutine and connection count: the
// machine's two cores, one HTTP connection per worker.
const loadWorkers = 2

// countingTransport counts response body bytes, so each worker can
// attribute the bytes of the response it just read.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// endpoint is a server on a loopback listener plus one client per load
// worker, each with a single connection.
type endpoint struct {
	hs        *httptest.Server
	clients   []*server.Client
	transport []*countingTransport
}

func listen(srv *server.Server) *endpoint {
	ep := &endpoint{hs: httptest.NewServer(srv.Handler())}
	for range loadWorkers {
		tr := &countingTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		c := server.NewClient(ep.hs.URL)
		c.HTTPClient = &http.Client{Transport: tr}
		ep.clients = append(ep.clients, c)
		ep.transport = append(ep.transport, tr)
	}
	return ep
}

// close stops the listener and its connections; the server itself is
// closed by its owner.
func (ep *endpoint) close() {
	if ep == nil {
		return
	}
	for _, tr := range ep.transport {
		tr.base.(*http.Transport).CloseIdleConnections()
	}
	ep.hs.Close()
}

// rungOf names the serving rung a response came from.
func rungOf(indexServed, cached, deduped, degraded bool) string {
	switch {
	case degraded:
		return "degraded"
	case indexServed:
		return "index"
	case cached:
		return "cache"
	case deduped:
		return "deduped"
	}
	return "computed"
}

// statsDelta is the change in the server's own counters over a phase.
type statsDelta struct {
	shed, hits, misses, started int64
}

func serverCounters(ctx context.Context, c *server.Client) (statsDelta, error) {
	st, err := c.Stats(ctx)
	if err != nil {
		return statsDelta{}, err
	}
	d := statsDelta{hits: st.Cache.Hits, misses: st.Cache.Misses, started: st.Enumerations.Started}
	if st.Admission != nil {
		d.shed = st.Admission.Shed
	}
	return d, nil
}

func (a statsDelta) minus(b statsDelta) statsDelta {
	return statsDelta{a.shed - b.shed, a.hits - b.hits, a.misses - b.misses, a.started - b.started}
}

func (d statsDelta) report(m metrics) {
	m.set("server.shed_count", float64(d.shed), "count")
	m.set("server.cache_hit_ratio", ratio(float64(d.hits), float64(d.hits+d.misses)), "ratio")
	m.set("server.enumerations_started", float64(d.started), "count")
}

// addRungs records per-rung query latency and counts from a traced
// phase, with the response sizes.
func addRungs(m metrics, r loopResult) {
	if !slices.ContainsFunc(r.records, func(rec record) bool { return rec.rung != "" }) {
		return // not a serving workload
	}
	by := map[string]samples{}
	var bytes samples
	for _, rec := range r.records {
		if rec.edit || rec.err != nil {
			continue
		}
		by[rec.rung] = append(by[rec.rung], rec.latencyMS)
		bytes = append(bytes, float64(rec.bytes))
	}
	for _, rung := range []string{"index", "cache", "computed"} {
		if s := by[rung]; len(s) > 0 {
			m.setN("server.rung_"+rung+"_ms_p50", s.median(), "ms", len(s), "")
		}
	}
	m.set("server.rung_degraded_count", float64(len(by["degraded"])), "count")
	m.set("server.rung_deduped_count", float64(len(by["deduped"])), "count")
	if len(bytes) > 0 {
		m.setN("server.response_bytes_p50", bytes.median(), "bytes", len(bytes), "")
	}
}

// overlapEqual compares two overlap matrices.
func overlapEqual(a, b [][]int) bool {
	return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
}

// containingSets returns the indices and label sets of the components,
// given as label sets in order, that contain label.
func containingSets(comps [][]int64, label int64) ([]int, [][]int64) {
	var idx []int
	var sets [][]int64
	for i, c := range comps {
		if slices.Contains(c, label) {
			idx = append(idx, i)
			sets = append(sets, c)
		}
	}
	return idx, sets
}

// openRate is the open-loop arrival rate of a workload whose capacity on
// the reference machine is refCapacity ops/s.
func openRate(refCapacity float64) float64 { return loadShare * refCapacity }

// printLoad states the open-loop rate against the reference capacity it
// derives from and against the capacity calibration measured in this
// run.
func printLoad(probe loopResult, refCapacity float64) {
	capacity := float64(len(probe.records)) / probe.wall.Seconds()
	rate := openRate(refCapacity)
	fmt.Printf("capacity %.1f ops/s at full load (%d workers, %d ops over %.2f s); open-loop rate %.1f ops/s = %.2f × reference capacity %.0f ops/s = %.2f × this run's capacity\n",
		capacity, loadWorkers, len(probe.records), probe.wall.Seconds(), rate, loadShare, refCapacity, rate/capacity)
}

// interval is the gap between arrivals at rate ops per second.
func interval(rate float64) time.Duration {
	return time.Duration(float64(time.Second) / rate)
}
