package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"kvcc"
	"kvcc/graph"
	"kvcc/hierarchy"
	"kvcc/internal/dataset"
	"kvcc/server"
)

// serveRead is read traffic over HTTP against an in-memory server with
// hierarchy indexes: index-served k-VCC queries at Zipf-skewed k,
// cache-served k-ECC and k-core queries, membership and overlap queries.
type serveRead struct {
	names  []string
	graphs []*graph.Graph
	sched  []readReq
	// The cold enumeration of every query key, kept as what checking a
	// response needs: its digest, its components' label sets in order,
	// and its overlap matrix.
	wantDigest  map[readKey]string
	wantSets    map[readKey][][]int64
	wantOverlap map[readKey][][]int
	srv         *server.Server
	ep          *endpoint
	delta       statsDelta // server counters over the traced phase
}

var serveReadDatasets = []string{"DBLP", "Youtube"}

const (
	serveReadScale = 0.3
	// serveReadCapacity is the read mix's throughput at full load on the
	// reference machine: the median of calibration over six runs.
	serveReadCapacity = 2690
	// capacityOps is the length of the request schedule calibration
	// cycles through.
	capacityOps = 4096
)

type readKind int

const (
	readEnumerate readKind = iota
	readContaining
	readOverlap
)

type readKey struct {
	graph   int
	measure string
	k       int
}

type readReq struct {
	kind   readKind
	key    readKey
	vertex int64
}

// kvccKs are the k-VCC query levels in Zipf rank order: the hottest
// first. The order is fixed, so every seed has the same mix. The order,
// the Zipf exponent and the mix weights in readSchedule are assumptions,
// not taken from real traffic: small k first, on the guess that the
// coarse levels are asked for most.
var kvccKs = []int{5, 6, 4, 7, 3, 8, 9, 10}

// cacheKeys are the k-ECC and k-core queries, served from the result
// cache: k-cores of both graphs at five levels and k-ECCs of the smaller
// graph at four (a k-ECC enumeration of the larger one takes about a
// second, too long to recompute in every run's set-up). The 14 keys fit
// the default 64-entry cache.
var cacheKeys = func() []readKey {
	var keys []readKey
	for g := range serveReadDatasets {
		for _, k := range []int{3, 4, 5, 6, 7} {
			keys = append(keys, readKey{graph: g, measure: "kcore", k: k})
		}
	}
	for _, k := range []int{4, 5, 6, 7} {
		keys = append(keys, readKey{graph: 1, measure: "kecc", k: k})
	}
	return keys
}()

func (w *serveRead) prepare(e *env) error {
	for _, name := range serveReadDatasets {
		g, err := dataset.Load(name, serveReadScale)
		if err != nil {
			return err
		}
		w.names = append(w.names, name)
		w.graphs = append(w.graphs, g)
	}
	w.sched = readSchedule(len(w.graphs), int(openRate(serveReadCapacity)*e.seconds.Seconds()), e.seed, purposeSchedule, w.graphs)
	w.wantDigest = map[readKey]string{}
	w.wantSets = map[readKey][][]int64{}
	w.wantOverlap = map[readKey][][]int{}
	for _, key := range w.keys() {
		res, err := w.cold(key)
		if err != nil {
			return err
		}
		w.wantDigest[key] = digest(graphSets(res.Components), nil)
		w.wantSets[key] = graphSets(res.Components)
		w.wantOverlap[key] = res.OverlapMatrix()
	}
	return nil
}

// keys lists every query key a schedule can draw.
func (w *serveRead) keys() []readKey {
	keys := slices.Clone(cacheKeys)
	for g := range w.graphs {
		for _, k := range kvccKs {
			keys = append(keys, readKey{graph: g, measure: "kvcc", k: k})
		}
	}
	return keys
}

// cold enumerates a query key from scratch, in-process.
func (w *serveRead) cold(key readKey) (*kvcc.Result, error) {
	m, err := kvcc.ParseMeasure(key.measure)
	if err != nil {
		return nil, err
	}
	return kvcc.EnumerateMeasure(w.graphs[key.graph], key.k, m)
}

// readSchedule draws n requests: half k-VCC enumerations at Zipf k, a
// quarter k-ECC/k-core enumerations, and the rest membership and overlap
// k-VCC queries at Zipf k, membership on seeded vertices.
func readSchedule(graphs, n int, seed, purpose uint64, gs []*graph.Graph) []readReq {
	rng := newRand(seed, purpose)
	z := newZipf(len(kvccKs), 1.1)
	out := make([]readReq, n)
	for i := range out {
		g := rng.IntN(graphs)
		r := readReq{key: readKey{graph: g, measure: "kvcc", k: kvccKs[z.draw(rng)]}}
		switch x := rng.IntN(20); {
		case x < 10:
			r.kind = readEnumerate
		case x < 15:
			r.kind = readEnumerate
			r.key = cacheKeys[rng.IntN(len(cacheKeys))]
		case x < 18:
			r.kind = readContaining
			r.vertex = gs[g].Label(rng.IntN(gs[g].NumVertices()))
		default:
			r.kind = readOverlap
		}
		out[i] = r
	}
	return out
}

// setup starts a server, registers the graphs and waits until every
// hierarchy index is ready.
func (w *serveRead) setup(e *env, rep int) error {
	if w.srv != nil {
		w.srv.Close()
	}
	w.srv = server.New(server.Config{BuildIndex: true})
	for i, g := range w.graphs {
		w.srv.AddGraph(w.names[i], g)
	}
	for _, name := range w.names {
		if _, err := w.srv.Hierarchy(context.Background(), server.HierarchyRequest{Graph: name}); err != nil {
			return err
		}
	}
	return nil
}

// calibrate warms the server up and measures its capacity on the read
// mix.
func (w *serveRead) calibrate(e *env) (loopResult, error) {
	ctx := context.Background()
	w.ep = listen(w.srv)
	// Warm-up: every query kind at every key once, so the cache holds
	// its keys and each result's label index is built before timing.
	for _, key := range w.keys() {
		kinds := []readKind{readEnumerate}
		if key.measure == "kvcc" {
			kinds = append(kinds, readContaining, readOverlap)
		}
		for _, kind := range kinds {
			r := readReq{kind: kind, key: key, vertex: w.graphs[key.graph].Label(0)}
			if out := w.do(ctx, nil, 0, 0, r); out.err != nil {
				return loopResult{}, fmt.Errorf("warm-up: %w", out.err)
			}
		}
	}
	probe := readSchedule(len(w.graphs), capacityOps, e.seed, purposeCapacity, w.graphs)
	res := saturate(capacitySeconds*time.Second, loadWorkers, func(worker, i int) outcome {
		return w.do(ctx, nil, worker, i, probe[i%len(probe)])
	})
	printLoad(res, serveReadCapacity)
	return res, nil
}

func (w *serveRead) run(e *env, d time.Duration) (loopResult, error) {
	ctx := context.Background()
	var before statsDelta
	if e.tr != nil {
		var err error
		if before, err = serverCounters(ctx, w.ep.clients[0]); err != nil {
			return loopResult{}, err
		}
	}
	rate := openRate(serveReadCapacity)
	n := min(len(w.sched), int(rate*d.Seconds()))
	res := openLoop(n, interval(rate), loadWorkers, func(worker, i int) outcome {
		return w.do(ctx, e.tr, worker, i, w.sched[i])
	})
	if e.tr != nil {
		after, err := serverCounters(ctx, w.ep.clients[0])
		if err != nil {
			return loopResult{}, err
		}
		w.delta = after.minus(before)
	}
	return res, nil
}

// do sends one read over HTTP and checks the response against the cold
// enumeration of the same query.
func (w *serveRead) do(ctx context.Context, tr *tracer, worker, i int, r readReq) outcome {
	c := w.ep.clients[worker]
	bytes0 := w.ep.transport[worker].bytes.Load()
	name := w.names[r.key.graph]
	var out outcome
	switch r.kind {
	case readEnumerate:
		var resp *server.EnumerateResponse
		tr.call("server.enumerate", i, 0, func() {
			resp, out.err = c.Enumerate(ctx, server.EnumerateRequest{Graph: name, K: r.key.k, Measure: r.key.measure})
		})
		if out.err == nil {
			out.rung = rungOf(resp.IndexServed, resp.Cached, resp.Deduped, resp.Degraded)
			out.check = func() bool {
				return digest(wireSets(resp.Components), nil) == w.wantDigest[r.key]
			}
		}
	case readContaining:
		var resp *server.ContainingResponse
		tr.call("server.containing", i, 0, func() {
			resp, out.err = c.ComponentsContaining(ctx, server.ContainingRequest{Graph: name, K: r.key.k, Vertex: r.vertex})
		})
		if out.err == nil {
			out.rung = rungOf(resp.IndexServed, resp.Cached, false, resp.Degraded)
			out.check = func() bool {
				idx, sets := containingSets(w.wantSets[r.key], r.vertex)
				return slices.Equal(idx, resp.Indices) && digest(wireSets(resp.Components), nil) == digest(sets, nil)
			}
		}
	case readOverlap:
		var resp *server.OverlapResponse
		tr.call("server.overlap", i, 0, func() {
			resp, out.err = c.Overlap(ctx, server.OverlapRequest{Graph: name, K: r.key.k})
		})
		if out.err == nil {
			out.rung = rungOf(resp.IndexServed, resp.Cached, false, resp.Degraded)
			out.check = func() bool { return overlapEqual(resp.Matrix, w.wantOverlap[r.key]) }
		}
	}
	out.bytes = int(w.ep.transport[worker].bytes.Load() - bytes0)
	return out
}

// verify checks each query key four ways: a second cold enumeration is
// validated and must match the first, and the in-process answer must
// match it and come from the index (k-VCC) or the cache (other
// measures). HTTP answers were checked against the cold one as they
// arrived.
func (w *serveRead) verify(e *env) error {
	ctx := context.Background()
	for _, key := range w.keys() {
		g := w.graphs[key.graph]
		cold, err := w.cold(key)
		if err != nil {
			return err
		}
		if key.measure == "kvcc" {
			if err := kvcc.Validate(g, cold); err != nil {
				return fmt.Errorf("%s k=%d: %w", w.names[key.graph], key.k, err)
			}
		}
		if digest(graphSets(cold.Components), nil) != w.wantDigest[key] {
			return fmt.Errorf("%s %s k=%d: cold enumeration is not repeatable", w.names[key.graph], key.measure, key.k)
		}
		resp, err := w.srv.Enumerate(ctx, server.EnumerateRequest{Graph: w.names[key.graph], K: key.k, Measure: key.measure})
		if err != nil {
			return err
		}
		if digest(wireSets(resp.Components), nil) != w.wantDigest[key] {
			return fmt.Errorf("%s %s k=%d: in-process answer differs from cold enumeration", w.names[key.graph], key.measure, key.k)
		}
		rung := rungOf(resp.IndexServed, resp.Cached, resp.Deduped, resp.Degraded)
		if (key.measure == "kvcc") != (rung == "index") {
			return fmt.Errorf("%s %s k=%d: served from the %s rung", w.names[key.graph], key.measure, key.k, rung)
		}
	}
	return nil
}

// wireTwinRequests is how many index-served requests the traced run
// replays both over HTTP and in-process to price the wire.
const wireTwinRequests = 400

// layers prices the wire against the in-process twin, times the
// hierarchy build and level lookups outside the server, and reports the
// server's counters over the traced phase.
func (w *serveRead) layers(e *env, m metrics) error {
	tr := e.tr
	ctx := context.Background()
	var httpMS, inprocMS samples
	for i, r := range w.sched {
		if len(httpMS) == wireTwinRequests {
			break
		}
		if r.kind != readEnumerate || r.key.measure != "kvcc" {
			continue
		}
		req := server.EnumerateRequest{Graph: w.names[r.key.graph], K: r.key.k}
		var err error
		httpMS = append(httpMS, tr.call("server.twin_http", i, 0, func() { _, err = w.ep.clients[0].Enumerate(ctx, req) }))
		if err != nil {
			return err
		}
		inprocMS = append(inprocMS, tr.call("server.twin_inprocess", i, 0, func() { _, err = w.srv.Enumerate(ctx, req) }))
		if err != nil {
			return err
		}
	}
	m.setN("server.wire_ms_p50", httpMS.median()-inprocMS.median(), "ms", len(httpMS),
		fmt.Sprintf("HTTP p50 %.4f ms − in-process p50 %.4f ms", httpMS.median(), inprocMS.median()))

	var buildS float64
	var level samples
	for gi, g := range w.graphs {
		var tree *hierarchy.Tree
		var err error
		buildS += tr.call("hierarchy.build", gi, 0, func() { tree, err = hierarchy.Build(g, hierarchy.Options{}) }) / 1000
		if err != nil {
			return err
		}
		for i, r := range w.sched[:min(len(w.sched), 2000)] {
			if r.key.graph == gi && r.key.measure == "kvcc" {
				level = append(level, 1000*tr.call("hierarchy.level", i, 0, func() { tree.LevelComponents(r.key.k) }))
			}
		}
	}
	m.set("hierarchy.build_s", buildS, "s")
	m.setN("hierarchy.level_us_p50", level.median(), "us", len(level), "")
	w.delta.report(m)
	return nil
}

func (w *serveRead) close() {
	w.ep.close()
	if w.srv != nil {
		w.srv.Close()
	}
}
