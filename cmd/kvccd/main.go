// Command kvccd is the long-running k-VCC enumeration service. It loads
// one or more named edge-list graphs, serves the HTTP/JSON query API from
// the server package, and amortizes enumeration cost across queries with
// a per-graph hierarchy index, an LRU result cache, and in-flight request
// deduplication.
//
// Usage:
//
//	kvccd -graph social=social.txt -graph web=web.txt [-addr :7474]
//	      [-cache 64] [-max-k 0] [-parallel 1] [-index] [-index-max-k 0]
//	      [-index-measures kvcc] [-engine auto]
//	      [-request-timeout 30s] [-compute-timeout 5m] [-max-timeout 0]
//	      [-max-inflight 0] [-quota rps[:burst]] [-drain-timeout 10s]
//	      [-data-dir DIR] [-checkpoint-every 0] [-paging auto]
//	      [-demo] [-selftest]
//
// -graph name=path registers an edge list under a query name and may be
// repeated; files are ingested through graphio's two-pass streaming
// loader, which builds the CSR graph in place so multi-million-edge SNAP
// exports load with bounded memory. -index precomputes the full k-VCC cohesion tree of every
// graph in the background at startup; once ready, enumerate queries for
// any k are answered from the tree instead of running the algorithm
// (hierarchy and cohesion queries build the index on demand either way).
// -index-max-k truncates that tree at a level when only shallow queries
// matter. -engine selects the max-flow engine behind every enumeration
// (auto | dinic | ek; all return identical results, so it is purely a
// performance knob). The deprecated -engine local runs Dinic, and -seed
// is accepted and ignored: both served a randomized local cut engine
// that has been removed.
// -demo registers a small generated community graph under the
// name "demo" so the server can be tried without any dataset. -selftest
// starts the server on an ephemeral port, drives every endpoint through
// the Go client (verifying that a repeated query is a cache hit and that
// the hierarchy index serves an uncached k), prints a transcript, and
// exits; it is both a smoke test and a usage example.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kvcc"
	"kvcc/gen"
	"kvcc/graph"
	"kvcc/server"
	"kvcc/store"
)

// graphFlags collects repeated -graph name=path mappings.
type graphFlags map[string]string

func (g graphFlags) String() string {
	parts := make([]string, 0, len(g))
	for name, path := range g {
		parts = append(parts, name+"="+path)
	}
	return strings.Join(parts, ",")
}

func (g graphFlags) Set(value string) error {
	name, path, ok := strings.Cut(value, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", value)
	}
	if _, dup := g[name]; dup {
		return fmt.Errorf("graph %q registered twice", name)
	}
	g[name] = path
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kvccd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	graphs := graphFlags{}
	fs.Var(graphs, "graph", "name=path of an edge list to serve (repeatable)")
	fs.Uint64("seed", 0, "ignored; kept so existing command lines still parse")
	var (
		addr            = fs.String("addr", ":7474", "listen address")
		cacheSize       = fs.Int("cache", 64, "result cache capacity (entries)")
		maxK            = fs.Int("max-k", 0, "reject queries with k above this (0 = no limit)")
		parallel        = fs.Int("parallel", 1, "enumeration worker count")
		index           = fs.Bool("index", false, "precompute the hierarchy index of every graph at startup")
		indexMaxK       = fs.Int("index-max-k", 0, "truncate hierarchy index builds at this level (0 = full depth)")
		indexMeasures   = fs.String("index-measures", "kvcc", "comma-separated cohesion measures to index eagerly with -index: kvcc | kecc | kcore")
		engine          = fs.String("engine", "auto", "max-flow engine: auto | dinic | ek (results are identical; the deprecated local runs dinic)")
		requestTimeout  = fs.Duration("request-timeout", 30*time.Second, "per-request wait ceiling")
		computeTimeout  = fs.Duration("compute-timeout", 5*time.Minute, "per-enumeration ceiling")
		demo            = fs.Bool("demo", false, `also serve a generated community graph as "demo"`)
		selftest        = fs.Bool("selftest", false, "start on an ephemeral port, exercise every endpoint, exit")
		dataDir         = fs.String("data-dir", "", "durable store directory: graphs survive restarts via snapshot + WAL (empty = in-memory only)")
		checkpointEvery = fs.Int("checkpoint-every", 0, "fold the WAL into a fresh snapshot after this many edit batches (0 = default 32, negative = never)")
		maxInflight     = fs.Int("max-inflight", 0, "concurrent expensive enumerations before requests queue and shed (0 = GOMAXPROCS)")
		quota           = fs.String("quota", "", "per-tenant admission quota as rps[:burst], keyed by X-API-Key (empty = no quotas)")
		drainTimeout    = fs.Duration("drain-timeout", 10*time.Second, "how long a SIGTERM/SIGINT shutdown waits for in-flight requests")
		maxTimeout      = fs.Duration("max-timeout", 0, "ceiling for client-supplied timeout_ms; larger values are clamped (0 = request-timeout)")
		paging          = fs.String("paging", "auto", "madvise policy for mmap'd snapshots with -data-dir: auto | off")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// With -data-dir, graphs may come from recovery alone — the emptiness
	// check happens after server.Open, once we know what was recovered.
	if len(graphs) == 0 && !*demo && !*selftest && *dataDir == "" {
		fmt.Fprintln(stderr, "kvccd: no graphs to serve; pass -graph name=path, -demo, or -data-dir")
		fs.Usage()
		return 2
	}
	// server.New degrades unknown engine names to auto; a daemon should
	// fail loudly on a typo instead, so validate the flag up front.
	if _, err := server.ParseFlowEngine(*engine); err != nil {
		fmt.Fprintln(stderr, "kvccd: -engine:", err)
		return 2
	}
	// Same for measures: server.New skips unknown names silently.
	measures := strings.Split(*indexMeasures, ",")
	for _, m := range measures {
		if _, err := kvcc.ParseMeasure(strings.TrimSpace(m)); err != nil {
			fmt.Fprintln(stderr, "kvccd: -index-measures:", err)
			return 2
		}
	}

	quotaRPS, quotaBurst, err := parseQuota(*quota)
	if err != nil {
		fmt.Fprintln(stderr, "kvccd: -quota:", err)
		return 2
	}

	pagingPolicy, err := store.ParsePagingPolicy(*paging)
	if err != nil {
		fmt.Fprintln(stderr, "kvccd: -paging:", err)
		return 2
	}

	cfg := server.Config{
		CacheSize:       *cacheSize,
		MaxK:            *maxK,
		Parallelism:     *parallel,
		RequestTimeout:  *requestTimeout,
		ComputeTimeout:  *computeTimeout,
		BuildIndex:      *index,
		IndexMaxK:       *indexMaxK,
		IndexMeasures:   measures,
		FlowEngine:      *engine,
		DataDir:         *dataDir,
		CheckpointEvery: *checkpointEvery,
		MaxInflight:     *maxInflight,
		QuotaRPS:        quotaRPS,
		QuotaBurst:      quotaBurst,
		MaxTimeout:      *maxTimeout,
		PagingPolicy:    pagingPolicy,
	}
	// With -data-dir, Open recovers every previously served graph from its
	// snapshot + WAL before any file ingestion: a restart serves the exact
	// pre-crash state without re-reading edge lists. Graphs re-registered
	// by -graph below simply replace their recovered versions.
	srv, err := server.Open(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "kvccd:", err)
		return 1
	}
	recovered := make(map[string]bool)
	for _, info := range srv.Graphs() {
		recovered[info.Name] = true
	}
	for name, path := range graphs {
		if err := srv.LoadGraphFile(name, path); err != nil {
			fmt.Fprintln(stderr, "kvccd:", err)
			return 1
		}
	}
	if (*demo || (*selftest && len(graphs) == 0)) && !recovered["demo"] {
		srv.AddGraph("demo", demoGraph())
	}
	if len(srv.Graphs()) == 0 && !*selftest {
		fmt.Fprintf(stderr, "kvccd: nothing to serve: no -graph/-demo flags and the data dir %q holds no recoverable graphs\n", *dataDir)
		return 2
	}
	for _, info := range srv.Graphs() {
		how := ""
		if recovered[info.Name] {
			how = " (recovered from data dir)"
		}
		fmt.Fprintf(stdout, "kvccd: serving %q: %d vertices, %d edges, version %d%s\n",
			info.Name, info.Vertices, info.Edges, info.Version, how)
	}

	if *selftest {
		if code := runSelfTest(srv, *indexMaxK, stdout, stderr); code != 0 {
			return code
		}
		return runPersistSelfTest(cfg, stdout, stderr)
	}

	httpServer := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Bound header reads and idle keep-alives so slow or stalled
		// clients cannot pin connections open; per-request work is
		// bounded separately by the server's request timeout.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(stdout, "kvccd: listening on %s\n", *addr)

	// Graceful shutdown: the first SIGTERM/SIGINT flips the server into
	// draining (new admissions shed with 503, healthz reports draining so
	// load balancers stop routing here), then in-flight requests get up to
	// -drain-timeout to finish before the listener is torn down and the
	// stores are closed. A second signal falls back to the runtime's
	// default handling and kills the process immediately.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.ListenAndServe() }()
	select {
	case err := <-serveErr:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(stderr, "kvccd:", err)
			return 1
		}
		return 0
	case <-sigCtx.Done():
	}
	stop()
	fmt.Fprintf(stdout, "kvccd: shutdown signal received; draining for up to %s\n", *drainTimeout)
	srv.BeginDrain()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	if err := httpServer.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "kvccd: drain timeout exceeded; closing with requests in flight:", err)
		httpServer.Close()
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(stderr, "kvccd:", err)
		return 1
	}
	fmt.Fprintln(stdout, "kvccd: shutdown complete")
	return 0
}

// parseQuota parses the -quota flag: "rps" or "rps:burst". An empty value
// disables quotas.
func parseQuota(raw string) (rps float64, burst int, err error) {
	if raw == "" {
		return 0, 0, nil
	}
	rpsPart, burstPart, hasBurst := strings.Cut(raw, ":")
	rps, err = strconv.ParseFloat(rpsPart, 64)
	if err != nil || rps <= 0 {
		return 0, 0, fmt.Errorf("want rps[:burst] with rps > 0, got %q", raw)
	}
	if hasBurst {
		burst, err = strconv.Atoi(burstPart)
		if err != nil || burst <= 0 {
			return 0, 0, fmt.Errorf("want rps[:burst] with burst > 0, got %q", raw)
		}
	}
	return rps, burst, nil
}

// demoGraph builds a deterministic planted-community graph: eight dense
// blocks chained by sub-k overlaps plus background noise, the structure
// k-VCC enumeration is designed to recover.
func demoGraph() *graph.Graph {
	g, _ := gen.Planted(gen.PlantedConfig{
		Communities:   8,
		MinSize:       12,
		MaxSize:       20,
		IntraProb:     0.7,
		ChainOverlap:  2,
		ChainEvery:    2,
		BridgeEdges:   6,
		NoiseVertices: 120,
		NoiseDegree:   3,
		Seed:          1,
	})
	return g
}

// runSelfTest drives every endpoint through the client against a live
// listener and verifies the cache actually short-circuits repeat queries.
// indexMaxK mirrors the -index-max-k flag: a truncated index is expected
// to be incomplete and only serves levels up to the cap, so the
// index-served probe adapts accordingly.
func runSelfTest(srv *server.Server, indexMaxK int, stdout, stderr io.Writer) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(stderr, "kvccd: selftest:", err)
		return 1
	}
	httpServer := &http.Server{Handler: srv.Handler()}
	go httpServer.Serve(ln)
	defer httpServer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := server.NewClient("http://" + ln.Addr().String())

	fail := func(step string, err error) int {
		fmt.Fprintf(stderr, "kvccd: selftest: %s: %v\n", step, err)
		return 1
	}

	if err := client.Health(ctx); err != nil {
		return fail("health", err)
	}
	infos, err := client.Graphs(ctx)
	if err != nil || len(infos) == 0 {
		return fail("graphs", err)
	}
	// k = 5 resolves the demo graph into its planted communities (k = 4
	// still merges them across the sub-k chain overlaps).
	name := infos[0].Name
	const k = 5

	first, err := client.Enumerate(ctx, server.EnumerateRequest{Graph: name, K: k, IncludeMetrics: true})
	if err != nil {
		return fail("enumerate", err)
	}
	fmt.Fprintf(stdout, "selftest: %d-VCCs of %q: %d components in %.1fms (cached=%v)\n",
		k, name, len(first.Components), first.ElapsedMS, first.Cached)

	// A repeat must be answered without re-running the algorithm: from the
	// cache, or — when the index build already finished (with -index it
	// can even beat the first query) — from the hierarchy index.
	second, err := client.Enumerate(ctx, server.EnumerateRequest{Graph: name, K: k})
	if err != nil {
		return fail("enumerate (repeat)", err)
	}
	switch {
	case second.Cached:
		fmt.Fprintf(stdout, "selftest: repeat query served from cache in %.3fms\n", second.ElapsedMS)
	case second.IndexServed:
		fmt.Fprintf(stdout, "selftest: repeat query served from the hierarchy index in %.3fms\n", second.ElapsedMS)
	default:
		return fail("cache", fmt.Errorf("repeated query was recomputed"))
	}

	if len(first.Components) > 0 {
		v := first.Components[0].Vertices[0]
		containing, err := client.ComponentsContaining(ctx, server.ContainingRequest{Graph: name, K: k, Vertex: v})
		if err != nil {
			return fail("components-containing", err)
		}
		fmt.Fprintf(stdout, "selftest: vertex %d is in component(s) %v\n", v, containing.Indices)

		overlap, err := client.Overlap(ctx, server.OverlapRequest{Graph: name, K: k})
		if err != nil {
			return fail("overlap", err)
		}
		fmt.Fprintf(stdout, "selftest: overlap matrix is %dx%d\n", len(overlap.Matrix), len(overlap.Matrix))
	}

	// Hierarchy index: the request blocks until the background (or
	// on-demand) build finishes, after which any uncached k must be
	// served from the tree rather than enumerated.
	hier, err := client.Hierarchy(ctx, server.HierarchyRequest{Graph: name})
	if err != nil {
		return fail("hierarchy", err)
	}
	fmt.Fprintf(stdout, "selftest: hierarchy of %q: max k=%d, %d components across %d levels (built in %.1fms)\n",
		name, hier.MaxK, hier.Size, len(hier.Levels), hier.BuildMS)
	if indexMaxK == 0 && !hier.Complete {
		return fail("hierarchy", fmt.Errorf("full-depth index build reported incomplete"))
	}

	// Probe a k the (possibly truncated) index must cover: one past the
	// query k for a full-depth build, otherwise a level within the cap.
	probe := k + 1
	if indexMaxK > 0 && probe > hier.MaxK {
		probe = 2
	}
	indexed, err := client.Enumerate(ctx, server.EnumerateRequest{Graph: name, K: probe})
	if err != nil {
		return fail("enumerate (indexed)", err)
	}
	if !indexed.IndexServed {
		return fail("index", fmt.Errorf("k=%d was not served from the hierarchy index", probe))
	}
	fmt.Fprintf(stdout, "selftest: %d-VCCs served from the index in %.3fms (%d components)\n",
		probe, indexed.ElapsedMS, len(indexed.Components))

	if len(first.Components) > 0 {
		v := first.Components[0].Vertices[0]
		coh, err := client.Cohesion(ctx, server.CohesionRequest{Graph: name, Vertices: []int64{v}})
		if err != nil {
			return fail("cohesion", err)
		}
		// A truncated index cannot see cohesion past its cap.
		wantAtLeast := k
		if indexMaxK > 0 && indexMaxK < k {
			wantAtLeast = indexMaxK
		}
		if len(coh.Results) != 1 || coh.Results[0].Cohesion < wantAtLeast {
			return fail("cohesion", fmt.Errorf("vertex %d in a %d-VCC reports cohesion %d",
				v, k, coh.Results[0].Cohesion))
		}
		fmt.Fprintf(stdout, "selftest: vertex %d has cohesion %d (nesting chain of %d components)\n",
			v, coh.Results[0].Cohesion, len(coh.Results[0].Path))
	}

	// Cohesion suite: the same k served under all three measures, which
	// must nest — every k-VCC inside some k-ECC inside some k-core
	// component (Whitney: κ ≤ λ ≤ δ).
	kecc, err := client.Enumerate(ctx, server.EnumerateRequest{Graph: name, K: k, Measure: "kecc"})
	if err != nil {
		return fail("enumerate (kecc)", err)
	}
	kcore, err := client.Enumerate(ctx, server.EnumerateRequest{Graph: name, K: k, Measure: "kcore"})
	if err != nil {
		return fail("enumerate (kcore)", err)
	}
	if err := checkNesting(first.Components, kecc.Components, "k-ECC"); err != nil {
		return fail("nesting", err)
	}
	if err := checkNesting(kecc.Components, kcore.Components, "k-core component"); err != nil {
		return fail("nesting", err)
	}
	fmt.Fprintf(stdout, "selftest: %d kvcc ⊆ %d kecc ⊆ %d kcore components at k=%d (nesting holds)\n",
		len(first.Components), len(kecc.Components), len(kcore.Components), k)

	// A repeated non-default-measure query must ride the same ladder.
	keccRepeat, err := client.Enumerate(ctx, server.EnumerateRequest{Graph: name, K: k, Measure: "kecc"})
	if err != nil {
		return fail("enumerate (kecc repeat)", err)
	}
	if !keccRepeat.Cached && !keccRepeat.IndexServed {
		return fail("cache (kecc)", fmt.Errorf("repeated kecc query was recomputed"))
	}
	fmt.Fprintf(stdout, "selftest: repeat kecc query served without recomputation (cached=%v index=%v)\n",
		keccRepeat.Cached, keccRepeat.IndexServed)

	// Profile: structural summary plus per-vertex (core, λ, κ) for a
	// community vertex, which must be consistent with the k-VCC above.
	if len(first.Components) > 0 {
		v := first.Components[0].Vertices[0]
		prof, err := client.Profile(ctx, server.ProfileRequest{Graph: name, Vertices: []int64{v}})
		if err != nil {
			return fail("profile", err)
		}
		if prof.Degeneracy < k {
			return fail("profile", fmt.Errorf("graph holds a %d-VCC but degeneracy is %d", k, prof.Degeneracy))
		}
		if len(prof.PerVertex) != 1 {
			return fail("profile", fmt.Errorf("asked for 1 vertex profile, got %d", len(prof.PerVertex)))
		}
		pv := prof.PerVertex[0]
		wantAtLeast := k
		if indexMaxK > 0 && indexMaxK < k {
			wantAtLeast = indexMaxK
		}
		if pv.Core < pv.Lambda || pv.Lambda < pv.Kappa || pv.Kappa < wantAtLeast {
			return fail("profile", fmt.Errorf("vertex %d in a %d-VCC profiles as core=%d λ=%d κ=%d",
				v, k, pv.Core, pv.Lambda, pv.Kappa))
		}
		fmt.Fprintf(stdout, "selftest: profile of %q: degeneracy=%d, %d components, recommended k %d..%d (suggested %d); vertex %d: core=%d λ=%d κ=%d\n",
			name, prof.Degeneracy, prof.Components.Count, prof.RecommendedK.Min, prof.RecommendedK.Max,
			prof.RecommendedK.Suggested, v, pv.Core, pv.Lambda, pv.Kappa)
	}

	batch, err := client.EnumerateBatch(ctx, server.BatchEnumerateRequest{Graph: name, Ks: []int{2, 3, k}})
	if err != nil {
		return fail("enumerate-batch", err)
	}
	if len(batch.Results) != 3 {
		return fail("enumerate-batch", fmt.Errorf("asked for 3 values of k, got %d results", len(batch.Results)))
	}
	fmt.Fprintf(stdout, "selftest: batch k=2,3,%d answered in one call (%d+%d+%d components)\n",
		k, len(batch.Results[0].Components), len(batch.Results[1].Components), len(batch.Results[2].Components))

	stats, err := client.Stats(ctx)
	if err != nil {
		return fail("stats", err)
	}
	if stats.Cache.Hits < 1 && !second.IndexServed {
		return fail("stats", fmt.Errorf("expected at least one cache hit, got %d", stats.Cache.Hits))
	}
	if stats.Enumerations.IndexServed < 1 {
		return fail("stats", fmt.Errorf("expected at least one index-served query, got %d",
			stats.Enumerations.IndexServed))
	}
	fmt.Fprintf(stdout, "selftest: cache hits=%d misses=%d, enumerations=%d, index-served=%d (%.1fms total)\n",
		stats.Cache.Hits, stats.Cache.Misses, stats.Enumerations.Started,
		stats.Enumerations.IndexServed, stats.Enumerations.TotalMS)

	// Dynamic layer: graft a fresh K6 onto the graph under labels far
	// outside any realistic dataset, verify the edit bumped the version,
	// and query the new community back out at k=5.
	const editBase = int64(1) << 40
	var grafted [][2]int64
	for i := int64(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			grafted = append(grafted, [2]int64{editBase + i, editBase + j})
		}
	}
	edit, err := client.Edits(ctx, server.EditsRequest{Graph: name, Inserts: grafted})
	if err != nil {
		return fail("edits", err)
	}
	if edit.AppliedInserts != len(grafted) || edit.Version < 2 {
		return fail("edits", fmt.Errorf("grafted %d edges but response says %d applied at version %d",
			len(grafted), edit.AppliedInserts, edit.Version))
	}
	fmt.Fprintf(stdout, "selftest: grafted a K6 in %.1fms (version %d, affected k<=%d, cache kept/dropped %d/%d)\n",
		edit.ElapsedMS, edit.Version, edit.AffectedMaxK, edit.CacheKept, edit.CacheInvalidated)
	infos, err = client.Graphs(ctx)
	if err != nil || len(infos) == 0 {
		return fail("graphs (after edit)", err)
	}
	if infos[0].Version != edit.Version {
		return fail("graphs (after edit)", fmt.Errorf("graph info version %d, edit reported %d",
			infos[0].Version, edit.Version))
	}
	containing, err := client.ComponentsContaining(ctx, server.ContainingRequest{
		Graph: name, K: 5, Vertex: editBase,
	})
	if err != nil {
		return fail("components-containing (grafted)", err)
	}
	if len(containing.Components) != 1 || containing.Components[0].NumVertices != 6 {
		return fail("components-containing (grafted)",
			fmt.Errorf("grafted K6 not recovered: %+v", containing.Components))
	}
	fmt.Fprintf(stdout, "selftest: grafted K6 recovered as a 5-VCC of %d vertices\n",
		containing.Components[0].NumVertices)

	// Removal: the daemon must forget the graph entirely.
	if err := client.RemoveGraph(ctx, name); err != nil {
		return fail("remove-graph", err)
	}
	if _, err := client.Enumerate(ctx, server.EnumerateRequest{Graph: name, K: 2}); err == nil {
		return fail("remove-graph", fmt.Errorf("graph %q still answers after removal", name))
	}
	fmt.Fprintf(stdout, "selftest: graph %q removed\n", name)

	fmt.Fprintln(stdout, "selftest: ok")
	return 0
}

// checkNesting asserts every inner component's vertex set is contained in
// a single outer component — the per-level nesting the cohesion measures
// guarantee (k-VCC ⊆ k-ECC ⊆ k-core component).
func checkNesting(inner, outer []server.Component, outerName string) error {
	for i, in := range inner {
		contained := false
		for _, out := range outer {
			set := make(map[int64]bool, len(out.Vertices))
			for _, v := range out.Vertices {
				set[v] = true
			}
			all := true
			for _, v := range in.Vertices {
				if !set[v] {
					all = false
					break
				}
			}
			if all {
				contained = true
				break
			}
		}
		if !contained {
			return fmt.Errorf("inner component %d (%d vertices) is not inside any %s", i, len(in.Vertices), outerName)
		}
	}
	return nil
}

// runPersistSelfTest proves the durability layer end to end: a first
// server ingests and edits a graph against a throwaway data directory and
// is then abandoned without any shutdown — the in-process stand-in for a
// kill, since the fsync'd snapshot and WAL are exactly what a dead
// process leaves behind. A second server recovering from the same
// directory must report the same version and serve byte-identical
// enumeration results, without ever re-ingesting the graph.
func runPersistSelfTest(base server.Config, stdout, stderr io.Writer) int {
	fail := func(step string, err error) int {
		fmt.Fprintf(stderr, "kvccd: persist selftest: %s: %v\n", step, err)
		return 1
	}
	dir, err := os.MkdirTemp("", "kvccd-persist-*")
	if err != nil {
		return fail("tempdir", err)
	}
	defer os.RemoveAll(dir)

	cfg := base
	cfg.DataDir = dir
	// A high checkpoint interval keeps the edit batches below in the WAL,
	// so recovery exercises replay, not just the snapshot.
	cfg.CheckpointEvery = 64
	cfg.BuildIndex = false

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	a, err := server.Open(cfg)
	if err != nil {
		return fail("open (first)", err)
	}
	a.AddGraph("demo", demoGraph())

	// Two effective edit batches land in the WAL: graft two K6 cliques
	// under label ranges no dataset reaches.
	for i, labelBase := range []int64{1 << 40, 1 << 41} {
		var graft [][2]int64
		for x := int64(0); x < 6; x++ {
			for y := x + 1; y < 6; y++ {
				graft = append(graft, [2]int64{labelBase + x, labelBase + y})
			}
		}
		resp, err := a.Edits(ctx, server.EditsRequest{Graph: "demo", Inserts: graft})
		if err != nil {
			return fail("edits", err)
		}
		if !resp.Persisted {
			return fail("edits", fmt.Errorf("batch %d was not durably logged", i+1))
		}
	}
	before, err := a.Enumerate(ctx, server.EnumerateRequest{Graph: "demo", K: 5})
	if err != nil {
		return fail("enumerate (before)", err)
	}
	beforeJSON, err := json.Marshal(before.Components)
	if err != nil {
		return fail("marshal", err)
	}
	infos := a.Graphs()
	if len(infos) != 1 {
		return fail("graphs (before)", fmt.Errorf("want 1 graph, have %d", len(infos)))
	}
	wantVersion := infos[0].Version
	// No a.Close(): the first server "dies" here, keeping only what it
	// already fsync'd.

	b, err := server.Open(cfg)
	if err != nil {
		return fail("open (recovery)", err)
	}
	defer b.Close()
	infos = b.Graphs()
	if len(infos) != 1 || infos[0].Name != "demo" {
		return fail("recovery", fmt.Errorf("recovered graphs %+v, want just \"demo\"", infos))
	}
	if infos[0].Version != wantVersion {
		return fail("recovery", fmt.Errorf("recovered version %d, want %d", infos[0].Version, wantVersion))
	}
	after, err := b.Enumerate(ctx, server.EnumerateRequest{Graph: "demo", K: 5})
	if err != nil {
		return fail("enumerate (after)", err)
	}
	afterJSON, err := json.Marshal(after.Components)
	if err != nil {
		return fail("marshal", err)
	}
	if !bytes.Equal(beforeJSON, afterJSON) {
		return fail("recovery", fmt.Errorf("recovered graph enumerates differently at k=5"))
	}
	fmt.Fprintf(stdout, "persist selftest: recovered %q at version %d; k=5 results byte-identical (%d components)\n",
		"demo", wantVersion, len(after.Components))
	if ps := b.Stats().Paging; ps != nil {
		fmt.Fprintf(stdout, "persist selftest: paging policy=%s mapped=%dB resident=%d/%d pages, snapshot open %.3fms\n",
			ps.Policy, ps.MappedBytes, ps.ResidentPages, ps.TotalPages, ps.SnapshotOpenMS)
	}
	fmt.Fprintln(stdout, "persist selftest: ok")
	return 0
}
