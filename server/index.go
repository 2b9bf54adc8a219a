package server

import (
	"context"
	"fmt"
	"sort"
	"time"

	"kvcc"
	"kvcc/cohesion"
	"kvcc/hierarchy"
)

// graphIndex is one hierarchy-index build of one measure for one
// generation of a graph, owned by that graph's state. The build runs in a
// background goroutine; ready is closed when it finishes, after which
// tree/err/buildMS are immutable. Installing a new snapshot or retiring
// the state cancels the build via cancel, and lookups match the
// generation first, so a stale build can never serve queries.
type graphIndex struct {
	gen    uint64
	maxK   int // Options.MaxK the build uses (0 = full depth)
	ready  chan struct{}
	cancel context.CancelFunc

	// Written once before ready is closed.
	tree    *hierarchy.Tree
	err     error
	buildMS float64

	// levelRes memoizes the kvcc.Result materialized for each served
	// level, so per-Result lazy state (the label→components inverted
	// index behind ComponentsContaining/OverlapMatrix) amortizes across
	// requests instead of being rebuilt per call. Guarded by Server.mu.
	levelRes map[int]*kvcc.Result
}

// done reports whether the build has finished, without blocking.
func (ix *graphIndex) done() bool {
	select {
	case <-ix.ready:
		return true
	default:
		return false
	}
}

// startBuildLocked launches the background hierarchy build of measure m
// for gs's installed snapshot and installs it in gs's index table,
// cancelling any build it displaces. The goroutine holds a slot of
// gs.builds until its save returns. Callers hold s.mu, and gs is
// registered, so its store is already open and its retirement (which
// waits on gs.builds) has not begun.
func (s *Server) startBuildLocked(gs *graphState, m cohesion.Measure) *graphIndex {
	if old := gs.indexes[m]; old != nil {
		old.cancel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.IndexBuildTimeout)
	ix := &graphIndex{
		gen:    gs.entry.gen,
		maxK:   s.cfg.IndexMaxK,
		ready:  make(chan struct{}),
		cancel: cancel,
	}
	gs.indexes[m] = ix
	g := gs.entry.g
	gs.builds.Add(1)
	go func() {
		defer gs.builds.Done()
		defer cancel()
		begin := time.Now()
		tree, err := hierarchy.BuildContext(ctx, g, hierarchy.Options{
			MaxK:        ix.maxK,
			Measure:     m,
			Parallelism: s.cfg.Parallelism,
			FlowEngine:  s.engine, // kvcc.FlowEngine aliases core.FlowEngine
		})
		ix.buildMS = float64(time.Since(begin)) / float64(time.Millisecond)
		ix.tree, ix.err = tree, err
		close(ix.ready)
		// Persist after ready closes so queries start using the index
		// immediately; the save is advisory (it only speeds up the next
		// restart) and checks the generation itself.
		s.persistIndex(gs, ix)
	}()
	return ix
}

// indexResult returns level k of gs's finished index of measure m for
// generation gen, or nil when no successful build covers it. Non-blocking:
// the enumerate fast path uses it to opportunistically serve from the
// index while a build in progress falls back to the cache/singleflight
// path. The per-level Result is memoized on the index.
func (s *Server) indexResult(gs *graphState, gen uint64, m cohesion.Measure, k int) *kvcc.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	ix := gs.indexes[m]
	if ix == nil || ix.gen != gen || !ix.done() || ix.err != nil || !ix.tree.Covers(k) {
		return nil
	}
	if r, ok := ix.levelRes[k]; ok {
		return r
	}
	if ix.levelRes == nil {
		ix.levelRes = make(map[int]*kvcc.Result)
	}
	r := resultFromIndex(ix.tree, k)
	ix.levelRes[k] = r
	return r
}

// indexFor returns the finished index of measure m for the named graph,
// starting a build on demand if none exists, and waiting for completion
// within ctx. This is the blocking path behind the hierarchy and cohesion
// endpoints, which exist only in terms of the index. A build that
// completed with an error (e.g. it hit IndexBuildTimeout) is not cached:
// the next request starts a fresh build rather than replaying the stale
// failure forever.
func (s *Server) indexFor(ctx context.Context, name string, m cohesion.Measure) (*graphIndex, error) {
	s.mu.Lock()
	gs := s.graphs[name]
	if gs == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	ix := gs.indexes[m]
	if ix == nil || (ix.done() && ix.err != nil) {
		ix = s.startBuildLocked(gs, m)
	}
	s.mu.Unlock()
	select {
	case <-ix.ready:
		if ix.err != nil {
			return nil, fmt.Errorf("server: index build for %q: %w", name, ix.err)
		}
		return ix, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// resultFromIndex materializes a kvcc.Result for level k of a finished
// hierarchy. Components come out in the exact canonical order (and with
// the exact vertex sets) a direct enumeration would produce; Stats reports
// the work the index build spent producing that level, which is the only
// honest attribution for a query that ran no enumeration at all.
func resultFromIndex(tree *hierarchy.Tree, k int) *kvcc.Result {
	res := &kvcc.Result{K: k, Components: tree.LevelComponents(k)}
	for _, lvl := range tree.Stats.PerLevel {
		if lvl.K == k {
			res.Stats = lvl.Core
			break
		}
	}
	return res
}

// Hierarchy serves one hierarchy request: a per-level summary of the
// graph's full cohesion tree, building the index on demand when it is not
// already (being) built.
func (s *Server) Hierarchy(ctx context.Context, req HierarchyRequest) (*HierarchyResponse, error) {
	m, err := parseMeasure(req.Measure, "")
	if err != nil {
		return nil, err
	}
	ctx, cancel, err := s.requestContext(ctx, req.TimeoutMillis)
	if err != nil {
		return nil, err
	}
	defer cancel()
	release, err := s.admit(ctx, classCheap, req.Graph)
	if err != nil {
		return nil, err
	}
	defer release()
	ix, err := s.indexFor(ctx, req.Graph, m)
	if err != nil {
		return nil, err
	}
	tree := ix.tree
	resp := &HierarchyResponse{
		Graph:    req.Graph,
		Measure:  wireMeasure(m),
		MaxK:     tree.MaxK,
		Size:     tree.Size(),
		Complete: tree.Covers(tree.MaxK + 1),
		BuildMS:  ix.buildMS,
		Stats:    tree.Stats,
	}
	for k := 1; k <= tree.MaxK; k++ {
		level := tree.LevelComponents(k)
		vertices := 0
		for _, c := range level {
			vertices += c.NumVertices()
		}
		lvl := HierarchyLevel{K: k, Components: len(level), Vertices: vertices}
		if req.IncludeComponents {
			lvl.ComponentSets = wireComponents(level, false)
		}
		resp.Levels = append(resp.Levels, lvl)
	}
	return resp, nil
}

// Cohesion serves one cohesion request: for each queried vertex label, the
// deepest k at which a k-VCC contains it, plus the nesting chain of
// components down to that level.
func (s *Server) Cohesion(ctx context.Context, req CohesionRequest) (*CohesionResponse, error) {
	if len(req.Vertices) == 0 {
		return nil, fmt.Errorf("%w: cohesion request needs at least one vertex", ErrBadRequest)
	}
	if len(req.Vertices) > maxCohesionVertices {
		return nil, fmt.Errorf("%w: at most %d vertices per cohesion request, got %d",
			ErrBadRequest, maxCohesionVertices, len(req.Vertices))
	}
	m, err := parseMeasure(req.Measure, "")
	if err != nil {
		return nil, err
	}
	ctx, cancel, err := s.requestContext(ctx, req.TimeoutMillis)
	if err != nil {
		return nil, err
	}
	defer cancel()
	release, err := s.admit(ctx, classCheap, req.Graph)
	if err != nil {
		return nil, err
	}
	defer release()
	ix, err := s.indexFor(ctx, req.Graph, m)
	if err != nil {
		return nil, err
	}
	resp := &CohesionResponse{Graph: req.Graph, Measure: wireMeasure(m)}
	for _, v := range req.Vertices {
		vc := VertexCohesion{Vertex: v, Cohesion: ix.tree.Cohesion(v)}
		for _, n := range ix.tree.Path(v) {
			vc.Path = append(vc.Path, PathStep{
				K:           n.K,
				NumVertices: n.Component.NumVertices(),
				NumEdges:    n.Component.NumEdges(),
			})
		}
		resp.Results = append(resp.Results, vc)
	}
	return resp, nil
}

// EnumerateBatch serves one multi-k enumerate request under a single
// deadline. Each k goes through the same serving ladder as a standalone
// enumerate (index, then cache, then singleflight enumeration), so a batch
// against an indexed graph is answered entirely from the tree.
func (s *Server) EnumerateBatch(ctx context.Context, req BatchEnumerateRequest) (*BatchEnumerateResponse, error) {
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	m, err := parseMeasure(req.Measure, req.Algorithm)
	if err != nil {
		return nil, err
	}
	if len(req.Ks) == 0 {
		return nil, fmt.Errorf("%w: batch request needs at least one k", ErrBadRequest)
	}
	if len(req.Ks) > maxBatchKs {
		return nil, fmt.Errorf("%w: at most %d values of k per batch, got %d",
			ErrBadRequest, maxBatchKs, len(req.Ks))
	}
	ctx, cancel, err := s.requestContext(ctx, req.TimeoutMillis)
	if err != nil {
		return nil, err
	}
	defer cancel()
	release, err := s.admit(ctx, classCheap, req.Graph)
	if err != nil {
		return nil, err
	}
	defer release()

	resp := &BatchEnumerateResponse{
		Graph:     req.Graph,
		Measure:   wireMeasure(m),
		Algorithm: wireAlgorithm(m, algo),
	}
	for _, k := range req.Ks {
		begin := time.Now()
		res, src, err := s.result(ctx, req.Graph, k, m, algo)
		if err != nil {
			return nil, fmt.Errorf("k=%d: %w", k, err)
		}
		resp.Results = append(resp.Results,
			buildEnumerateResponse(req.Graph, k, m, algo, res, src, begin, req.IncludeMetrics))
	}
	return resp, nil
}

// Request-size guardrails for the index endpoints.
const (
	maxCohesionVertices = 1024
	maxBatchKs          = 64
)

// indexInfos snapshots the state of every index build for Stats.
func (s *Server) indexInfos() []IndexInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []IndexInfo
	for name, gs := range s.graphs {
		for m, ix := range gs.indexes {
			info := IndexInfo{Graph: name, Measure: wireMeasure(m), MaxK: ix.maxK}
			switch {
			case !ix.done():
				info.State = "building"
			case ix.err != nil:
				info.State = "failed"
			default:
				info.State = "ready"
				info.Size = ix.tree.Size()
				info.TreeMaxK = ix.tree.MaxK
				info.Complete = ix.tree.Covers(ix.tree.MaxK + 1)
				info.BuildMS = ix.buildMS
			}
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Graph != out[j].Graph {
			return out[i].Graph < out[j].Graph
		}
		return out[i].Measure < out[j].Measure
	})
	return out
}
