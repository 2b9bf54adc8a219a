package main

import (
	"context"
	"fmt"
	"time"

	"kvcc"
	"kvcc/graph"
	"kvcc/graphio"
	"kvcc/internal/core"
	"kvcc/internal/flow"
	"kvcc/internal/incr"
	"kvcc/internal/kcore"
	"kvcc/internal/sparse"
)

// fig10 is the paper's headline efficiency experiment (Fig. 10): cold
// VCCE* enumerations, one caller, in-process. It bypasses the server,
// the cache, the index and the store.
type fig10 struct {
	inputs []*relabeled
	graphs []*graph.Graph // ingested from the seeded files
	ops    []fig10Op
	want   []string       // VCCE reference digest per op, in stand-in labels
	first  []*kvcc.Result // first VCCE* result per op, validated after timing
}

type fig10Op struct {
	graph int
	k     int
}

var (
	fig10Datasets = []string{"Stanford", "DBLP", "Google", "Cit"}
	fig10Ks       = []int{20, 30}
)

const fig10Scale = 1.0

// fig10Options is the configuration the paper's figure measures.
var fig10Options = []kvcc.Option{
	kvcc.WithAlgorithm(kvcc.VCCEStar),
	kvcc.WithFlowEngine(kvcc.FlowAuto),
	kvcc.WithParallelism(1),
}

func (w *fig10) prepare(e *env) error {
	for gi, name := range fig10Datasets {
		r, err := writeRelabeled(e.dir, name, fig10Scale, e.seed)
		if err != nil {
			return err
		}
		w.inputs = append(w.inputs, r)
		for _, k := range fig10Ks {
			// The reference is the basic algorithm on the stand-in in its
			// own labels: VCCE* on the relabelled file must agree with it,
			// which checks both the variant and the seed independence.
			ref, err := reference(r.graph, k, core.VCCE)
			if err != nil {
				return err
			}
			w.ops = append(w.ops, fig10Op{graph: gi, k: k})
			w.want = append(w.want, digest(graphSets(ref.Components), nil))
		}
	}
	w.first = make([]*kvcc.Result, len(w.ops))
	return nil
}

// setup ingests the seeded edge-list files: the program's set-up.
func (w *fig10) setup(e *env, rep int) error {
	graphs, _, err := ingest(nil, w.inputs)
	w.graphs = graphs
	return err
}

// ingest streams every input file into a graph, recording one span per
// file.
func ingest(tr *tracer, inputs []*relabeled) ([]*graph.Graph, float64, error) {
	var graphs []*graph.Graph
	var total float64
	for i, in := range inputs {
		var g *graph.Graph
		var err error
		total += tr.call("graphio.ingest", i, 0, func() {
			g, err = graphio.StreamEdgeListFile(in.path)
		})
		if err != nil {
			return nil, 0, err
		}
		graphs = append(graphs, g)
	}
	return graphs, total, nil
}

func (w *fig10) run(e *env, d time.Duration) (loopResult, error) {
	ctx := context.Background()
	return closedLoop(d, len(w.ops), medianSamples, nil, func(i int) outcome {
		j := i % len(w.ops)
		op := w.ops[j]
		var res *kvcc.Result
		var err error
		e.tr.call("kvcc.enumerate", i, 0, func() {
			res, err = kvcc.EnumerateContext(ctx, w.graphs[op.graph], op.k, fig10Options...)
		})
		return outcome{class: j, err: err, check: func() bool {
			if w.first[j] == nil {
				w.first[j] = res
			}
			return digest(graphSets(res.Components), w.inputs[op.graph].unmap) == w.want[j]
		}}
	})
}

// verify validates each distinct result once, outside the timed region.
func (w *fig10) verify(e *env) error {
	for j, res := range w.first {
		if res == nil {
			continue
		}
		op := w.ops[j]
		if err := kvcc.Validate(w.graphs[op.graph], res); err != nil {
			return fmt.Errorf("%s k=%d: %w", fig10Datasets[op.graph], op.k, err)
		}
		fmt.Printf("digest %s k=%d %s (%d components)\n", fig10Datasets[op.graph], op.k, w.want[j], len(res.Components))
	}
	return nil
}

// layers replays one pass of the ops through the layers' public entry
// points, one span per call, and derives the per-layer metrics. Times
// are per pass: summed over the distinct (dataset, k) ops.
func (w *fig10) layers(e *env, m metrics) error {
	tr := e.tr
	graphs, ingestMS, err := ingest(tr, w.inputs)
	if err != nil {
		return err
	}
	m.set("graphio.ingest_ms", ingestMS, "ms")
	pl := replayPipeline(tr, graphs, w.ops, e.seed)
	pl.report(m)
	return nil
}

// trim drops the stand-ins in their own labels, which only the reference
// enumerations in prepare needed.
func (w *fig10) trim() error {
	for _, in := range w.inputs {
		in.graph = nil
	}
	return nil
}

func (w *fig10) close() {}

// pipeline accumulates the per-layer figures of a replay.
type pipeline struct {
	kcoreMS, partitionMS, sparseMS, coreMS float64
	peeled                                 int64
	induced, minCut, cutOnly               samples // µs per call
	stats                                  core.Stats
}

// replayPipeline runs each op's enumeration step by step through the
// layers' public functions — kcore.Reduce, incr.Partition, the induced
// subgraphs, sparse.Compute per component, core.EnumerateComponentsContext
// — plus a replay of NewNetworkScratch + MinVertexCut on seeded vertex
// pairs in each component.
func replayPipeline(tr *tracer, graphs []*graph.Graph, ops []fig10Op, seed uint64) *pipeline {
	p := &pipeline{}
	rng := newRand(seed, purposeFlowPairs)
	var scratch flow.Scratch
	ctx := context.Background()
	for j, op := range ops {
		g := graphs[op.graph]
		root := tr.begin("replay", j, 0)
		var cored *graph.Graph
		var peeled int
		p.kcoreMS += tr.call("kcore.reduce", j, root, func() { cored, peeled = kcore.Reduce(g, op.k) })
		p.peeled += int64(peeled)
		var comps []*graph.Graph
		p.partitionMS += tr.call("incr.partition", j, root, func() { comps, _, _ = incr.Partition(g, op.k) })
		for _, cc := range cored.ConnectedComponents() {
			if len(cc) <= op.k {
				continue
			}
			p.induced = append(p.induced, 1000*tr.call("graph.induced_subgraph", j, root, func() { cored.InducedSubgraph(cc) }))
		}
		for _, c := range comps {
			p.sparseMS += tr.call("sparse.compute", j, root, func() { sparse.Compute(c, op.k) })
		}
		var stats *core.Stats
		p.coreMS += tr.call("core.enumerate", j, root, func() {
			_, stats, _ = core.EnumerateComponentsContext(ctx, comps, op.k, core.Options{Algorithm: core.VCCEStar})
		})
		if stats != nil {
			p.stats.Add(stats)
		}
		for _, c := range comps {
			n := c.NumVertices()
			for range 4 {
				u, v := rng.IntN(n), rng.IntN(n)
				if u == v || c.HasEdge(u, v) {
					continue
				}
				var nw *flow.Network
				build := tr.call("flow.network", j, root, func() { nw = flow.NewNetworkScratch(c, op.k, &scratch) })
				cut := tr.call("flow.min_vertex_cut", j, root, func() { nw.MinVertexCut(u, v) })
				p.minCut = append(p.minCut, 1000*(build+cut))
				p.cutOnly = append(p.cutOnly, 1000*cut)
			}
		}
		tr.end(root)
	}
	return p
}

func (p *pipeline) report(m metrics) {
	s := p.stats
	m.set("kcore.reduce_ms", p.kcoreMS, "ms")
	m.set("kcore.peeled", float64(p.peeled), "count")
	m.set("incr.partition_ms", p.partitionMS, "ms")
	m.set("sparse.compute_ms", p.sparseMS, "ms")
	m.set("core.enumerate_ms", p.coreMS, "ms")
	m.set("core.global_cut_calls", float64(s.GlobalCutCalls), "count")
	m.set("core.partitions", float64(s.Partitions), "count")
	m.set("core.loc_cut_tests", float64(s.LocCutTests), "count")
	m.set("core.phase2_pairs", float64(s.Phase2Pairs), "count")
	swept := float64(s.SweptNS1 + s.SweptNS2 + s.SweptGS)
	m.set("core.sweep_prune_ratio", ratio(swept, swept+float64(s.TestedNonPrune)), "ratio")
	m.set("core.peak_bytes", float64(s.PeakBytes), "bytes")
	m.set("flow.runs", float64(s.FlowRuns), "count")
	m.set("flow.runs_per_loc_cut", ratio(float64(s.FlowRuns), float64(s.LocCutTests)), "ratio")
	addLocalVC(m, s)
	if len(p.minCut) > 0 {
		m.setN("flow.min_vertex_cut_us_p50", p.minCut.median(), "us", len(p.minCut), "NewNetworkScratch + MinVertexCut")
		m.setN("flow.est_share", ratio(float64(s.FlowRuns)*p.cutOnly.median()/1000, p.coreMS), "ratio", 0,
			"estimate: flow runs × replayed MinVertexCut p50 ÷ core.enumerate_ms")
	}
	if len(p.induced) > 0 {
		m.setN("graph.induced_subgraph_us_p50", p.induced.median(), "us", len(p.induced), "")
	}
}

// addLocalVC records how often the LocalVC engine ran and fell back.
func addLocalVC(m metrics, s core.Stats) {
	m.set("flow.localvc_attempts", float64(s.LocalCutAttempts), "count")
	m.set("flow.localvc_fallback_ratio", ratio(float64(s.LocalCutFallbacks), float64(s.LocalCutAttempts)), "ratio")
}
