package main

import (
	"fmt"
	"maps"
	"slices"
)

// metricName is a reported metric and its unit, in the order
// BENCHMARK.json lists it.
type metricName struct{ name, unit string }

// endToEndNames are printed by every untraced run.
var endToEndNames = []metricName{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayerNames are printed by every traced run. A workload reports 0
// for a layer it does not exercise; the human-readable lines above the
// result omit those.
var perLayerNames = []metricName{
	// End-to-end figures that only some workloads can resolve: tail and
	// edit latency, and the error and staleness rates. latency_p90_ms has
	// fewer than ten samples beyond it per op class on fig10-cold, so it
	// carries no bound.
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"edit_latency_p50_ms", "ms"},
	{"edit_latency_p90_ms", "ms"},
	{"error_rate", "ratio"},
	{"stale_rate", "ratio"},

	{"server.rung_index_ms_p50", "ms"},
	{"server.rung_cache_ms_p50", "ms"},
	{"server.rung_computed_ms_p50", "ms"},
	{"server.rung_degraded_count", "count"},
	{"server.rung_deduped_count", "count"},
	{"server.wire_ms_p50", "ms"},
	{"server.response_bytes_p50", "bytes"},
	{"server.shed_count", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.enumerations_started", "count"},

	{"hierarchy.build_s", "s"},
	{"hierarchy.level_us_p50", "us"},

	{"incr.partition_ms", "ms"},
	{"incr.reuse_ratio", "ratio"},

	{"kcore.reduce_ms", "ms"},
	{"kcore.peeled", "count"},

	{"core.enumerate_ms", "ms"},
	{"core.global_cut_calls", "count"},
	{"core.partitions", "count"},
	{"core.loc_cut_tests", "count"},
	{"core.phase2_pairs", "count"},
	{"core.sweep_prune_ratio", "ratio"},
	{"core.peak_bytes", "bytes"},

	{"sparse.compute_ms", "ms"},

	{"flow.runs", "count"},
	{"flow.runs_per_loc_cut", "ratio"},
	{"flow.min_vertex_cut_us_p50", "us"},
	{"flow.est_share", "ratio"},
	{"flow.localvc_attempts", "count"},
	{"flow.localvc_fallback_ratio", "ratio"},

	{"graphio.ingest_ms", "ms"},
	{"graph.induced_subgraph_us_p50", "us"},

	{"store.open_ms", "ms"},
	{"store.append_ms_p50", "ms"},
	{"store.checkpoint_ms", "ms"},
	{"store.wal_bytes_per_edit", "bytes"},
	{"store.resident_ratio", "ratio"},
	{"store.major_faults", "count"},

	{"loadgen.lag_ms_p99", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.completed", "count"},
	{"loadgen.capacity_ops_s", "ops/s"},
	{"trace.overhead_ratio", "ratio"},

	// Self time per module in the traced phase: each span's duration
	// minus what its child spans cover, summed by module.
	{"self_ms.server", "ms"},
	{"self_ms.hierarchy", "ms"},
	{"self_ms.incr", "ms"},
	{"self_ms.kcore", "ms"},
	{"self_ms.core", "ms"},
	{"self_ms.sparse", "ms"},
	{"self_ms.flow", "ms"},
	{"self_ms.graph", "ms"},
	{"self_ms.graphio", "ms"},
	{"self_ms.store", "ms"},
	{"self_ms.kvcc", "ms"},
}

// summary is what one timed phase amounts to.
type summary struct {
	res                                 loopResult
	attempted, completed                int
	wrong, shed, timedOut, otherFailure int
	reads, stale                        int
	firstErr                            error
}

func summarize(r loopResult) summary {
	s := summary{res: r, attempted: len(r.records)}
	for _, rec := range r.records {
		switch {
		case rec.err != nil:
			if s.firstErr == nil {
				s.firstErr = rec.err
			}
			switch failureKind(rec.err) {
			case "shed":
				s.shed++
			case "timeout":
				s.timedOut++
			default:
				s.otherFailure++
			}
		case rec.wrong:
			s.wrong++
		default:
			s.completed++
		}
		if !rec.edit && rec.err == nil {
			s.reads++
			if rec.degraded {
				s.stale++
			}
		}
	}
	return s
}

func (s summary) failed() int { return s.shed + s.timedOut + s.otherFailure + s.wrong }

// latencies returns the latencies of the edit ops (edit) or of the
// query ops (!edit) that did not fail, grouped by op class in class
// order. A failed op is not a latency sample: it fails the run instead.
func latencies(recs []record, edit bool) classes {
	by := map[int]samples{}
	for _, r := range recs {
		if r.edit == edit && r.err == nil {
			by[r.class] = append(by[r.class], r.latencyMS)
		}
	}
	out := make(classes, 0, len(by))
	for _, c := range slices.Sorted(maps.Keys(by)) {
		out = append(out, by[c])
	}
	return out
}

// addPercentile records the p-th percentile of c under name. The value
// is always recorded; the note says when fewer than ten samples lie
// beyond it in some class, in which case it is indicative only.
func addPercentile(m metrics, name string, c classes, p float64) {
	v, n, beyond, ok := c.percentile(p)
	if n == 0 {
		return
	}
	note := fmt.Sprintf("%d beyond", beyond)
	if len(c) > 1 {
		note = fmt.Sprintf("geometric mean over %d op classes, fewest beyond in a class %d", len(c), beyond)
	}
	if !ok {
		note += "; fewer than 10 beyond, indicative only"
	}
	m.setN(name, v, "ms", n, note)
}

// addEndToEnd records the end-to-end figures of the untraced phase.
func (s summary) addEndToEnd(m metrics, setup samples) {
	m.setN("setup_s", setup.median(), "s", len(setup), "median of set-up repetitions")
	q := latencies(s.res.records, false)
	addPercentile(m, "latency_p50_ms", q, 50)
	addPercentile(m, "latency_p90_ms", q, 90)
	addPercentile(m, "latency_p99_ms", q, 99)
	edits := latencies(s.res.records, true)
	addPercentile(m, "edit_latency_p50_ms", edits, 50)
	addPercentile(m, "edit_latency_p90_ms", edits, 90)
	m.setN("throughput_ops_s", float64(s.completed)/s.res.wall.Seconds(), "ops/s", s.completed,
		fmt.Sprintf("over %.2f s", s.res.wall.Seconds()))
	m.setN("error_rate", ratio(float64(s.failed()), float64(s.attempted)), "ratio", s.attempted,
		fmt.Sprintf("shed %d, timed out %d, failed %d, wrong %d", s.shed, s.timedOut, s.otherFailure, s.wrong))
	m.setN("stale_rate", ratio(float64(s.stale), float64(s.reads)), "ratio", s.reads, fmt.Sprintf("%d degraded", s.stale))
}

// addLoadgen records how well the generator kept its schedule.
func (s summary) addLoadgen(m metrics) {
	var lag samples
	for _, r := range s.res.records {
		lag = append(lag, r.lagMS)
	}
	addPercentile(m, "loadgen.lag_ms_p99", classes{lag}, 99)
	m.set("loadgen.sent", float64(s.attempted), "count")
	m.set("loadgen.completed", float64(s.completed), "count")
}
