package kvcc_test

// One benchmark per table and figure of the paper's evaluation (Section 6).
// These regenerate the experiments at a bench-friendly scale; the full-size
// runs live in cmd/experiments. Run with:
//
//	go test -bench=. -benchmem
//
// Reported custom metrics follow the quantity each figure plots:
// components (Fig. 11), peak bytes (Fig. 12), pruned fraction (Table 2).

import (
	"fmt"
	"testing"

	"kvcc"
	"kvcc/gen"
	"kvcc/graph"
	"kvcc/internal/dataset"
	"kvcc/metrics"
)

// benchScale keeps every benchmark iteration in the tens-of-milliseconds
// range so the full suite completes quickly.
const benchScale = 0.15

var datasetCache = map[string]*graph.Graph{}

func benchDataset(b *testing.B, name string) *graph.Graph {
	b.Helper()
	if g, ok := datasetCache[name]; ok {
		return g
	}
	g, err := dataset.Load(name, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	datasetCache[name] = g
	return g
}

// BenchmarkTable1NetworkStats regenerates Table 1: dataset construction
// and the four reported statistics.
func BenchmarkTable1NetworkStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := dataset.Table1(benchScale)
		if len(rows) != 7 {
			b.Fatal("expected 7 datasets")
		}
	}
}

// benchEffectiveness regenerates one Fig. 7-9 cell: the three models'
// average quality metrics on one dataset/k pair.
func benchEffectiveness(b *testing.B, name string, k int, pick func(metrics.Averages) float64) {
	g := benchDataset(b, name)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		cores := kvcc.KCoreComponents(g, k)
		eccs := kvcc.KECC(g, k)
		res, err := kvcc.Enumerate(g, k)
		if err != nil {
			b.Fatal(err)
		}
		sink = pick(metrics.Average(cores)) + pick(metrics.Average(eccs)) +
			pick(metrics.Average(res.Components))
	}
	_ = sink
}

// BenchmarkFig7Diameter regenerates a Fig. 7 data point (average diameter
// of k-CC / k-ECC / k-VCC).
func BenchmarkFig7Diameter(b *testing.B) {
	for _, tc := range []struct {
		name string
		k    int
	}{{"Youtube", 7}, {"DBLP", 16}} {
		b.Run(fmt.Sprintf("%s/k=%d", tc.name, tc.k), func(b *testing.B) {
			benchEffectiveness(b, tc.name, tc.k, func(a metrics.Averages) float64 { return a.AvgDiameter })
		})
	}
}

// BenchmarkFig8EdgeDensity regenerates a Fig. 8 data point.
func BenchmarkFig8EdgeDensity(b *testing.B) {
	b.Run("Google/k=19", func(b *testing.B) {
		benchEffectiveness(b, "Google", 19, func(a metrics.Averages) float64 { return a.AvgDensity })
	})
}

// BenchmarkFig9Clustering regenerates a Fig. 9 data point.
func BenchmarkFig9Clustering(b *testing.B) {
	b.Run("Cnr/k=18", func(b *testing.B) {
		benchEffectiveness(b, "Cnr", 18, func(a metrics.Averages) float64 { return a.AvgClustering })
	})
}

// BenchmarkFig10ProcessingTime regenerates Fig. 10: enumeration time of
// the four algorithm variants per dataset and k. The ns/op of each
// sub-benchmark is the figure's y-value.
func BenchmarkFig10ProcessingTime(b *testing.B) {
	algos := []kvcc.Algorithm{kvcc.VCCE, kvcc.VCCEN, kvcc.VCCEG, kvcc.VCCEStar}
	for _, name := range []string{"Stanford", "DBLP", "Google", "Cit"} {
		for _, k := range []int{20, 30} {
			for _, algo := range algos {
				b.Run(fmt.Sprintf("%s/k=%d/%v", name, k, algo), func(b *testing.B) {
					g := benchDataset(b, name)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := kvcc.Enumerate(g, k, kvcc.WithAlgorithm(algo)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkEngineABFig10 is the enumeration-level flow-engine A/B on the
// Fig. 10 datasets: the same runs with the engine forced to Dinic and
// left on auto. Auto resolves to Dinic, so the two columns must track
// each other at both k; a gap means the resolution has drifted.
func BenchmarkEngineABFig10(b *testing.B) {
	engines := []struct {
		name string
		e    kvcc.FlowEngine
	}{
		{"dinic", kvcc.FlowDinic},
		{"auto", kvcc.FlowAuto},
	}
	for _, name := range []string{"Stanford", "DBLP"} {
		for _, k := range []int{5, 20} {
			for _, eng := range engines {
				b.Run(fmt.Sprintf("%s/k=%d/%s", name, k, eng.name), func(b *testing.B) {
					g := benchDataset(b, name)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := kvcc.Enumerate(g, k, kvcc.WithFlowEngine(eng.e)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkTable2SweepRules regenerates Table 2: the sweep-rule pruning
// proportions of VCCE*, reported as the pruned-fraction custom metric.
func BenchmarkTable2SweepRules(b *testing.B) {
	for _, name := range []string{"DBLP", "Cnr"} {
		b.Run(name, func(b *testing.B) {
			g := benchDataset(b, name)
			b.ResetTimer()
			var pruned, total float64
			for i := 0; i < b.N; i++ {
				res, err := kvcc.Enumerate(g, 25, kvcc.WithAlgorithm(kvcc.VCCEStar))
				if err != nil {
					b.Fatal(err)
				}
				s := res.Stats
				pruned += float64(s.SweptNS1 + s.SweptNS2 + s.SweptGS)
				total += float64(s.SweptNS1 + s.SweptNS2 + s.SweptGS + s.TestedNonPrune)
			}
			if total > 0 {
				b.ReportMetric(pruned/total, "pruned-frac")
			}
		})
	}
}

// BenchmarkFig11VCCCount regenerates Fig. 11: the number of k-VCCs,
// reported as the components custom metric.
func BenchmarkFig11VCCCount(b *testing.B) {
	for _, k := range []int{20, 30, 40} {
		b.Run(fmt.Sprintf("Google/k=%d", k), func(b *testing.B) {
			g := benchDataset(b, "Google")
			b.ResetTimer()
			count := 0
			for i := 0; i < b.N; i++ {
				res, err := kvcc.Enumerate(g, k)
				if err != nil {
					b.Fatal(err)
				}
				count = len(res.Components)
			}
			b.ReportMetric(float64(count), "components")
		})
	}
}

// BenchmarkFig12Memory regenerates Fig. 12: the peak structural bytes held
// by VCCE*, reported as the peak-bytes custom metric.
func BenchmarkFig12Memory(b *testing.B) {
	for _, k := range []int{20, 30, 40} {
		b.Run(fmt.Sprintf("Cit/k=%d", k), func(b *testing.B) {
			g := benchDataset(b, "Cit")
			b.ResetTimer()
			var peak int64
			for i := 0; i < b.N; i++ {
				res, err := kvcc.Enumerate(g, k)
				if err != nil {
					b.Fatal(err)
				}
				peak = res.Stats.PeakBytes
			}
			b.ReportMetric(float64(peak), "peak-bytes")
		})
	}
}

// BenchmarkFig13Scalability regenerates Fig. 13: enumeration time on
// vertex and edge samples of increasing size.
func BenchmarkFig13Scalability(b *testing.B) {
	g := benchDataset(b, "Google")
	for _, mode := range []string{"V", "E"} {
		for _, frac := range []float64{0.2, 0.6, 1.0} {
			var sample *graph.Graph
			if frac >= 1.0 {
				sample = g
			} else if mode == "V" {
				sample = gen.SampleVertices(g, frac, 7)
			} else {
				sample = gen.SampleEdges(g, frac, 7)
			}
			b.Run(fmt.Sprintf("vary%s/%.0f%%", mode, frac*100), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := kvcc.Enumerate(sample, 20); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig14CaseStudy regenerates the Fig. 14 case study: 4-VCCs vs
// the single 4-ECC in a collaboration ego network.
func BenchmarkFig14CaseStudy(b *testing.B) {
	net := gen.CollaborationEgoNet(gen.EgoNetConfig{
		Groups: 7, GroupMin: 7, GroupMax: 12, IntraProb: 0.85,
		SharedAuthors: 1, Bridges: 2, Seed: 14,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := kvcc.Enumerate(net.Graph, 4)
		if err != nil {
			b.Fatal(err)
		}
		if eccs := kvcc.KECC(net.Graph, 4); len(eccs) != 1 {
			b.Fatalf("expected one 4-ECC, got %d", len(eccs))
		}
		if len(res.ComponentsContaining(net.Hub)) < 2 {
			b.Fatal("expected multiple 4-VCCs around the hub")
		}
	}
}

// BenchmarkAblationSweepRules quantifies each optimization's contribution
// (the design choices called out in docs/DESIGN.md): LOC-CUT tests remaining
// after each pruning stage.
func BenchmarkAblationSweepRules(b *testing.B) {
	g := benchDataset(b, "Stanford")
	for _, algo := range []kvcc.Algorithm{kvcc.VCCE, kvcc.VCCEN, kvcc.VCCEG, kvcc.VCCEStar} {
		b.Run(algo.String(), func(b *testing.B) {
			var tests int64
			for i := 0; i < b.N; i++ {
				res, err := kvcc.Enumerate(g, 20, kvcc.WithAlgorithm(algo))
				if err != nil {
					b.Fatal(err)
				}
				tests = res.Stats.LocCutTests
			}
			b.ReportMetric(float64(tests), "loc-cut-tests")
		})
	}
}

// BenchmarkAblationParallelism measures the worker-pool option.
func BenchmarkAblationParallelism(b *testing.B) {
	g := benchDataset(b, "Cit")
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kvcc.Enumerate(g, 20, kvcc.WithParallelism(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
