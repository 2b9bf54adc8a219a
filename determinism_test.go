package kvcc_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"kvcc"
	"kvcc/gen"
	"kvcc/graph"
)

// determinismTestGraph is a planted-community graph with overlapping
// communities, bridges and noise, so an enumeration at small k partitions
// repeatedly and runs both sweep phases.
func determinismTestGraph() *graph.Graph {
	g, _ := gen.Planted(gen.PlantedConfig{
		Communities: 8, MinSize: 12, MaxSize: 18, IntraProb: 0.85,
		ChainOverlap: 2, ChainEvery: 3, BridgeEdges: 6,
		NoiseVertices: 100, NoiseDegree: 2, Seed: 31,
	})
	return g
}

// canonicalBytes serializes an enumeration result completely — every
// component's sorted labels and its full edge list as label pairs — so
// two byte-equal serializations mean structurally identical results, not
// just equal vertex sets.
func canonicalBytes(res *kvcc.Result) []byte {
	var buf bytes.Buffer
	for _, c := range res.Components {
		labels := c.Labels()
		sorted := append([]int64(nil), labels...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		fmt.Fprintf(&buf, "component %v\n", sorted)
		var edges [][2]int64
		for v := 0; v < c.NumVertices(); v++ {
			for _, w := range c.Neighbors(v) {
				a, b := labels[v], labels[w]
				if a < b {
					edges = append(edges, [2]int64{a, b})
				}
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i][0] != edges[j][0] {
				return edges[i][0] < edges[j][0]
			}
			return edges[i][1] < edges[j][1]
		})
		fmt.Fprintf(&buf, "edges %v\n", edges)
	}
	return buf.Bytes()
}

// TestEnumerationDeterministic pins the end-to-end determinism contract
// under the default engine: two serial runs produce byte-identical
// results (labels and edges, not only the vertex sets the differential
// suite compares) and identical Stats, and a parallel run produces the
// same bytes — worker scheduling cannot leak into the result.
func TestEnumerationDeterministic(t *testing.T) {
	g := determinismTestGraph()
	const k = 5

	run := func(opts ...kvcc.Option) *kvcc.Result {
		t.Helper()
		res, err := kvcc.Enumerate(g, k, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run()
	second := run()
	if len(first.Components) == 0 {
		t.Fatal("enumeration found no components")
	}
	if !bytes.Equal(canonicalBytes(first), canonicalBytes(second)) {
		t.Fatal("two serial runs produced different serialized results")
	}
	if first.Stats != second.Stats {
		t.Fatalf("two serial runs reported different stats:\n  %+v\nvs\n  %+v", first.Stats, second.Stats)
	}

	parallel := run(kvcc.WithParallelism(4))
	if !bytes.Equal(canonicalBytes(first), canonicalBytes(parallel)) {
		t.Fatal("parallel run produced different serialized results")
	}
}
