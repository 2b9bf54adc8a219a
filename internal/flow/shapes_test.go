package flow_test

import (
	"slices"
	"testing"

	"kvcc/graph"
	"kvcc/internal/difftest"
	"kvcc/internal/flow"
)

// TestEnginesAgreeAdversarialShapes diffs Dinic against Edmonds-Karp on
// every vertex pair of the corpus's cut-shaped graphs: small cuts far
// from the source (barbell, lollipop), no small cut at all (Harary
// expander), and one hub cut shared by many sides (star of cliques).
// Both engines run on one pooled network each, so every query after the
// first also exercises the undo log. Every returned cut must have size
// κ, avoid both endpoints and separate the pair, and the Dinic cut must
// equal the Edmonds-Karp cut element for element: a flow below the limit
// is maximum, and every maximum flow leaves the same residual-reachable
// source side, so the engines may differ in their paths but never in
// the cut they extract.
func TestEnginesAgreeAdversarialShapes(t *testing.T) {
	shapes := []struct {
		name  string
		g     *graph.Graph
		bound int
	}{
		{"barbell", difftest.Barbell(6, 4), 5},
		{"lollipop", difftest.Lollipop(7, 5), 6},
		{"harary-16-4", difftest.Harary(16, 4), 5},
		{"harary-24-6", difftest.Harary(24, 6), 7},
		{"star-of-cliques", difftest.StarOfCliques(3, 6, 2), 5},
		{"cycle", difftest.Cycle(12), 3},
		{"wheel", difftest.Wheel(10), 4},
	}
	for _, s := range shapes {
		n := s.g.NumVertices()
		dinic := flow.NewNetwork(s.g, s.bound)
		ek := flow.NewNetwork(s.g, s.bound)
		ek.SetEngine(flow.EdmondsKarp)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				cutD, cD, atLeastD := dinic.MinVertexCut(u, v)
				cutE, cE, atLeastE := ek.MinVertexCut(u, v)
				if cD != cE || atLeastD != atLeastE {
					t.Fatalf("%s (%d,%d): dinic (%d,%v) vs ek (%d,%v)", s.name, u, v, cD, atLeastD, cE, atLeastE)
				}
				if atLeastD {
					continue
				}
				if !slices.Equal(cutD, cutE) {
					t.Fatalf("%s (%d,%d): dinic cut %v != ek cut %v", s.name, u, v, cutD, cutE)
				}
				for _, cut := range [][]int{cutD, cutE} {
					if len(cut) != cD {
						t.Fatalf("%s (%d,%d): cut %v size != κ %d", s.name, u, v, cut, cD)
					}
					if !separates(s.g, u, v, cut) {
						t.Fatalf("%s (%d,%d): cut %v contains an endpoint or does not separate", s.name, u, v, cut)
					}
				}
			}
		}
	}
}

// separates reports whether cut avoids u and v and leaves no u-v path
// in g once its vertices are removed.
func separates(g *graph.Graph, u, v int, cut []int) bool {
	seen := make([]bool, g.NumVertices())
	for _, w := range cut {
		if w == u || w == v {
			return false
		}
		seen[w] = true
	}
	seen[u] = true
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == v {
			return false
		}
		for _, y := range g.Neighbors(x) {
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	return true
}
