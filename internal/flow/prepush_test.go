package flow

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"kvcc/graph"
	"kvcc/internal/verify"
)

// pushCommon finds its arcs by position, not by search, so the CSR slot
// layout NewNetworkScratch produces is a contract: slot 0 of in(v) is the
// vertex arc in(v)→out(v) and slot 0 of out(v) its reverse; slot 1+i of
// out(u) heads to in(N(u)[i]); slot 1+j of in(v) is the reverse of the
// arc out(N(v)[j])→in(v). bfsLevels reads a twin's residual off the arc
// itself, so an arc and its twin must also hold their pair's capacity
// between them — 1 in slot 0, the bound elsewhere — after any query.
func TestNetworkLayoutForPrePush(t *testing.T) {
	var s Scratch
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomConnectedGraph(n, rng.Float64()*0.5, rng)
		nw := NewNetworkScratch(g, 1+rng.Intn(n), &s)
		nw.MinVertexCut(0, n-1) // leave one query's flow in the residuals
		for node := int32(0); node < int32(2*n); node++ {
			for a := nw.arcStart[node]; a < nw.arcStart[node+1]; a++ {
				want := int32(nw.bound)
				if a == nw.arcStart[node] {
					want = 1
				}
				if got := nw.arcCap[a] + nw.arcCap[nw.arcRev[a]]; got != want {
					t.Fatalf("seed %d: arc %d and its twin hold %d, want %d", seed, a, got, want)
				}
			}
		}
		for v := 0; v < n; v++ {
			in, out := nw.arcStart[inNode(v)], nw.arcStart[outNode(v)]
			if nw.arcHead[in] != outNode(v) || nw.arcInit[in] != 1 || nw.arcRev[in] != out {
				t.Fatalf("seed %d: slot 0 of in(%d) is not the vertex arc", seed, v)
			}
			for i, w := range g.Neighbors(v) {
				if a := out + 1 + int32(i); nw.arcHead[a] != inNode(w) || nw.arcInit[a] != int32(nw.bound) {
					t.Fatalf("seed %d: slot %d of out(%d) does not head to in(%d)", seed, 1+i, v, w)
				}
				rev := nw.arcRev[in+1+int32(i)]
				if nw.arcHead[in+1+int32(i)] != outNode(w) || nw.arcHead[rev] != inNode(v) ||
					rev < nw.arcStart[outNode(w)] || rev >= nw.arcStart[outNode(w)+1] {
					t.Fatalf("seed %d: slot %d of in(%d) is not the reverse of out(%d)→in(%d)", seed, 1+i, v, w, v)
				}
			}
		}
	}
}

// completeBipartite2 returns K₂,ₘ: vertices 0 and 1 share the m common
// neighbours 2..m+1, so κ(0,1) = m.
func completeBipartite2(m int) *graph.Graph {
	var edges [][2]int
	for w := 2; w < m+2; w++ {
		edges = append(edges, [2]int{0, w}, [2]int{1, w})
	}
	return graph.FromEdges(m+2, edges)
}

// With at least limit common neighbours the pre-push alone reaches the
// limit: the query settles as one flow run without building a single
// level graph.
func TestPrePushSettlesWithoutSearch(t *testing.T) {
	for _, m := range []int{3, 5, 12} {
		g := completeBipartite2(m)
		nw := NewNetwork(g, 3)
		gen := nw.levelGen
		if cut, c, atLeast := nw.MinVertexCut(0, 1); !atLeast || c != 3 || cut != nil {
			t.Fatalf("K2,%d: got (%v,%d,%v), want atLeastBound at 3", m, cut, c, atLeast)
		}
		if nw.FlowRuns != 1 {
			t.Fatalf("K2,%d: FlowRuns = %d, want 1", m, nw.FlowRuns)
		}
		if nw.levelGen != gen {
			t.Fatalf("K2,%d: the pre-push settled query still ran a BFS", m)
		}
	}
}

// A pair with fewer common neighbours than κ needs longer augmenting
// paths after the pre-push; it must still return the brute-force κ and
// the brute-force canonical cut.
func TestPrePushThenAugment(t *testing.T) {
	// 0 and 1 share neighbour 2 and are also joined by the paths 0-3-4-1
	// and 0-5-6-1: κ(0,1) = 3 with one common neighbour.
	g := graph.FromEdges(7, [][2]int{{0, 2}, {2, 1}, {0, 3}, {3, 4}, {4, 1}, {0, 5}, {5, 6}, {6, 1}})
	cut, c, atLeast := NewNetwork(g, 4).MinVertexCut(0, 1)
	if atLeast || c != 3 || !slices.Equal(cut, []int{2, 3, 5}) {
		t.Fatalf("got (%v,%d,%v), want the source-side cut [2 3 5] of size 3", cut, c, atLeast)
	}

	checked := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(5)
		g := randomConnectedGraph(n, 0.35, rng)
		nw := NewNetwork(g, n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if g.HasEdge(u, v) {
					continue
				}
				kappa := verify.LocalConnectivityBrute(g, u, v)
				if commonNeighbours(g, u, v) >= kappa {
					continue
				}
				checked++
				cut, c, atLeast := nw.MinVertexCut(u, v)
				if atLeast || c != kappa {
					t.Fatalf("seed %d (%d,%d): got (%d,%v), brute κ %d", seed, u, v, c, atLeast, kappa)
				}
				if want := canonicalCutBrute(g, u, v, kappa); !slices.Equal(cut, want) {
					t.Fatalf("seed %d (%d,%d): cut %v, brute %v", seed, u, v, cut, want)
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d pairs needed augmenting paths beyond the pre-push", checked)
	}
}

func commonNeighbours(g *graph.Graph, u, v int) int {
	c := 0
	for _, w := range g.Neighbors(u) {
		if g.HasEdge(w, v) {
			c++
		}
	}
	return c
}

// canonicalCutBrute returns the minimum u-v vertex cut of size kappa
// closest to u: among all separating sets of that size, the one that
// leaves u the fewest reachable vertices. Minimum cuts form a lattice,
// so that cut is unique, and it is the one the residual graph of every
// maximum flow yields.
func canonicalCutBrute(g *graph.Graph, u, v, kappa int) []int {
	n := g.NumVertices()
	var best []int
	bestReach := n + 1
	for mask := 0; mask < 1<<n; mask++ {
		if mask>>u&1 == 1 || mask>>v&1 == 1 || bits.OnesCount(uint(mask)) != kappa {
			continue
		}
		avoid := map[int]bool{}
		var cut []int
		for w := 0; w < n; w++ {
			if mask>>w&1 == 1 {
				avoid[w] = true
				cut = append(cut, w)
			}
		}
		if seen := reachable(g, u, avoid); !seen[v] && len(seen) < bestReach {
			best, bestReach = cut, len(seen)
		}
	}
	return best
}

// reachable returns the vertices reachable from u once avoid is removed.
func reachable(g *graph.Graph, u int, avoid map[int]bool) map[int]bool {
	seen := map[int]bool{u: true}
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(x) {
			if !seen[w] && !avoid[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}
