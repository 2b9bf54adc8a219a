package flow

import (
	"slices"
	"testing"

	"kvcc/graph"
	"kvcc/internal/verify"
)

// FuzzMinVertexCut cross-validates the zero-reset engines on arbitrary
// small graphs: Dinic and Edmonds-Karp, each on a pooled network reused
// across every pair (exercising the undo-log path) and on a fresh
// network per query (exercising a clean build), must agree on the
// connectivity value and on the cut itself, element for element (a flow
// below the limit is maximum, and every maximum flow leaves the same
// residual-reachable source side). Every returned cut must have size
// equal to the flow value, avoid both endpoints, and actually disconnect
// the pair.
// Small instances are additionally checked against the brute-force
// oracle.
func FuzzMinVertexCut(f *testing.F) {
	f.Add(uint8(6), uint16(0xffff), uint8(3))
	f.Add(uint8(9), uint16(0x1234), uint8(2))
	f.Add(uint8(12), uint16(0xbeef), uint8(7))
	f.Fuzz(func(t *testing.T, nRaw uint8, bits uint16, boundRaw uint8) {
		n := 3 + int(nRaw)%8 // 3..10 vertices
		var edges [][2]int
		// Path backbone keeps the graph connected; bits toggle extras.
		for i := 1; i < n; i++ {
			edges = append(edges, [2]int{i - 1, i})
		}
		b := uint32(bits)
		for u := 0; u < n && len(edges) < n+16; u++ {
			for v := u + 2; v < n; v++ {
				if b&1 == 1 {
					edges = append(edges, [2]int{u, v})
				}
				b = b>>1 | b<<15&0xffff // rotate for more than 16 pairs
			}
		}
		g := graph.FromEdges(n, edges)
		bound := 1 + int(boundRaw)%n

		dinic := NewNetwork(g, bound)
		ek := NewNetwork(g, bound)
		ek.SetEngine(EdmondsKarp)

		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				cutD, cD, atLeastD := dinic.MinVertexCut(u, v)
				cutE, cE, atLeastE := ek.MinVertexCut(u, v)
				if cD != cE || atLeastD != atLeastE {
					t.Fatalf("(%d,%d): dinic (%d,%v) vs ek (%d,%v)", u, v, cD, atLeastD, cE, atLeastE)
				}
				fresh := NewNetwork(g, bound)
				cutF, cF, atLeastF := fresh.MinVertexCut(u, v)
				if cD != cF || atLeastD != atLeastF {
					t.Fatalf("(%d,%d): pooled (%d,%v) vs fresh (%d,%v)", u, v, cD, atLeastD, cF, atLeastF)
				}
				if !slices.Equal(cutD, cutE) || !slices.Equal(cutD, cutF) {
					t.Fatalf("(%d,%d): cuts differ: pooled dinic %v, ek %v, fresh dinic %v", u, v, cutD, cutE, cutF)
				}
				if atLeastD {
					continue
				}
				for _, cut := range [][]int{cutD, cutE} {
					if len(cut) != cD {
						t.Fatalf("(%d,%d): cut %v size != κ %d", u, v, cut, cD)
					}
					avoid := map[int]bool{}
					for _, w := range cut {
						if w == u || w == v {
							t.Fatalf("(%d,%d): cut %v contains an endpoint", u, v, cut)
						}
						avoid[w] = true
					}
					if sameComp(g, u, v, avoid) {
						t.Fatalf("(%d,%d): cut %v does not separate", u, v, cut)
					}
				}
				if !g.HasEdge(u, v) {
					if want := verify.LocalConnectivityBrute(g, u, v); want != cD {
						t.Fatalf("(%d,%d): κ = %d, brute %d", u, v, cD, want)
					}
				}
			}
		}
	})
}
