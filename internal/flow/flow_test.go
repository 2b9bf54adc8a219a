package flow

import (
	"math/rand"
	"testing"

	"kvcc/graph"
	"kvcc/internal/verify"
)

func complete(n int) *graph.Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return graph.FromEdges(n, edges)
}

func cycle(n int) *graph.Graph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return graph.FromEdges(n, edges)
}

// petersen returns the Petersen graph: 3-regular, vertex connectivity 3.
func petersen() *graph.Graph {
	var edges [][2]int
	for i := 0; i < 5; i++ {
		edges = append(edges,
			[2]int{i, (i + 1) % 5},     // outer cycle
			[2]int{i + 5, (i+2)%5 + 5}, // inner pentagram
			[2]int{i, i + 5},           // spokes
		)
	}
	return graph.FromEdges(10, edges)
}

// wheel returns a wheel W_n: a hub connected to an n-cycle. κ = 3.
func wheel(n int) *graph.Graph {
	var edges [][2]int
	for i := 1; i <= n; i++ {
		edges = append(edges, [2]int{0, i})
		next := i + 1
		if next > n {
			next = 1
		}
		edges = append(edges, [2]int{i, next})
	}
	return graph.FromEdges(n+1, edges)
}

func randomConnectedGraph(n int, p float64, rng *rand.Rand) *graph.Graph {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{rng.Intn(i), i}) // random spanning tree
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

func TestMinVertexCutAdjacentAndSelf(t *testing.T) {
	g := cycle(4)
	nw := NewNetwork(g, 2)
	if _, _, atLeast := nw.MinVertexCut(0, 1); !atLeast {
		t.Fatal("adjacent pair must report atLeastBound")
	}
	if _, _, atLeast := nw.MinVertexCut(2, 2); !atLeast {
		t.Fatal("identical pair must report atLeastBound")
	}
}

func TestMinVertexCutCycle(t *testing.T) {
	g := cycle(6)
	nw := NewNetwork(g, 5)
	cut, c, atLeast := nw.MinVertexCut(0, 3)
	if atLeast || c != 2 || len(cut) != 2 {
		t.Fatalf("cycle cut = %v (κ=%d, atLeast=%v), want size 2", cut, c, atLeast)
	}
	// Verify the cut really separates.
	avoid := map[int]bool{}
	for _, v := range cut {
		avoid[v] = true
	}
	if g.ConnectedAvoiding(avoid) {
		t.Fatalf("returned cut %v does not disconnect the cycle", cut)
	}
}

func TestMinVertexCutEarlyTermination(t *testing.T) {
	// K4 minus the edge (0,1): κ(0,1) = 2.
	g := graph.FromEdges(4, [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	nw := NewNetwork(g, 2)
	_, _, atLeast := nw.MinVertexCut(0, 1)
	if !atLeast {
		t.Fatal("κ(0,1)=2 should report atLeastBound at bound=2")
	}
	nw3 := NewNetwork(g, 3)
	cut, c, atLeast := nw3.MinVertexCut(0, 1)
	if atLeast || c != 2 {
		t.Fatalf("κ(0,1) = %d (atLeast=%v), want 2", c, atLeast)
	}
	if len(cut) != 2 || !((cut[0] == 2 && cut[1] == 3) || (cut[0] == 3 && cut[1] == 2)) {
		t.Fatalf("cut = %v, want {2,3}", cut)
	}
}

func TestNetworkReuse(t *testing.T) {
	g := cycle(8)
	nw := NewNetwork(g, 8)
	for trial := 0; trial < 3; trial++ {
		_, c, atLeast := nw.MinVertexCut(0, 4)
		if atLeast || c != 2 {
			t.Fatalf("trial %d: κ = %d atLeast=%v, want 2", trial, c, atLeast)
		}
	}
	if nw.FlowRuns != 3 {
		t.Fatalf("FlowRuns = %d, want 3", nw.FlowRuns)
	}
}

func TestLocalConnectivityKnownGraphs(t *testing.T) {
	p := petersen()
	if c := LocalConnectivity(p, 0, 7, 10); c != 3 {
		t.Fatalf("petersen κ(0,7) = %d, want 3", c)
	}
	w := wheel(6)
	if c := LocalConnectivity(w, 1, 4, 10); c != 3 {
		t.Fatalf("wheel κ(1,4) = %d, want 3", c)
	}
}

func TestLocalConnectivityAgainstBrute(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(6)
		g := randomConnectedGraph(n, 0.35, rng)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if g.HasEdge(u, v) {
					continue
				}
				want := verify.LocalConnectivityBrute(g, u, v)
				got := LocalConnectivity(g, u, v, n)
				if got != want {
					t.Fatalf("seed %d: κ(%d,%d) = %d, want %d\ngraph: %v",
						seed, u, v, got, want, g.Edges(nil))
				}
			}
		}
	}
}

func TestCutSizesMatchFlowValue(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(6)
		g := randomConnectedGraph(n, 0.3, rng)
		nw := NewNetwork(g, n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				cut, c, atLeast := nw.MinVertexCut(u, v)
				if atLeast {
					continue
				}
				if len(cut) != c {
					t.Fatalf("seed %d: cut %v has size %d but flow value %d", seed, cut, len(cut), c)
				}
				avoid := map[int]bool{}
				for _, w := range cut {
					avoid[w] = true
					if w == u || w == v {
						t.Fatalf("cut %v contains an endpoint (%d,%d)", cut, u, v)
					}
				}
				if sameComp(g, u, v, avoid) {
					t.Fatalf("seed %d: cut %v fails to separate %d and %d", seed, cut, u, v)
				}
			}
		}
	}
}

func sameComp(g *graph.Graph, u, v int, avoid map[int]bool) bool {
	seen := make([]bool, g.NumVertices())
	seen[u] = true
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == v {
			return true
		}
		for _, w := range g.Neighbors(x) {
			if !seen[w] && !avoid[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

func TestGlobalVertexConnectivityKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"K5", complete(5), 4},
		{"C6", cycle(6), 2},
		{"petersen", petersen(), 3},
		{"wheel8", wheel(8), 3},
		{"path", graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}), 1},
		{"single", graph.FromEdges(1, nil), 0},
		{"two-isolated", graph.FromEdges(2, nil), 0},
	}
	for _, tc := range cases {
		got, cut := GlobalVertexConnectivity(tc.g, tc.g.NumVertices())
		if got != tc.want {
			t.Errorf("%s: κ = %d, want %d", tc.name, got, tc.want)
		}
		if got < tc.g.NumVertices()-1 && tc.g.IsConnected() && got > 0 {
			if len(cut) != got {
				t.Errorf("%s: witness cut %v has wrong size", tc.name, cut)
			}
		}
	}
}

func TestGlobalVertexConnectivityAgainstBrute(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		g := randomConnectedGraph(n, 0.4, rng)
		want := verify.VertexConnectivityBrute(g)
		got, _ := GlobalVertexConnectivity(g, n)
		if got != want {
			t.Fatalf("seed %d: κ = %d, want %d (edges %v)", seed, got, want, g.Edges(nil))
		}
	}
}

func TestGlobalVertexConnectivityBounded(t *testing.T) {
	g := complete(10)
	got, cut := GlobalVertexConnectivity(g, 4)
	if got != 4 || cut != nil {
		t.Fatalf("bounded κ(K10) = %d cut=%v, want 4 nil", got, cut)
	}
}

func TestNewNetworkPanicsOnBadBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNetwork(cycle(3), 0)
}
