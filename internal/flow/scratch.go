package flow

import "kvcc/graph"

// Scratch owns a pooled Network and the construction buffer used to
// rebuild it. The enumeration recursion builds one flow network per
// component at every level; routing those builds through one Scratch per
// worker makes every steady-state rebuild allocation-free — the arc
// arrays, node scratch, and undo log are resliced in place and only grow
// when a component exceeds every previous one.
//
// The zero value is ready to use. A Scratch (and the Network it hands
// out) is not safe for concurrent use; give each worker its own. The
// Network returned by NewNetworkScratch is valid until the next
// NewNetworkScratch call with the same Scratch.
type Scratch struct {
	nw   Network
	fill []int32 // next free arcList slot per node during construction
}

// growInt32 / growUint64 reslice s to length n, reallocating only when
// the capacity is insufficient. Newly allocated memory is zero; memory
// re-exposed by growing within capacity may hold stale values, which is
// safe for every caller here: stamped arrays only ever hold generations
// already issued (so a strictly increasing generation counter can never
// collide with them), and all other arrays are fully rewritten before
// use.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// NewNetworkScratch builds the directed flow graph of g with
// early-termination bound `bound` (normally k), reusing s's buffers. The
// layout comes straight from the graph's CSR degrees: arc counts per
// split node are known up front, so the five arc arrays and the node
// scratch are rebuilt in place with zero allocations once the scratch has
// warmed up to the largest component seen. bound must be >= 1.
func NewNetworkScratch(g *graph.Graph, bound int, s *Scratch) *Network {
	if bound < 1 {
		panic("flow: bound must be >= 1")
	}
	if s == nil {
		s = &Scratch{}
	}
	n := g.NumVertices()
	numNodes := 2 * n
	numArcs := 2 * (n + 2*g.NumEdges())

	nw := &s.nw
	nw.g = g
	nw.bound = bound
	nw.engine = Dinic
	nw.FlowRuns = 0

	nw.arcHead = growInt32(nw.arcHead, numArcs)
	nw.arcCap = growInt32(nw.arcCap, numArcs)
	nw.arcInit = growInt32(nw.arcInit, numArcs)
	nw.arcRev = growInt32(nw.arcRev, numArcs)
	nw.arcStamp = growInt32(nw.arcStamp, numArcs)
	nw.arcStart = growInt32(nw.arcStart, numNodes+1)
	nw.level = growUint64(nw.level, numNodes)
	nw.iter = growUint64(nw.iter, numNodes)
	// parent is grown lazily by the Edmonds-Karp engine.
	nw.queue = nw.queue[:0]
	// The capacities below are rebuilt from scratch, so there is nothing
	// to undo; the per-query undo() opens a fresh touch epoch.
	nw.undoLog = nw.undoLog[:0]

	// Arc counts per node follow directly from the CSR degrees: every
	// split node carries its vertex arc (or its reverse) plus one arc per
	// incident edge, so the tail-grouped layout is computable up front
	// and the arc arrays fill in place with one cursor per node. The fill
	// order is a contract that pushCommon and bfsLevels rely on: slot 0
	// of every node is its vertex arc or that arc's reverse, and the
	// adjacency slots follow the sorted neighbour order.
	nw.arcStart[0] = 0
	for v := 0; v < n; v++ {
		d := int32(g.Degree(v))
		nw.arcStart[inNode(v)+1] = 1 + d  // vertex arc + reverses of adjacency arcs
		nw.arcStart[outNode(v)+1] = 1 + d // reverse of vertex arc + adjacency arcs
	}
	for node := 0; node < numNodes; node++ {
		nw.arcStart[node+1] += nw.arcStart[node]
	}
	s.fill = growInt32(s.fill, numNodes)
	fill := s.fill
	copy(fill, nw.arcStart[:numNodes])

	addArc := func(from, to, capacity int32) {
		a, b := fill[from], fill[to]
		fill[from] = a + 1
		fill[to] = b + 1
		nw.arcHead[a] = to
		nw.arcCap[a] = capacity
		nw.arcRev[a] = b
		nw.arcHead[b] = from
		nw.arcCap[b] = 0
		nw.arcRev[b] = a
	}
	for v := 0; v < n; v++ {
		addArc(inNode(v), outNode(v), 1)
	}
	adjCap := int32(bound)
	offsets, edges := g.Adjacency()
	for u := 0; u < n; u++ {
		from := outNode(u)
		// Each undirected edge is visited twice; add the out(u)→in(v)
		// arc on each visit, covering both directions exactly once.
		for _, v := range edges[offsets[u]:offsets[u+1]] {
			addArc(from, inNode(v), adjCap)
		}
	}
	copy(nw.arcInit, nw.arcCap)
	return nw
}
