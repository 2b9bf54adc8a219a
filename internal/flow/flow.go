// Package flow implements local vertex-connectivity testing by maximum flow
// on the directed flow graph of an undirected graph (Section 4.1 of the
// paper).
//
// Every vertex v of the input graph is split into an arc in(v) → out(v) of
// capacity one; every undirected edge (u,v) becomes the arcs
// out(u) → in(v) and out(v) → in(u). The maximum flow from out(u) to in(v)
// then equals the local vertex connectivity κ(u,v) for non-adjacent u,v
// (Menger's theorem).
//
// Deviation from the paper's description, documented in docs/DESIGN.md: the
// paper assigns capacity one to all arcs; we assign capacity `bound` to the
// adjacency arcs instead. Flow values below `bound` are unchanged (an
// adjacency arc can never carry more than one unit anyway, because its tail
// out(u) receives at most one unit through in(u) → out(u)), but every cut
// of value < bound now consists purely of vertex arcs, which makes
// extracting the vertex cut from the residual graph unambiguous.
//
// Augmentation stops as soon as the flow value reaches `bound`
// (the algorithm only ever asks "is κ(u,v) ≥ k?"), which keeps each test in
// O(min(n^1/2, k) · m) in the spirit of Even–Tarjan.
//
// # Dinic on the split graph
//
// The default engine is Dinic, shaped for the query GLOBAL-CUT asks most
// often — a dense pair with κ(u,v) ≥ bound (docs/DESIGN.md, "Cheap
// flows: sink-rooted levels and the common-neighbour pre-push"):
//
//   - Before any search, one unit is pushed through every common
//     neighbour w of u and v along out(u)→in(w)→out(w)→in(v), up to the
//     limit. The arcs are found by position in the CSR layout, so a pair
//     with at least limit common neighbours (Theorem 8 of the paper)
//     settles with no BFS at all.
//   - The level graph is rooted at the sink: the BFS runs backwards from
//     in(v) and stops once out(u) is labelled, so the DFS only enters
//     nodes that lay on a shortest path to the sink when the phase began.
//   - The BFS never reads a twin arc: an arc and its twin hold their
//     pair's capacity between them, so the twin's residual is read off
//     the arc itself, and an out(x) with no flow through x is skipped
//     after its first arc.
//
// When the flow stays below the limit it is a maximum flow, and every
// maximum flow leaves the same residual-reachable source side, so the
// extracted cut is the same whichever engine or path order produced the
// flow.
//
// # Zero-reset queries
//
// A bounded query pushes at most `bound` units of flow and touches only
// the arcs on its ≤ bound augmenting paths, so the per-query cost must be
// proportional to that work — not to the size of the network. Two
// mechanisms enforce this (docs/DESIGN.md, "The zero-reset flow engine"):
//
//   - residual capacities are restored by replaying a touched-arc undo
//     log (each arc is recorded once per query, deduplicated by an epoch
//     stamp) instead of copying the whole capacity array;
//   - the per-node level, current-arc, and parent-arc scratch is
//     generation-stamped: each entry packs a 32-bit generation next to
//     its 32-bit value in one uint64, so bumping a counter invalidates
//     the whole array in O(1) and reading an entry costs a single memory
//     access.
package flow

import (
	"sort"

	"kvcc/graph"
)

// Network is a reusable max-flow network over the split graph of one
// undirected graph. A single Network serves many source/sink pairs; a
// query's cost is proportional to the flow work it performs, not to the
// network size, because all mutable state is epoch-stamped or undo-logged
// (see the package comment). Obtain a heap-free pooled Network with
// NewNetworkScratch. A Network is not safe for concurrent use.
type Network struct {
	g     *graph.Graph
	bound int

	// CSR arc storage, grouped by tail node: the arcs out of node are
	// arcHead[arcStart[node]:arcStart[node+1]] (and the parallel slices
	// of arcCap/arcInit/arcRev). Grouping by tail makes every adjacency
	// scan a sequential walk over the arc arrays — no per-arc index
	// indirection — at the cost of an explicit reverse-arc table, which
	// only augmentations (not scans) consult: a scan that needs a twin's
	// residual reads it off the arc itself (see bfsLevels).
	arcHead  []int32 // head node of each arc
	arcCap   []int32 // residual capacity (mutated by queries)
	arcInit  []int32 // initial capacity (undo target)
	arcRev   []int32 // the paired reverse arc
	arcStart []int32

	// Touched-arc undo log: every arc whose residual capacity changes is
	// recorded once per query (first touch wins, deduplicated by
	// arcStamp), and the next query restores exactly those arcs from
	// arcInit instead of copying the whole capacity array.
	undoLog  []int32
	arcStamp []int32
	arcGen   int32

	// Per-node scratch. Each entry packs (generation << 32) | value; an
	// entry is valid iff its generation half equals the current counter,
	// so none of these arrays is ever cleared.
	level  []uint64 // BFS level of the Dinic level graph
	iter   []uint64 // current-arc cursor, an absolute arc id (an unstamped read means arcStart[node])
	parent []uint64 // Edmonds-Karp predecessor arc (stamped = visited)

	levelGen  uint32
	iterGen   uint32
	parentGen uint32

	queue    []int32
	dfsStack []dfsFrame

	engine Engine

	// FlowRuns counts the number of max-flow computations executed
	// (LOC-CUT invocations that were not short-circuited).
	FlowRuns int64
}

type dfsFrame struct {
	node int32
	arc  int32 // arc taken from this node (valid once advanced)
}

func inNode(v int) int32  { return int32(2 * v) }
func outNode(v int) int32 { return int32(2*v + 1) }

// pack builds a stamped scratch entry; stamped tests an entry's stamp.
func pack(gen, val uint32) uint64       { return uint64(gen)<<32 | uint64(val) }
func stamped(e uint64, gen uint32) bool { return uint32(e>>32) == gen }

// deadLevel is the packed level value of a node removed from the level
// graph by a dead-ended DFS. The DFS looks for level[node]-1 and never
// computes a target at dst (level 0), so deadLevel never matches a live
// target.
const deadLevel = ^uint32(0)

// NewNetwork builds the directed flow graph of g with early-termination
// bound `bound` (normally k). bound must be >= 1. For a pooled network
// with zero steady-state build allocations use NewNetworkScratch.
func NewNetwork(g *graph.Graph, bound int) *Network {
	return NewNetworkScratch(g, bound, &Scratch{})
}

// Bound returns the early-termination bound the network was built with.
func (nw *Network) Bound() int { return nw.bound }

// nextGen advances a packed-scratch generation counter, invalidating every
// entry of the array it guards in O(1). On the (astronomically rare)
// wraparound the full array — including capacity hidden by earlier
// reslicing — is zeroed so stale stamps can never collide with a recycled
// generation.
func nextGen(gen *uint32, packed []uint64) uint32 {
	*gen++
	if *gen == 0 {
		clear(packed[:cap(packed)])
		*gen = 1
	}
	return *gen
}

// undo rolls the residual capacities of the arcs touched by the previous
// query back to their initial values and opens a new touch epoch. Cost:
// O(arcs actually modified since the last undo).
func (nw *Network) undo() {
	for _, a := range nw.undoLog {
		nw.arcCap[a] = nw.arcInit[a]
	}
	nw.undoLog = nw.undoLog[:0]
	if nw.arcGen == int32(^uint32(0)>>1) { // MaxInt32: recycle stamps
		clear(nw.arcStamp[:cap(nw.arcStamp)])
		nw.arcGen = 0
	}
	nw.arcGen++
}

// touch records arc a in the undo log the first time its residual
// capacity changes within the current query.
func (nw *Network) touch(a int32) {
	if nw.arcStamp[a] != nw.arcGen {
		nw.arcStamp[a] = nw.arcGen
		nw.undoLog = append(nw.undoLog, a)
	}
}

// MinVertexCut returns a minimum u-v vertex cut if κ(u,v) < bound.
// If u == v, (u,v) is an edge, or κ(u,v) >= bound, it returns
// (nil, bound, true): the pair cannot be separated by fewer than `bound`
// vertices. Otherwise it returns the cut (vertex ids of g, ascending), its
// size, and false.
func (nw *Network) MinVertexCut(u, v int) (cut []int, connectivity int, atLeastBound bool) {
	return nw.MinVertexCutLimit(u, v, nw.bound)
}

// MinVertexCutLimit is MinVertexCut with a per-query early-termination
// limit that may be tighter than the network's bound: augmentation stops
// as soon as `limit` units flow, so a caller that already holds a cut of
// size c can probe further pairs with limit = c and pay nothing for flow
// beyond a known-worse answer. limit must be in [1, Bound()]; the upper
// restriction keeps every cut below the limit vertex-only (the adjacency
// arcs carry capacity Bound()).
func (nw *Network) MinVertexCutLimit(u, v, limit int) (cut []int, connectivity int, atLeastLimit bool) {
	if limit < 1 || limit > nw.bound {
		panic("flow: limit must be in [1, bound]")
	}
	if u == v || nw.g.HasEdge(u, v) {
		return nil, limit, true
	}
	nw.FlowRuns++
	nw.undo()
	src, dst := outNode(u), inNode(v)
	var value int
	switch nw.engine {
	case EdmondsKarp:
		value = nw.maxFlowEK(src, dst, limit)
	default:
		value = nw.maxFlowDinic(u, v, limit)
	}
	if value >= limit {
		return nil, limit, true
	}
	cut = nw.extractCut(src, value)
	return cut, value, false
}

// maxFlowDinic pre-pushes one unit through each common neighbour of u
// and v, then augments by blocking flows over sink-rooted level graphs
// until `limit` units flow or no augmenting path remains.
func (nw *Network) maxFlowDinic(u, v, limit int) int {
	src, dst := outNode(u), inNode(v)
	value := nw.pushCommon(u, v, limit)
	for value < limit && nw.bfsLevels(src, dst) {
		value += nw.blockingFlow(src, dst, limit-value)
	}
	return value
}

// pushCommon pushes one unit along out(u)→in(w)→out(w)→in(v) for each
// common neighbour w of u and v, up to limit, and returns the units
// pushed. Distinct w give vertex-disjoint paths, so no search is needed:
// it is a merge of the sorted N(u) and N(v) plus three arc lookups per
// path, because NewNetworkScratch lays the arcs out in CSR order —
// slot 1+i of out(u) heads to in(N(u)[i]), slot 1+j of in(v) is the
// reverse of out(N(v)[j])→in(v), and slot 0 of in(w) is the vertex arc.
// With at least limit common neighbours (Theorem 8: u ≡k v) the query
// settles without a single BFS.
func (nw *Network) pushCommon(u, v, limit int) int {
	offsets, edges := nw.g.Adjacency()
	nu, nv := edges[offsets[u]:offsets[u+1]], edges[offsets[v]:offsets[v+1]]
	outU, inV := nw.arcStart[outNode(u)]+1, nw.arcStart[inNode(v)]+1
	pushed := 0
	for i, j := 0, 0; i < len(nu) && j < len(nv) && pushed < limit; {
		switch w := nu[i]; {
		case w < nv[j]:
			i++
		case w > nv[j]:
			j++
		default:
			nw.push(outU + int32(i))
			nw.push(nw.arcStart[inNode(w)])
			nw.push(nw.arcRev[inV+int32(j)])
			pushed++
			i++
			j++
		}
	}
	return pushed
}

// push sends one unit of flow across arc a, logging a and its reverse for
// the next undo.
func (nw *Network) push(a int32) {
	rev := nw.arcRev[a]
	nw.touch(a)
	nw.touch(rev)
	nw.arcCap[a]--
	nw.arcCap[rev]++
}

// bfsLevels builds the Dinic level graph rooted at the sink: it searches
// the residual graph backwards from dst, labels each node with its
// distance to dst, and stops as soon as src is labelled. Every node
// below src's level then lies on a shortest path to dst, so the DFS
// never scans a node that cannot reach the sink; a forward search that
// stops at the sink leaves the whole level before it in the level graph
// instead. Reports whether src can reach dst.
//
// Arc a out of node y stands for its twin arcRev[a] into y. The scan
// never reads the twin: an arc and its twin always hold their pair's
// capacity between them (1 for the vertex arc in slot 0, the bound for
// every adjacency pair), so the twin has residual exactly when arcCap[a]
// is below that capacity, and the scan stays a sequential walk. An
// out(x) whose slot 0 is empty carries no flow, so by conservation none
// of its adjacency arcs does either: in(x) is its only residual
// predecessor and the rest of its arcs are skipped. (The one node
// conservation does not cover, src, is never expanded.)
func (nw *Network) bfsLevels(src, dst int32) bool {
	// Hoist the hot arrays into locals: the queue append below would
	// otherwise force a reload of every nw field each iteration.
	arcStart, arcCap, arcHead, level := nw.arcStart, nw.arcCap, nw.arcHead, nw.level
	adjCap := int32(nw.bound)
	gen := nextGen(&nw.levelGen, level)
	level[dst] = pack(gen, 0)
	queue := append(nw.queue[:0], dst)
	defer func() { nw.queue = queue }()
	for head := 0; head < len(queue); head++ {
		node := queue[head]
		next := uint32(level[node]) + 1
		a, end := arcStart[node], arcStart[node+1]
		if node&1 == 1 && arcCap[a] == 0 {
			end = a + 1
		}
		for pairCap := int32(1); a < end; a, pairCap = a+1, adjCap {
			// The twin's residual (pairCap - arcCap[a]) first: it comes
			// from the sequential walk, the head's level entry does not.
			if arcCap[a] >= pairCap {
				continue
			}
			to := arcHead[a]
			if !stamped(level[to], gen) {
				level[to] = pack(gen, next)
				if to == src {
					return true
				}
				queue = append(queue, to)
			}
		}
	}
	return false
}

// blockingFlow augments along the level graph until no augmenting path
// remains or `limit` units have been sent.
func (nw *Network) blockingFlow(src, dst int32, limit int) int {
	nw.iterGen = nextGen(&nw.iterGen, nw.iter)
	total := 0
	for total < limit && nw.dfsAugment(src, dst) {
		total++
	}
	return total
}

// curArc returns the current-arc cursor of node (an absolute arc id),
// materializing the lazy reset to the node's first arc on its first read
// in this blocking phase. Callers must write the advanced cursor back to
// nw.iter[node] themselves.
func (nw *Network) curArc(node int32) uint32 {
	e := nw.iter[node]
	if !stamped(e, nw.iterGen) {
		return uint32(nw.arcStart[node])
	}
	return uint32(e)
}

// dfsAugment pushes one unit along an augmenting path of the level graph
// and reports whether it found one (every path carries exactly one unit
// because it crosses a unit vertex arc). It follows residual arcs one
// level closer to dst; since every labelled node lay on a shortest path
// to dst when the phase began, it dead-ends only on arcs saturated within
// the phase. Iterative DFS with the standard current-arc optimization;
// the cursor lives in a register during the advance scan and is stored
// back once per frame visit.
func (nw *Network) dfsAugment(src, dst int32) bool {
	arcCap, arcHead, level, iter := nw.arcCap, nw.arcHead, nw.level, nw.iter
	levelGen, iterGen := nw.levelGen, nw.iterGen
	stack := append(nw.dfsStack[:0], dfsFrame{node: src})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		node := f.node
		if node == dst {
			for _, fr := range stack[:len(stack)-1] {
				nw.push(fr.arc)
			}
			nw.dfsStack = stack
			return true
		}
		it := nw.curArc(node)
		end := uint32(nw.arcStart[node+1])
		target := pack(levelGen, uint32(level[node])-1)
		for ; it < end; it++ {
			if arcCap[it] > 0 && level[arcHead[it]] == target {
				break
			}
		}
		iter[node] = pack(iterGen, it)
		if it < end {
			f.arc = int32(it)
			stack = append(stack, dfsFrame{node: arcHead[it]})
			continue
		}
		// Dead end: remove node from the level graph and backtrack.
		level[node] = pack(levelGen, deadLevel)
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			iter[stack[len(stack)-1].node]++
		}
	}
	nw.dfsStack = stack
	return false
}

// extractCut computes the source side of the min cut in the residual graph
// and maps saturated crossing vertex arcs back to vertices of g. size is
// the max-flow value, which by max-flow/min-cut is exactly the number of
// crossing vertex arcs, so the returned slice is allocated at its final
// capacity. The scan is over residual-reachable nodes only; the whole
// extraction never looks at the unreachable side of the network.
func (nw *Network) extractCut(src int32, size int) []int {
	gen := nextGen(&nw.levelGen, nw.level)
	nw.level[src] = pack(gen, 0)
	nw.queue = append(nw.queue[:0], src)
	for head := 0; head < len(nw.queue); head++ {
		node := nw.queue[head]
		for a := nw.arcStart[node]; a < nw.arcStart[node+1]; a++ {
			to := nw.arcHead[a]
			if nw.arcCap[a] > 0 && !stamped(nw.level[to], gen) {
				nw.level[to] = pack(gen, 0)
				nw.queue = append(nw.queue, to)
			}
		}
	}
	if size == 0 {
		return nil
	}
	cut := make([]int, 0, size)
	for _, node := range nw.queue {
		// node is residual-reachable. A reachable in(v) = 2v whose out(v)
		// is unreachable is a saturated vertex arc crossing the cut.
		if node&1 == 0 && !stamped(nw.level[node+1], gen) {
			cut = append(cut, int(node)/2)
		}
	}
	sort.Ints(cut)
	return cut
}
