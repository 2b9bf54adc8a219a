package flow

// Alternative augmenting engine: Edmonds-Karp (one shortest augmenting
// path per BFS) instead of Dinic's blocking flows. Both are exact; Dinic
// amortizes one BFS over many augmentations, which is why it is the
// default (see BenchmarkEngines and the ablation note in docs/DESIGN.md).

// Engine selects the max-flow augmentation strategy of a Network.
type Engine int

const (
	// Dinic computes blocking flows per BFS level graph (default; the
	// Even-Tarjan bound for unit-capacity split graphs).
	Dinic Engine = iota
	// EdmondsKarp augments one shortest path per BFS. Simpler, with the
	// same answers; kept as a cross-validation engine and ablation
	// baseline.
	EdmondsKarp
)

// SetEngine selects the augmentation strategy for subsequent queries.
func (nw *Network) SetEngine(e Engine) { nw.engine = e }

// maxFlowEK pushes one unit along a BFS-shortest augmenting path until
// either `limit` units flow or no path remains. Returns the flow value.
// The per-round visited set is the stamp half of the packed parent-arc
// array — bumping the generation replaces the O(n) parentArc wipe the
// engine used to pay before every BFS.
func (nw *Network) maxFlowEK(src, dst int32, limit int) int {
	nw.parent = growUint64(nw.parent, len(nw.level))
	value := 0
	for value < limit {
		gen := nextGen(&nw.parentGen, nw.parent)
		// Mark src visited; its parent arc is never read.
		nw.parent[src] = pack(gen, ^uint32(0))
		nw.queue = append(nw.queue[:0], src)
		found := false
	search:
		for head := 0; head < len(nw.queue); head++ {
			node := nw.queue[head]
			for a := nw.arcStart[node]; a < nw.arcStart[node+1]; a++ {
				to := nw.arcHead[a]
				if nw.arcCap[a] > 0 && !stamped(nw.parent[to], gen) {
					nw.parent[to] = pack(gen, uint32(a))
					if to == dst {
						found = true
						break search
					}
					nw.queue = append(nw.queue, to)
				}
			}
		}
		if !found {
			break
		}
		// Trace back and push one unit (every path crosses a unit vertex
		// arc, so the bottleneck is 1).
		for node := dst; node != src; {
			a := int32(uint32(nw.parent[node]))
			rev := nw.arcRev[a]
			nw.touch(a)
			nw.touch(rev)
			nw.arcCap[a]--
			nw.arcCap[rev]++
			node = nw.arcHead[rev]
		}
		value++
	}
	return value
}
