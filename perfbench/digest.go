package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"

	"kvcc"
	"kvcc/graph"
	"kvcc/internal/core"
	"kvcc/server"
)

// digest is the canonical fingerprint of a component family: each
// component's label set sorted, the sets sorted lexicographically, then
// hashed. It is independent of component order, vertex order and, given
// the inverse of a relabelling as unmap, of the labels themselves — so
// VCCE and VCCE*, HTTP and in-process, and runs under different seeds can
// all be compared by one string.
func digest(sets [][]int64, unmap func(int64) int64) string {
	canon := make([][]int64, len(sets))
	for i, s := range sets {
		c := make([]int64, len(s))
		for j, l := range s {
			if unmap != nil {
				l = unmap(l)
			}
			c[j] = l
		}
		slices.Sort(c)
		canon[i] = c
	}
	slices.SortFunc(canon, slices.Compare[[]int64])
	h := sha256.New()
	var buf [8]byte
	for _, c := range canon {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(c)))
		h.Write(buf[:])
		for _, l := range c {
			binary.LittleEndian.PutUint64(buf[:], uint64(l))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// graphSets returns the label sets of in-process components.
func graphSets(comps []*graph.Graph) [][]int64 {
	sets := make([][]int64, len(comps))
	for i, c := range comps {
		sets[i] = c.Labels()
	}
	return sets
}

// wireSets returns the label sets of components decoded from the wire.
func wireSets(comps []server.Component) [][]int64 {
	sets := make([][]int64, len(comps))
	for i, c := range comps {
		sets[i] = c.Vertices
	}
	return sets
}

// reference enumerates the k-VCCs of g with the core engine directly,
// bypassing the per-component store and result assembly that every
// served and timed answer goes through, so a fault there cannot hide by
// corrupting the reference too.
func reference(g *graph.Graph, k int, algo core.Algorithm) (*kvcc.Result, error) {
	comps, _, err := core.Enumerate(g, k, core.Options{Algorithm: algo})
	if err != nil {
		return nil, err
	}
	return &kvcc.Result{K: k, Components: comps}, nil
}
