package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"

	"kvcc/graph"
	"kvcc/internal/dataset"
	"kvcc/internal/kcore"
)

// newRand returns the benchmark's seeded generator for one purpose.
// Streams with different purposes are independent for the same seed.
func newRand(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^purpose))
}

// Generator purposes, one stream each.
const (
	purposeRelabel uint64 = iota + 1
	purposeSchedule
	purposeEdits
	purposeFlowPairs
	purposeCapacity
)

// relabeled is one dataset stand-in written as an edge-list file under a
// seeded label permutation and edge order. The program only ever sees
// the file; unmap takes a label in the file back to the stand-in's own
// label, so digests compare across seeds.
type relabeled struct {
	name  string
	path  string
	inv   map[int64]int64
	graph *graph.Graph // the stand-in as generated, in its own labels
}

func (r *relabeled) unmap(l int64) int64 { return r.inv[l] }

// writeRelabeled generates the named stand-in at scale, permutes its
// labels and edge order with the seed, and writes it to dir.
func writeRelabeled(dir, name string, scale float64, seed uint64) (*relabeled, error) {
	g, err := dataset.Load(name, scale)
	if err != nil {
		return nil, err
	}
	rng := newRand(seed, purposeRelabel)
	labels := g.Labels()
	perm := rng.Perm(len(labels))
	newLabel := make([]int64, len(labels))
	inv := make(map[int64]int64, len(labels))
	for v, p := range perm {
		newLabel[v] = labels[p]
		inv[labels[p]] = labels[v]
	}
	edges := g.Edges(nil)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	path := fmt.Sprintf("%s/%s-s%g.txt", dir, name, scale)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	for _, e := range edges {
		u, v := newLabel[e[0]], newLabel[e[1]]
		if rng.IntN(2) == 0 {
			u, v = v, u
		}
		fmt.Fprintf(w, "%d %d\n", u, v)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return &relabeled{name: name, path: path, inv: inv, graph: g}, nil
}

// zipf draws integers in [0, n) with probability proportional to
// 1/(i+1)^s: a few hot values and a long tail.
type zipf struct {
	cum []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	total := 0.0
	for i := range n {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range z.cum {
		if u < c {
			return i
		}
	}
	return len(z.cum) - 1
}

// editBatch is one seeded batch of edge inserts and deletes, by label.
type editBatch struct {
	inserts, deletes [][2]int64
}

// editSchedule generates n edit batches against g. Every endpoint has
// core number at least minCore, so each batch lands inside the region
// the k ∈ [minCore, 8] reads enumerate, and each insert closes a triangle
// (its endpoints share a neighbour), so edits stay inside one community
// instead of merging k-core components across the graph. Deletes remove
// edges present at that point of the sequence and inserts add absent
// ones, so every edit in the schedule takes effect. The schedule is a
// pure function of the graph and the seed.
func editSchedule(g *graph.Graph, n, perBatch, minCore int, seed uint64) []editBatch {
	rng := newRand(seed, purposeEdits)
	cores := kcore.CoreNumbers(g)
	var dense []int
	for v, c := range cores {
		if c >= minCore {
			dense = append(dense, v)
		}
	}
	type pair = [2]int64
	key := func(a, b int64) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	present := make(map[pair]bool, g.NumEdges())
	var denseEdges []pair
	for _, e := range g.Edges(nil) {
		k := key(g.Label(e[0]), g.Label(e[1]))
		present[k] = true
		if cores[e[0]] >= minCore && cores[e[1]] >= minCore {
			denseEdges = append(denseEdges, k)
		}
	}
	// denseNeighbor picks a random neighbour of v in g with core number
	// at least minCore, or -1.
	denseNeighbor := func(v int) int {
		nb := g.Neighbors(v)
		for range 8 {
			if w := nb[rng.IntN(len(nb))]; cores[w] >= minCore {
				return w
			}
		}
		return -1
	}
	batches := make([]editBatch, n)
	for i := range batches {
		b := &batches[i]
		// The server applies a batch's inserts before its deletes, so an
		// edge deleted in this batch must not be re-inserted by it.
		deleted := make(map[pair]bool, perBatch)
		for len(b.deletes) < perBatch {
			e := denseEdges[rng.IntN(len(denseEdges))]
			if !present[e] {
				continue
			}
			present[e] = false
			deleted[e] = true
			b.deletes = append(b.deletes, e)
		}
		for len(b.inserts) < perBatch {
			u := dense[rng.IntN(len(dense))]
			x := denseNeighbor(u)
			if x < 0 {
				continue
			}
			v := denseNeighbor(x)
			if v < 0 || v == u {
				continue
			}
			e := key(g.Label(u), g.Label(v))
			if present[e] || deleted[e] {
				continue
			}
			present[e] = true
			b.inserts = append(b.inserts, e)
		}
	}
	return batches
}
