package difftest

import (
	"context"
	"testing"

	"kvcc/cohesion"
	"kvcc/graph"
	"kvcc/hierarchy"
	"kvcc/internal/core"
)

// CheckNesting makes the nesting property k-core ⊇ k-ECC ⊇ k-VCC
// (Whitney: κ <= λ <= δ) executable on one (g, k): it enumerates all
// three measures through cohesion.EnumerateContext and asserts that every
// k-VCC lies wholly inside one k-ECC and every k-ECC wholly inside one
// connected component of the k-core. Each result is also checked to be in
// the canonical core.SortComponents order, since the shared serving path
// (cache byte-equality, index levels) depends on it for every measure.
func CheckNesting(t testing.TB, g *graph.Graph, k, parallelism int) {
	t.Helper()
	opts := cohesion.Options{Parallelism: parallelism}
	enumerate := func(m cohesion.Measure) []*graph.Graph {
		comps, _, err := cohesion.EnumerateContext(context.Background(), g, k, m, opts)
		if err != nil {
			t.Fatalf("%s k=%d: %v", m, k, err)
		}
		checkCanonicalOrder(t, m, k, comps)
		return comps
	}
	kvccs := enumerate(cohesion.KVCC)
	keccs := enumerate(cohesion.KECC)
	kcores := enumerate(cohesion.KCore)

	checkContained(t, k, "k-VCC", kvccs, "k-ECC", keccs)
	checkContained(t, k, "k-ECC", keccs, "k-core component", kcores)
}

// checkCanonicalOrder asserts comps are already in core.SortComponents
// order — the contract every measure engine promises.
func checkCanonicalOrder(t testing.TB, m cohesion.Measure, k int, comps []*graph.Graph) {
	t.Helper()
	sorted := append([]*graph.Graph(nil), comps...)
	core.SortComponents(sorted)
	got, want := Signatures(comps), Signatures(sorted)
	if !equal(got, want) {
		t.Fatalf("%s k=%d: result not in canonical order:\n  got  %v\n  want %v", m, k, got, want)
	}
}

// checkContained asserts every inner component's vertex set lies inside a
// single outer component. The outer measures (k-ECC, k-core) partition
// their vertices, so a label-to-component map decides containment.
func checkContained(t testing.TB, k int, innerName string, inner []*graph.Graph, outerName string, outer []*graph.Graph) {
	t.Helper()
	owner := make(map[int64]int)
	for i, c := range outer {
		for _, l := range c.Labels() {
			owner[l] = i
		}
	}
	for i, c := range inner {
		labels := core.SortedLabels(c)
		home, ok := owner[labels[0]]
		if !ok {
			t.Fatalf("k=%d: vertex %d of %s %d is in no %s", k, labels[0], innerName, i, outerName)
		}
		for _, l := range labels[1:] {
			o, ok := owner[l]
			if !ok {
				t.Fatalf("k=%d: vertex %d of %s %d is in no %s", k, l, innerName, i, outerName)
			}
			if o != home {
				t.Fatalf("k=%d: %s %d straddles %ss %d and %d (vertices %d and %d)",
					k, innerName, i, outerName, home, o, labels[0], l)
			}
		}
	}
}

// measureVariants is the option battery for the measures that have no
// algorithm variants of their own. cohesion.Options documents that only
// KVCC consults parallelism and flow engine — so under k-ECC and
// k-core every one of these must produce the identical component
// sequence, pinning that contract.
var measureVariants = []struct {
	name string
	opts cohesion.Options
}{
	{"serial", cohesion.Options{}},
	{"parallel", cohesion.Options{Parallelism: 4}},
	{"ek-engine", cohesion.Options{FlowEngine: core.FlowEdmondsKarp}},
}

// CheckMeasureVariantsAgree enumerates (g, k) under measure m with every
// option battery entry and fails on any divergence. It returns the agreed
// signatures for reuse.
func CheckMeasureVariantsAgree(t testing.TB, g *graph.Graph, k int, m cohesion.Measure) []string {
	t.Helper()
	var want []string
	for i, v := range measureVariants {
		comps, _, err := cohesion.Enumerate(g, k, m, v.opts)
		if err != nil {
			t.Fatalf("%s %s k=%d: %v", m, v.name, k, err)
		}
		got := Signatures(comps)
		if i == 0 {
			want = got
			continue
		}
		if !equal(want, got) {
			t.Fatalf("%s k=%d: %s disagrees with %s:\n  %v\nvs\n  %v",
				m, k, v.name, measureVariants[0].name, got, want)
		}
	}
	return want
}

// CheckMeasureHierarchy builds the incremental hierarchy for measure m —
// serial and with sibling parallelism — and compares every level, plus
// one level past MaxK for completeness, against a direct enumeration of
// the whole graph, including the canonical order.
func CheckMeasureHierarchy(t testing.TB, g *graph.Graph, m cohesion.Measure) {
	t.Helper()
	for _, workers := range []int{0, 4} {
		tree, err := hierarchy.Build(g, hierarchy.Options{Measure: m, Parallelism: workers})
		if err != nil {
			t.Fatalf("%s hierarchy build (parallelism %d): %v", m, workers, err)
		}
		if tree.Measure != m {
			t.Fatalf("hierarchy built for %s reports measure %s", m, tree.Measure)
		}
		for k := 1; k <= tree.MaxK+1; k++ {
			direct, _, err := cohesion.Enumerate(g, k, m, cohesion.Options{})
			if err != nil {
				t.Fatalf("%s enumerate k=%d: %v", m, k, err)
			}
			level := Signatures(tree.LevelComponents(k))
			want := Signatures(direct)
			if !equal(level, want) {
				t.Fatalf("%s hierarchy level %d (parallelism %d) diverges from direct enumeration:\n  tree   %v\n  direct %v",
					m, k, workers, level, want)
			}
		}
	}
}
