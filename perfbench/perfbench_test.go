package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"kvcc/graph"
	"kvcc/internal/dataset"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	if v, ok := s.percentile(50); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v, %v; want 50, true", v, ok)
	}
	// Nearest rank 90 leaves exactly ten samples (91..100) beyond it.
	if v, ok := s.percentile(90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	// p99 has one sample beyond: not reportable.
	if v, ok := s.percentile(99); v != 99 || ok {
		t.Errorf("p99 of 1..100 = %v, %v; want 99, false", v, ok)
	}
	if _, ok := s[:99].percentile(90); ok {
		t.Error("p90 of 99 samples has 9 beyond and must not be reportable")
	}
	if got := s.beyond(90); got != 10 {
		t.Errorf("beyond(90) = %d, want 10", got)
	}
	if _, ok := samples(nil).percentile(50); ok {
		t.Error("empty set has no percentile")
	}
}

func TestPercentileIgnoresOrder(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	if v, _ := s.percentile(50); v != 3 {
		t.Errorf("p50 = %v, want 3", v)
	}
	if !slices.Equal(s, samples{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

func TestClassPercentileIsPerClass(t *testing.T) {
	// Two op classes a factor of 100 apart, 20 samples each. Pooled, the
	// nearest-rank median would be the slowest sample of the cheap class;
	// per class it is the geometric mean of the two medians.
	var cheap, dear samples
	for i := 1; i <= 20; i++ {
		cheap = append(cheap, float64(i))
		dear = append(dear, 100*float64(i))
	}
	v, n, beyond, ok := classes{cheap, dear}.percentile(50)
	if want := math.Sqrt(10 * 1000); math.Abs(v-want) > 1e-9 || n != 40 || beyond != 10 || !ok {
		t.Errorf("p50 = %v, n %d, beyond %d, %v; want %v, 40, 10, true", v, n, beyond, ok, want)
	}
	// The rule holds per class: 20 samples leave 2 beyond p90.
	if _, _, beyond, ok := (classes{cheap, dear}).percentile(90); beyond != 2 || ok {
		t.Errorf("p90 beyond %d, %v; want 2, false", beyond, ok)
	}
}

func TestLatenciesLeaveOutFailedOps(t *testing.T) {
	recs := []record{
		{outcome: outcome{class: 1}, latencyMS: 5},
		{outcome: outcome{class: 0}, latencyMS: 7},
		{outcome: outcome{class: 0, err: errScheduleExhausted}, latencyMS: 0.1},
		{outcome: outcome{edit: true}, latencyMS: 9},
	}
	got := latencies(recs, false)
	if len(got) != 2 || !slices.Equal(got[0], samples{7}) || !slices.Equal(got[1], samples{5}) {
		t.Errorf("query latencies = %v, want [[7] [5]]", got)
	}
	if s := summarize(loopResult{records: recs}); s.failed() != 1 {
		t.Errorf("failed = %d, want 1", s.failed())
	}
}

func TestDigestCanonical(t *testing.T) {
	a := [][]int64{{3, 1, 2}, {7, 5}}
	b := [][]int64{{5, 7}, {2, 3, 1}}
	if digest(a, nil) != digest(b, nil) {
		t.Error("digest depends on component or vertex order")
	}
	if digest(a, nil) == digest([][]int64{{1, 2, 3}, {5, 8}}, nil) {
		t.Error("digest ignores a changed label")
	}
	// Splitting one set into two must change the digest even though the
	// labels are the same.
	if digest([][]int64{{1, 2}, {3}}, nil) == digest([][]int64{{1}, {2, 3}}, nil) {
		t.Error("digest ignores set boundaries")
	}
	// A relabelling undone by unmap gives the original digest.
	relabel := map[int64]int64{1: 10, 2: 20, 3: 30, 5: 50, 7: 70}
	inv := map[int64]int64{}
	var moved [][]int64
	for _, set := range a {
		var m []int64
		for _, l := range set {
			m = append(m, relabel[l])
			inv[relabel[l]] = l
		}
		moved = append(moved, m)
	}
	if digest(moved, func(l int64) int64 { return inv[l] }) != digest(a, nil) {
		t.Error("digest under unmap differs from the original")
	}
}

func TestRelabeledFileIsAPermutation(t *testing.T) {
	dir := t.TempDir()
	r1, err := writeRelabeled(dir, "Youtube", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := ingest(nil, []*relabeled{r1})
	if err != nil {
		t.Fatal(err)
	}
	orig := r1.graph
	if g[0].NumVertices() != orig.NumVertices() || g[0].NumEdges() != orig.NumEdges() {
		t.Fatalf("relabelled graph has n=%d m=%d, stand-in n=%d m=%d",
			g[0].NumVertices(), g[0].NumEdges(), orig.NumVertices(), orig.NumEdges())
	}
	idx := orig.LabelIndex()
	for _, e := range g[0].Edges(nil) {
		u, v := r1.unmap(g[0].Label(e[0])), r1.unmap(g[0].Label(e[1]))
		if !orig.HasEdge(idx[u], idx[v]) {
			t.Fatalf("edge %d-%d maps to a non-edge %d-%d", g[0].Label(e[0]), g[0].Label(e[1]), u, v)
		}
	}
	r2, err := writeRelabeled(t.TempDir(), "Youtube", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	for l, o := range r1.inv {
		if r2.inv[l] != o {
			t.Fatal("the same seed gave a different relabelling")
		}
	}
}

func TestReadScheduleDeterministic(t *testing.T) {
	gs := []*graph.Graph{dataset.MustLoad("DBLP", 0.05), dataset.MustLoad("Youtube", 0.05)}
	a := readSchedule(len(gs), 500, 7, purposeSchedule, gs)
	b := readSchedule(len(gs), 500, 7, purposeSchedule, gs)
	c := readSchedule(len(gs), 500, 8, purposeSchedule, gs)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave different schedules")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	kinds := map[readKind]int{}
	for _, r := range a {
		kinds[r.kind]++
		if r.key.measure == "kvcc" && !slices.Contains(kvccKs, r.key.k) {
			t.Fatalf("k-VCC query at unlisted k=%d", r.key.k)
		}
	}
	if kinds[readEnumerate] == 0 || kinds[readContaining] == 0 || kinds[readOverlap] == 0 {
		t.Errorf("schedule lacks a query kind: %v", kinds)
	}
}

func TestEditScheduleEveryEditTakesEffect(t *testing.T) {
	g := dataset.MustLoad("DBLP", 0.1)
	batches := editSchedule(g, 40, 2, 4, 3)
	d := graph.NewDelta(g)
	for i, b := range batches {
		for _, e := range b.inserts {
			if !d.InsertEdge(e[0], e[1]) {
				t.Fatalf("batch %d: insert %v had no effect", i, e)
			}
		}
		for _, e := range b.deletes {
			if !d.DeleteEdge(e[0], e[1]) {
				t.Fatalf("batch %d: delete %v had no effect", i, e)
			}
		}
	}
	if again := editSchedule(g, 40, 2, 4, 3); !slices.EqualFunc(batches, again, func(x, y editBatch) bool {
		return slices.Equal(x.inserts, y.inserts) && slices.Equal(x.deletes, y.deletes)
	}) {
		t.Error("the same seed gave a different edit schedule")
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// One worker and ops that take three intervals each: the backlog
	// grows, and each op's latency must include its wait behind the
	// earlier ones.
	interval := 2 * time.Millisecond
	res := openLoop(5, interval, 1, func(worker, i int) outcome {
		time.Sleep(3 * interval)
		return outcome{}
	})
	last := res.records[len(res.records)-1]
	// Op 4 was due at 4 intervals and could start only after four ops of
	// 3 intervals each: at least 12 - 4 = 8 intervals late.
	if min := float64(8*interval) / float64(time.Millisecond); last.lagMS < min {
		t.Errorf("last op lag %.2f ms, want at least %.2f", last.lagMS, min)
	}
	if last.latencyMS < last.lagMS {
		t.Errorf("latency %.2f ms is below lag %.2f ms", last.latencyMS, last.lagMS)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "server.enumerate", Start: 0, End: 10000},
		{ID: 2, Parent: 1, Name: "core.enumerate", Start: 1000, End: 5000},
		{ID: 3, Parent: 1, Name: "flow.cut", Start: 4000, End: 7000},
	}}
	self := tr.selfTimeMS()
	// The children cover 1..7 ms of the parent's 10 ms.
	if got := self["server"]; got != 4 {
		t.Errorf("server self time %.2f ms, want 4", got)
	}
	if got := self["core"]; got != 4 {
		t.Errorf("core self time %.2f ms, want 4", got)
	}
}
