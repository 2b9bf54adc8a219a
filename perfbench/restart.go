package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"kvcc"
	"kvcc/graph"
	"kvcc/internal/core"
	"kvcc/internal/residency"
	"kvcc/server"
	"kvcc/store"
)

// restartCold is a durable server restarted from a data dir whose file
// pages were dropped from the page cache: each op opens the server —
// mapping the snapshots and replaying a WAL tail — queries each graph
// once and closes it again. It is the only workload that reads the
// store back and faults a cold mapping.
type restartCold struct {
	inputs  []*relabeled
	graphs  []*graph.Graph // ingested from the seeded files; set-up only
	tails   [][]editBatch  // the WAL tail replayed on every open, per graph
	dataDir string
	srv     *server.Server
	before  []string // k-core digest per graph before the first restart

	// Traced-phase observations: page residency after each eviction and
	// the major page faults each op took.
	resident, faults samples
}

var restartDatasets = []string{"Google", "Cit"}

const (
	restartScale = 1.0
	restartK     = 20
	// restartMeasure is what each op queries: the k-core components at
	// restartK. Reaching them peels and copies out the whole cold graph —
	// the store and paging work this workload exists for — without the
	// flow computation that fig10-cold already measures: in an op that
	// enumerated k-VCCs, flows took 95% of the time and opening the
	// server 3-5%. After timing, verify still checks the restarted
	// server's k-VCCs.
	restartMeasure = "kcore"
	// restartTail is the number of edit batches left in the first
	// graph's WAL: fewer than the checkpoint interval, so they replay on
	// open. Replay compacts that graph onto the heap while the server
	// opens; the second graph has no tail, so it is served straight from
	// its cold mapping and its queries take the page faults.
	restartTail = 8
)

func restartName(i int) string { return fmt.Sprintf("g%d", i) }

func (w *restartCold) config() server.Config {
	return server.Config{DataDir: w.dataDir, CheckpointEvery: checkpointEvery}
}

func (w *restartCold) prepare(e *env) error {
	for _, name := range restartDatasets {
		r, err := writeRelabeled(e.dir, name, restartScale, e.seed)
		if err != nil {
			return err
		}
		w.inputs = append(w.inputs, r)
	}
	graphs, _, err := ingest(nil, w.inputs)
	if err != nil {
		return err
	}
	w.graphs = graphs
	w.tails = make([][]editBatch, len(graphs))
	w.tails[0] = editSchedule(graphs[0], restartTail, editsPerBatch, restartK, e.seed)
	return nil
}

// setup builds the initial data dir: register both graphs (writing
// their snapshots) and apply the WAL tail.
func (w *restartCold) setup(e *env, rep int) error {
	if w.srv != nil {
		w.srv.Close()
		os.RemoveAll(w.dataDir)
	}
	w.dataDir = filepath.Join(e.dir, fmt.Sprintf("restart-data-%d", rep))
	srv, err := server.Open(w.config())
	if err != nil {
		return err
	}
	w.srv = srv
	ctx := context.Background()
	for i, g := range w.graphs {
		srv.AddGraph(restartName(i), g)
		for _, b := range w.tails[i] {
			if _, err := srv.Edits(ctx, server.EditsRequest{Graph: restartName(i), Inserts: b.inserts, Deletes: b.deletes}); err != nil {
				return err
			}
		}
	}
	return nil
}

// enumerateAll queries every graph at restartK under measure,
// in-process, and returns the digests of the answers.
func (w *restartCold) enumerateAll(ctx context.Context, tr *tracer, op int, measure string) ([]string, error) {
	var digests []string
	for i := range w.inputs {
		var resp *server.EnumerateResponse
		var err error
		tr.call("server.enumerate", op, 0, func() {
			resp, err = w.srv.Enumerate(ctx, server.EnumerateRequest{Graph: restartName(i), K: restartK, Measure: measure})
		})
		if err != nil {
			return nil, err
		}
		digests = append(digests, digest(wireSets(resp.Components), w.inputs[i].unmap))
	}
	return digests, nil
}

func (w *restartCold) run(e *env, d time.Duration) (loopResult, error) {
	ctx := context.Background()
	tr := e.tr
	// Each op opens the closed server, queries it and closes it again;
	// between ops, with no mapping alive, the data dir's pages are
	// dropped from the page cache.
	return closedLoop(d, 1, medianSamples, func(i int) error {
		if err := evictDir(w.dataDir); err != nil {
			return err
		}
		if tr == nil {
			return nil
		}
		r, err := residentRatio(w.dataDir)
		w.resident = append(w.resident, r)
		return err
	}, func(i int) outcome {
		major0, _, _ := residency.Faults()
		var err error
		tr.call("server.open", i, 0, func() { w.srv, err = server.Open(w.config()) })
		if err != nil {
			return outcome{err: err}
		}
		digests, err := w.enumerateAll(ctx, tr, i, restartMeasure)
		var closeErr error
		tr.call("server.close", i, 0, func() { closeErr = w.srv.Close() })
		w.srv = nil
		if tr != nil {
			major1, _, _ := residency.Faults()
			w.faults = append(w.faults, float64(major1-major0))
		}
		if err == nil {
			err = closeErr
		}
		return outcome{err: err, check: func() bool {
			return slices.Equal(digests, w.before)
		}}
	})
}

// verify compares the served answers with cold enumerations of the same
// graphs — the stand-ins with their WAL tails applied: the k-core
// answers every op gave (each op already had to answer exactly as
// before the first restart), and the k-VCCs of one more restart,
// validated.
func (w *restartCold) verify(e *env) error {
	ctx := context.Background()
	srv, err := server.Open(w.config())
	if err != nil {
		return err
	}
	w.srv = srv
	served, err := w.enumerateAll(ctx, nil, 0, "kvcc")
	if err != nil {
		return err
	}
	graphs, _, err := ingest(nil, w.inputs)
	if err != nil {
		return err
	}
	for i, g := range graphs {
		d := graph.NewDelta(g)
		for _, b := range w.tails[i] {
			for _, e := range b.inserts {
				d.InsertEdge(e[0], e[1])
			}
			for _, e := range b.deletes {
				d.DeleteEdge(e[0], e[1])
			}
		}
		final := d.Compact()
		unmap := w.inputs[i].unmap
		cores, err := kvcc.EnumerateMeasure(final, restartK, kvcc.MeasureKCore)
		if err != nil {
			return err
		}
		if digest(graphSets(cores.Components), unmap) != w.before[i] {
			return fmt.Errorf("%s k=%d: served k-core components differ from cold enumeration", restartDatasets[i], restartK)
		}
		vccs, err := reference(final, restartK, core.VCCEStar)
		if err != nil {
			return err
		}
		if err := kvcc.Validate(final, vccs); err != nil {
			return fmt.Errorf("%s k=%d: %w", restartDatasets[i], restartK, err)
		}
		if digest(graphSets(vccs.Components), unmap) != served[i] {
			return fmt.Errorf("%s k=%d: k-VCCs served after restart differ from cold enumeration", restartDatasets[i], restartK)
		}
		fmt.Printf("digest %s k=%d k-core %s, k-VCC %s (%d components)\n", restartDatasets[i], restartK, w.before[i], served[i], len(vccs.Components))
	}
	return nil
}

// layers times store.Open on a copy of the data dir after eviction, and
// replays the enumeration pipeline on the recovered, memory-mapped
// graphs while their pages are cold.
func (w *restartCold) layers(e *env, m metrics) error {
	tr := e.tr
	if len(w.resident) > 0 {
		m.setN("store.resident_ratio", w.resident.median(), "ratio", len(w.resident), "mapped pages resident right after eviction")
		m.setN("store.major_faults", w.faults.median(), "count", len(w.faults), "per op: process major faults over open, queries and close")
	}
	cp := filepath.Join(e.dir, "restart-copy")
	defer os.RemoveAll(cp)
	if err := copyDir(w.dataDir, cp); err != nil {
		return err
	}
	if err := evictDir(cp); err != nil {
		return err
	}
	var openMS samples
	var graphs []*graph.Graph
	for i := range w.inputs {
		var st *store.Store
		var err error
		dir := filepath.Join(cp, restartName(i))
		openMS = append(openMS, tr.call("store.open", i, 0, func() { st, err = store.Open(dir, store.Options{}) }))
		if err != nil {
			return err
		}
		defer st.Close()
		g, _, ok := st.Graph()
		if !ok {
			return fmt.Errorf("store %s has no graph", dir)
		}
		graphs = append(graphs, g)
	}
	var openTotal float64
	for _, ms := range openMS {
		openTotal += ms
	}
	m.setN("store.open_ms", openTotal, "ms", len(openMS), "both stores: cold snapshot map, plus WAL replay for the first")
	var ops []fig10Op
	for i := range graphs {
		ops = append(ops, fig10Op{graph: i, k: restartK})
	}
	replayPipeline(tr, graphs, ops, e.seed).report(m)
	return nil
}

// trim records the answers before the first restart, closes the
// server set-up left open, and drops the benchmark's own copies of the
// graphs: the timed ops read them back from the data dir, and verify
// ingests them again.
func (w *restartCold) trim() error {
	digests, err := w.enumerateAll(context.Background(), nil, 0, restartMeasure)
	if err != nil {
		return err
	}
	w.before = digests
	err = w.srv.Close()
	w.srv = nil
	w.graphs = nil
	for _, in := range w.inputs {
		in.graph = nil
	}
	return err
}

func (w *restartCold) close() {
	if w.srv != nil {
		w.srv.Close()
	}
}

// evictDir drops every file under dir from the page cache with
// posix_fadvise(POSIX_FADV_DONTNEED). Pages must be clean to drop, so
// each file is synced first.
func evictDir(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := f.Sync(); err != nil {
			return err
		}
		const fadvDontNeed = 4
		if _, _, errno := syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, fadvDontNeed, 0, 0); errno != 0 {
			return fmt.Errorf("fadvise %s: %w", path, errno)
		}
		return nil
	})
}

// residentRatio is the share of the data dir's snapshot pages in the
// page cache, probed by mapping each snapshot and asking mincore; the
// probe reads no page itself.
func residentRatio(dir string) (float64, error) {
	var resident, total int
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "snapshot.kvcc" {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			return err
		}
		data, err := syscall.Mmap(int(f.Fd()), 0, int(info.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			return err
		}
		defer syscall.Munmap(data)
		r, t, err := residency.Resident(data)
		resident += r
		total += t
		return err
	})
	return ratio(float64(resident), float64(total)), err
}

// copyDir copies the regular files of a data dir tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
