package server

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"

	"kvcc/cohesion"
	"kvcc/graph"
	"kvcc/store"
)

// Persistence glue: with Config.DataDir set, every registered graph owns a
// store.Store (snapshot + WAL + persisted index) in a subdirectory named by
// the URL-escaped graph name. The serving path stays in charge — stores are
// written through, never read during normal operation — and recovery at
// Open rebuilds the registry from disk so a restarted daemon serves the
// exact graphs (and versions) it acknowledged before going down.
//
// Durability contract: an edit batch is fsync'd to the WAL before the new
// generation is installed, so any response a client saw is recoverable;
// AddGraph checkpoints the initial snapshot before returning. Persistence
// errors after that never fail serving — they are recorded in PersistStats
// (and reflected in EditsResponse.Persisted) for the operator.

// Open is New plus recovery: with cfg.DataDir set it opens every graph
// store under the directory, registers the recovered graphs (snapshot plus
// replayed WAL tail) at their pre-crash versions, and loads any persisted
// hierarchy index that still matches. Crash damage — a torn WAL tail, a
// leftover temp file — is repaired silently; damage a crash cannot explain
// (checksum mismatches in a snapshot, WAL records that do not chain) fails
// Open, because serving a silently wrong graph is worse than not starting.
//
// With an empty DataDir, Open is exactly New.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if !s.persistEnabled() {
		return s, nil
	}
	s.persist.Enabled = true
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	dirents, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return nil, err
	}
	for _, de := range dirents {
		if !de.IsDir() {
			continue
		}
		name, err := url.PathUnescape(de.Name())
		if err != nil {
			s.notePersistError("recover "+de.Name(), err)
			continue
		}
		if err := s.recoverGraph(name, filepath.Join(s.cfg.DataDir, de.Name())); err != nil {
			s.Close()
			return nil, fmt.Errorf("server: recover %q: %w", name, err)
		}
	}
	return s, nil
}

// recoverGraph runs the front half of the lifecycle for one store
// directory: open the store, install the recovered graph with its replay
// protection and every persisted index that still matches, then start the
// configured builds the disk could not supply.
func (s *Server) recoverGraph(name, dir string) error {
	st, err := store.Open(dir, s.storeOptions())
	if err != nil {
		return err
	}
	g, version, ok := st.Graph()
	if !ok {
		// A store that crashed before its first checkpoint has no graph to
		// serve; keep the directory so a re-registration reuses it.
		if err := st.Close(); err != nil {
			s.notePersistError("close empty store for "+name, err)
		}
		return nil
	}
	gs := newGraphState(name, st)
	replayed, torn := st.Replayed()
	s.tick(func() {
		s.persist.RecoveredGraphs++
		s.persist.ReplayedBatches += replayed
		if torn {
			s.persist.TornTails++
		}
	})

	// Re-arm replay protection: every idempotency key the store knows was
	// applied (from the WAL and the retention file) seeds the graph's
	// replay table with a minimal response — version and Replayed only,
	// since the original edit counts died with the old process. A retry of
	// a pre-crash batch then replays instead of re-applying on top of state
	// that already includes it.
	for key, ver := range st.IdempotencyKeys() {
		gs.idem.store(key, &EditsResponse{Graph: name, Version: ver})
	}

	// An index file is used only if it exists, matches the recovered
	// version exactly (LoadIndex checks) and was built with the depth cap
	// the server would use now.
	loaded := make(map[cohesion.Measure]*graphIndex)
	for _, m := range cohesion.Measures() {
		tree, buildMS, ok, err := st.LoadIndex(m)
		if err != nil {
			s.notePersistError("index load for "+name, err)
			continue
		}
		if !ok || tree.BuiltMaxK != s.cfg.IndexMaxK {
			continue
		}
		ix := &graphIndex{maxK: s.cfg.IndexMaxK, ready: make(chan struct{}), cancel: func() {}, tree: tree, buildMS: buildMS}
		close(ix.ready)
		loaded[m] = ix
		s.tick(func() { s.persist.IndexLoads++ })
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	entry := s.installLocked(gs, g, version)
	for m, ix := range loaded {
		ix.gen = entry.gen
		gs.indexes[m] = ix
	}
	s.startBuildsLocked(gs)
	return nil
}

func (s *Server) persistEnabled() bool { return s.cfg.DataDir != "" }

// storeOptions is the store configuration every graph store opens with.
func (s *Server) storeOptions() store.Options {
	return store.Options{PagingPolicy: s.cfg.PagingPolicy}
}

// graphDir maps a graph name onto its store directory. Escaping makes any
// name filesystem-safe and the mapping invertible for recovery.
func (s *Server) graphDir(name string) string {
	return filepath.Join(s.cfg.DataDir, url.PathEscape(name))
}

// persistNewGraph checkpoints a freshly registered graph as its store's
// initial snapshot and discards any persisted index of the graph it
// replaced. Runs under editMu (from AddGraph), after the replaced state's
// saves have drained, so neither an edit batch nor a stale save can
// interleave with it.
func (s *Server) persistNewGraph(gs *graphState, g *graph.Graph) {
	if gs.st == nil {
		return
	}
	if err := gs.st.DropIndex(); err != nil {
		s.notePersistError("drop index for "+gs.name, err)
	}
	if err := gs.st.Checkpoint(g, 1); err != nil {
		s.notePersistError("checkpoint "+gs.name, err)
		return
	}
	s.tick(func() { s.persist.Checkpoints++ })
}

// persistEdits durably logs one edit batch, reporting whether the batch is
// on disk. Called before the new generation is installed: a batch the
// client will see acknowledged must already be recoverable.
//
// A failed WAL append does not immediately give up on durability: the
// post-batch snapshot g is checkpointed instead, which both recovers this
// batch's durability and re-syncs the store's version chain so the next
// append is acceptable again (store.Append refuses out-of-chain batches).
// Only when the checkpoint also fails is the batch reported unpersisted.
func (s *Server) persistEdits(gs *graphState, b store.Batch, g *graph.Graph) bool {
	if gs.st == nil {
		return false
	}
	if err := gs.st.Append(b); err != nil {
		s.notePersistError("wal append for "+gs.name, err)
		if cerr := gs.st.Checkpoint(g, b.NewVersion); cerr != nil {
			s.notePersistError("recovery checkpoint for "+gs.name, cerr)
			return false
		}
		s.tick(func() { s.persist.Checkpoints++ })
		return true
	}
	s.tick(func() { s.persist.WALAppends++ })
	return true
}

// spillCompact implements the zero-heap checkpoint path of Edits: when
// this batch will hit the checkpoint threshold anyway, the overlay is
// folded straight into a new snapshot file (store.CompactToStore) and
// the re-mapped graph comes back as the next serving snapshot — the
// compacted CSR never exists on the heap, and the WAL record for the
// batch is superseded by the snapshot itself. Returns (nil, false) when
// the threshold is not reached or the spill failed; the caller then
// compacts on the heap and logs the batch as usual.
func (s *Server) spillCompact(gs *graphState, delta *graph.Delta, key string) (*graph.Graph, bool) {
	if gs.st == nil || s.cfg.CheckpointEvery < 0 || gs.st.Pending()+1 < s.cfg.CheckpointEvery {
		return nil, false
	}
	g, err := gs.st.CompactToStore(delta, key)
	if err != nil {
		s.notePersistError("spill compact for "+gs.name, err)
		return nil, false
	}
	s.tick(func() {
		s.persist.Checkpoints++
		s.persist.SpillCompactions++
	})
	return g, true
}

// maybeCheckpoint folds the WAL into a fresh snapshot once enough batches
// accumulated. g is the already-compacted current snapshot, so the only
// extra cost is the sequential write.
func (s *Server) maybeCheckpoint(gs *graphState, g *graph.Graph, version uint64) {
	if gs.st == nil || s.cfg.CheckpointEvery < 0 || gs.st.Pending() < s.cfg.CheckpointEvery {
		return
	}
	if err := gs.st.Checkpoint(g, version); err != nil {
		s.notePersistError("checkpoint "+gs.name, err)
		return
	}
	s.tick(func() { s.persist.Checkpoints++ })
}

// errNoStore marks an index save dropped because the graph has no store
// (its open failed, which was recorded when it happened).
var errNoStore = errors.New("no store")

// persistIndex saves a finished index build unless it was superseded —
// by an edit (a newer generation is installed) or by a replacement (a new
// state holds the name and has inherited the store) — which is normal and
// skipped. A state retiring through Close or RemoveGraph still saves: its
// store outlives every save, because persistIndex runs inside the build's
// slot of gs.builds and the store is released only after they drain. The
// saved file is stamped with the overlay version, so a save racing a
// concurrent edit is harmless: recovery only loads an index whose stamp
// equals the recovered version.
func (s *Server) persistIndex(gs *graphState, ix *graphIndex) {
	if !s.persistEnabled() || ix.err != nil {
		return
	}
	s.mu.Lock()
	cur := s.graphs[gs.name]
	current := (cur == gs || cur == nil) && gs.entry.gen == ix.gen
	version := gs.entry.version
	s.mu.Unlock()
	if !current {
		return
	}
	if gs.st == nil {
		s.notePersistError("index save for "+gs.name, errNoStore)
		return
	}
	if err := gs.st.SaveIndex(ix.tree, version, ix.buildMS); err != nil {
		s.notePersistError("index save for "+gs.name, err)
		return
	}
	s.tick(func() { s.persist.IndexSaves++ })
}

// notePersistError records a non-fatal persistence failure for Stats.
func (s *Server) notePersistError(op string, err error) {
	s.tick(func() {
		s.persist.Errors++
		s.persist.LastError = op + ": " + err.Error()
	})
}

// persistStats snapshots the persistence counters (nil when disabled).
func (s *Server) persistStats() *PersistStats {
	if !s.persistEnabled() {
		return nil
	}
	s.statsMu.Lock()
	ps := s.persist
	s.statsMu.Unlock()
	ps.Graphs = len(s.stores())
	return &ps
}

// stores lists the open store of every registered graph.
func (s *Server) stores() []*store.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*store.Store
	for _, gs := range s.graphs {
		if gs.st != nil {
			out = append(out, gs.st)
		}
	}
	return out
}

// pagingStats rolls the per-store paging figures up into one server-wide
// view (nil when persistence is disabled): counters and sizes sum,
// SnapshotOpenMS takes the slowest last open.
func (s *Server) pagingStats() *PagingStats {
	if !s.persistEnabled() {
		return nil
	}
	agg := &PagingStats{Policy: s.cfg.PagingPolicy.String()}
	for _, st := range s.stores() {
		ps := st.PagingStats()
		agg.SequentialHints += ps.SequentialHints
		agg.WillNeedHints += ps.WillNeedHints
		agg.Releases += ps.Releases
		agg.Evictions += ps.Evictions
		agg.MappedBytes += ps.MappedBytes
		agg.ResidentPages += ps.ResidentPages
		agg.TotalPages += ps.TotalPages
		agg.RetiredMappings += ps.RetiredMappings
		if ps.SnapshotOpenMS > agg.SnapshotOpenMS {
			agg.SnapshotOpenMS = ps.SnapshotOpenMS
		}
	}
	return agg
}
