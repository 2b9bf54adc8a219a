package server

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"time"

	"kvcc"
	"kvcc/cohesion"
	"kvcc/graph"
	"kvcc/store"
)

// The registry holds one graphState per registered graph name. A state is
// one registration's whole life — AddGraph (or recovery at Open) creates
// it, RemoveGraph, Close or a replacing AddGraph ends it — and it owns
// everything the server keeps for that graph: the installed snapshot, the
// durable store, the hierarchy-index builds, the profile, the idempotency
// table and the incremental seeds. The lifecycle runs in one fixed order:
//
//  1. open the store (a replacement inherits its predecessor's);
//  2. install: register the state with its snapshot under a fresh
//     generation (an edit batch re-installs the same state);
//  3. start index builds for the installed generation;
//  4. stop builds: take the state out of the registry and cancel them;
//  5. wait for builds and the index saves that follow them;
//  6. close or destroy the store.
//
// Builds start only on registered states and every build goroutine holds
// a slot of the state's WaitGroup until its save returns, so a build never
// starts before its store exists and a save never lands after step 6.

// graphEntry is one installed snapshot of a graph: the graph itself, the
// generation of the AddGraph or Edits call that installed it (part of
// every cache and flight key, which keeps an enumeration on a replaced
// snapshot from serving or caching under the new one), the overlay's
// version stamp (1 until first edit) and the wall-clock time of the
// installing call; the last two surface through GraphInfo so clients can
// detect staleness.
type graphEntry struct {
	g        *graph.Graph
	gen      uint64
	version  uint64
	modified time.Time
}

// graphState is one registration of one graph name (see the lifecycle
// above).
type graphState struct {
	name string
	// st is the durable store, fixed before the state is installed and
	// released only after every build has finished; nil when persistence
	// is off or the store could not be opened.
	st *store.Store

	// Guarded by Server.mu. indexes only ever holds builds of entry's
	// generation: installing a new snapshot cancels and drops the rest.
	entry   graphEntry
	indexes map[cohesion.Measure]*graphIndex
	profile *graphProfile
	seeds   map[prevKey]*list.Element // values are *seedRecord on Server.seedOrder

	// Guarded by Server.editMu: the mutation overlay (created by the first
	// Edits, so read-only graphs carry no edit bookkeeping), the core
	// numbers of entry.g (the input to the next batch's affected-level
	// diff, filled on first edit) and the idempotency replay table.
	delta *graph.Delta
	cores []int
	idem  idemTable

	// builds holds one slot per index-build goroutine, released only after
	// the build's save (step 5 waits on it).
	builds sync.WaitGroup
}

func newGraphState(name string, st *store.Store) *graphState {
	return &graphState{
		name:    name,
		st:      st,
		indexes: make(map[cohesion.Measure]*graphIndex),
		seeds:   make(map[prevKey]*list.Element),
	}
}

// openStore is lifecycle step 1 for a new registration: nil when
// persistence is off or the open failed (the error is recorded, and the
// graph serves from memory alone).
func (s *Server) openStore(name string) *store.Store {
	if !s.persistEnabled() {
		return nil
	}
	st, err := store.Open(s.graphDir(name), s.storeOptions())
	if err != nil {
		s.notePersistError("open store for "+name, err)
		return nil
	}
	return st
}

// installLocked is lifecycle step 2: g becomes gs's serving snapshot under
// a fresh generation and gs the registered state of its name. Builds of
// the previous snapshot are cancelled; their saves see the stale
// generation and skip. Callers hold s.mu (and editMu, outside Open).
func (s *Server) installLocked(gs *graphState, g *graph.Graph, version uint64) graphEntry {
	s.nextGen++
	gs.entry = graphEntry{g: g, gen: s.nextGen, version: version, modified: time.Now()}
	s.graphs[gs.name] = gs
	for m, ix := range gs.indexes {
		ix.cancel()
		delete(gs.indexes, m)
	}
	return gs.entry
}

// startBuildsLocked is lifecycle step 3: with Config.BuildIndex set, one
// background build per configured measure the installed generation does
// not have yet. Callers hold s.mu.
func (s *Server) startBuildsLocked(gs *graphState) {
	if !s.cfg.BuildIndex {
		return
	}
	for _, m := range s.indexMeasures {
		if gs.indexes[m] == nil {
			s.startBuildLocked(gs, m)
		}
	}
}

// retireLocked is lifecycle step 4: gs leaves the registry (unless a
// replacement already took its place), so no new build can start on it;
// its builds are cancelled and its seeds leave the shared seed table.
// Callers hold s.mu, then wait on gs.builds (step 5) after unlocking.
func (s *Server) retireLocked(gs *graphState) {
	if s.graphs[gs.name] == gs {
		delete(s.graphs, gs.name)
	}
	for m, ix := range gs.indexes {
		ix.cancel()
		delete(gs.indexes, m)
	}
	for key, el := range gs.seeds {
		s.seedOrder.Remove(el)
		delete(gs.seeds, key)
	}
}

// AddGraph registers g under name, replacing any previous graph with that
// name and invalidating its cached results and hierarchy index. The
// server treats g as immutable from this point on; callers must not
// modify it. With Config.BuildIndex set, a background hierarchy-index
// build starts immediately.
func (s *Server) AddGraph(name string, g *graph.Graph) {
	s.editMu.Lock()
	defer s.editMu.Unlock()
	s.mu.Lock()
	old := s.graphs[name]
	s.mu.Unlock()
	var st *store.Store
	if old != nil {
		st = old.st // the same directory: the replacement inherits it
	}
	if st == nil {
		st = s.openStore(name)
	}
	gs := newGraphState(name, st)

	// The swap is atomic for queries — they see the old graph or the new
	// one, never neither — and the old state's saves are drained before
	// the initial checkpoint, so none of them can land over the new graph.
	s.mu.Lock()
	s.installLocked(gs, g, 1)
	if old != nil {
		s.retireLocked(old)
	}
	s.mu.Unlock()
	if old != nil {
		s.cache.invalidateGraph(name)
		old.builds.Wait()
	}
	s.persistNewGraph(gs, g)

	s.mu.Lock()
	s.startBuildsLocked(gs)
	s.mu.Unlock()
}

// RemoveGraph unregisters the named graph, drops its cached results and
// incremental seeds, cancels its background index builds (waiting for
// them to drain) and destroys its store. It reports whether the graph was
// registered. A long-running daemon that cycles datasets uses this to
// keep its memory bounded; requests already in flight finish against the
// snapshot they hold but can no longer cache results (their generation is
// retired with the state).
func (s *Server) RemoveGraph(name string) bool {
	s.editMu.Lock()
	defer s.editMu.Unlock()
	s.mu.Lock()
	gs := s.graphs[name]
	if gs != nil {
		s.retireLocked(gs)
	}
	s.mu.Unlock()
	if gs == nil {
		return false
	}
	s.cache.invalidateGraph(name)
	gs.builds.Wait()
	// Destroy keeps the snapshot mapping alive: in-flight requests may
	// still read the recovered graph. It is released at process exit.
	if gs.st != nil {
		if err := gs.st.Destroy(); err != nil {
			s.notePersistError("destroy store for "+name, err)
		}
	}
	return true
}

// Close ends every registered graph's lifecycle: builds are stopped and
// drained, index saves included, then every store is closed, which also
// releases the snapshot mappings recovered graphs are served from. The
// registry is empty afterwards. Call it only once the server has stopped
// serving: any request still holding a recovered graph loses its memory.
// Every store-close failure is recorded and returned, joined.
func (s *Server) Close() error {
	s.editMu.Lock()
	defer s.editMu.Unlock()
	s.mu.Lock()
	states := make([]*graphState, 0, len(s.graphs))
	for _, gs := range s.graphs {
		states = append(states, gs)
		s.retireLocked(gs)
	}
	s.mu.Unlock()
	var errs []error
	for _, gs := range states {
		s.cache.invalidateGraph(gs.name)
		gs.builds.Wait()
		if gs.st == nil {
			continue
		}
		if err := gs.st.Close(); err != nil {
			s.notePersistError("close store for "+gs.name, err)
			errs = append(errs, fmt.Errorf("server: close store for %q: %w", gs.name, err))
		}
	}
	return errors.Join(errs...)
}

// lookup returns the registered state for name and a copy of its
// installed snapshot, taken together.
func (s *Server) lookup(name string) (*graphState, graphEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gs := s.graphs[name]
	if gs == nil {
		return nil, graphEntry{}, fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	return gs, gs.entry, nil
}

// prevKey addresses one incremental seed: the last Result computed for a
// (graph, k, algo) whose cache entry an edit dropped. The next
// flight-leader enumeration for that key consumes the seed and recomputes
// only the k-core components the edits touched.
type prevKey struct {
	graph string
	k     int
	algo  kvcc.Algorithm
}

// seedRecord is one stored seed, threaded on Server.seedOrder.
type seedRecord struct {
	gs  *graphState
	key prevKey
	res *kvcc.Result
}

// putSeed stores res as the incremental seed for key in the registered
// state of key.graph. Seeds live with their graph but share one
// server-wide recency list bounded by the cache capacity (the seeds are
// dropped cache entries, so the cache's own size is the natural bound on
// what edits may retain): past it the oldest seed of any graph is
// evicted, in O(1).
func (s *Server) putSeed(key prevKey, res *kvcc.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gs := s.graphs[key.graph]
	if gs == nil {
		return
	}
	if el, ok := gs.seeds[key]; ok {
		el.Value.(*seedRecord).res = res
		s.seedOrder.MoveToFront(el)
	} else {
		gs.seeds[key] = s.seedOrder.PushFront(&seedRecord{gs: gs, key: key, res: res})
	}
	for s.seedOrder.Len() > s.cfg.CacheSize {
		rec := s.seedOrder.Remove(s.seedOrder.Back()).(*seedRecord)
		delete(rec.gs.seeds, rec.key)
	}
}

// peekSeed returns the stored seed for key without consuming it.
func (s *Server) peekSeed(key prevKey) *kvcc.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gs := s.graphs[key.graph]; gs != nil {
		if el, ok := gs.seeds[key]; ok {
			return el.Value.(*seedRecord).res
		}
	}
	return nil
}

// consumeSeed removes the seed for key, but only if it is still the one
// the caller peeked — a newer seed installed by a later edit batch must
// survive for the first enumeration on that batch's snapshot.
func (s *Server) consumeSeed(key prevKey, res *kvcc.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gs := s.graphs[key.graph]; gs != nil {
		if el, ok := gs.seeds[key]; ok && el.Value.(*seedRecord).res == res {
			s.seedOrder.Remove(el)
			delete(gs.seeds, key)
		}
	}
}
