package server

// Idempotency keys make Edits safe to retry: a client stamps each batch
// with a unique key, and a batch whose key the server has already applied
// is answered from the replay table — marked Replayed — instead of being
// applied a second time. Without the key, a retry of an acknowledged-but-
// lost response could interleave with other writers and re-apply edits
// the graph has since moved past.
//
// The table belongs to the graph's state (so removing or replacing the
// graph forgets its keys, which belong to the retired lineage) and is
// bounded: the oldest keys fall off once a graph has seen maxIdemKeys
// keyed batches. An evicted key makes a very late retry re-apply rather
// than replay — the window is deliberately sized far past any sane client
// retry horizon. Keys survive restarts through the WAL (each logged batch
// carries its key) and, across checkpoints, through the store's
// idempotency retention file; a key recovered that way replays with a
// minimal response (version and Replayed only — the original counts died
// with the process).

// idemTable is one graph's bounded key → response map, insertion-ordered
// for eviction. It is only touched under Server.editMu (or during Open,
// before the server is shared), so it needs no lock of its own.
type idemTable struct {
	entries map[string]*EditsResponse
	order   []string
}

// maxIdemKeys bounds one graph's replay table.
const maxIdemKeys = 1024

// lookup returns the replay response for a previously applied key: a
// copy of the stored response with Replayed set.
func (t *idemTable) lookup(key string) (*EditsResponse, bool) {
	stored, ok := t.entries[key]
	if !ok {
		return nil, false
	}
	cp := *stored
	cp.Replayed = true
	return &cp, true
}

// store records one applied keyed batch's response for future replays,
// evicting the oldest keys past the bound.
func (t *idemTable) store(key string, resp *EditsResponse) {
	cp := *resp
	if t.entries == nil {
		t.entries = make(map[string]*EditsResponse)
	}
	if _, dup := t.entries[key]; !dup {
		t.order = append(t.order, key)
	}
	t.entries[key] = &cp
	for len(t.order) > maxIdemKeys {
		delete(t.entries, t.order[0])
		t.order = t.order[1:]
	}
}
