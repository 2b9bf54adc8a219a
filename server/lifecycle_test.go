package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// dirState maps every entry under dir (by relative path) to its size and
// modification time, so two snapshots compare equal only if nothing was
// created, removed or rewritten in between.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = fmt.Sprintf("%d@%d", info.Size(), info.ModTime().UnixNano())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertQuietAfterClose fails if anything under dir changes after Close
// returned: every save must have landed (or been skipped) before it.
func assertQuietAfterClose(t *testing.T, dir string, closed map[string]string) {
	t.Helper()
	time.Sleep(20 * time.Millisecond)
	if after := dirState(t, dir); !maps.Equal(closed, after) {
		t.Fatalf("data dir changed after Close returned:\nat close: %v\nlater:    %v", closed, after)
	}
}

// TestLifecycleCloseAfterAddGraphKeepsIndexes: Close straight after
// AddGraph must leave every index whose build finished on disk, and
// nothing may be written into the data dir once Close has returned. The
// store is opened before any build starts and Close waits for the saves
// that follow the builds, so neither a save into a missing store nor a
// save after Close can happen.
func TestLifecycleCloseAfterAddGraphKeepsIndexes(t *testing.T) {
	cfg := persistCfg(t)
	cfg.BuildIndex = true
	cfg.IndexMeasures = []string{"kvcc", "kecc", "kcore"}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AddGraph("fig2", twoCliques())
	s.mu.Lock()
	builds := maps.Clone(s.graphs["fig2"].indexes)
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	closed := dirState(t, cfg.DataDir)
	if len(builds) != len(cfg.IndexMeasures) {
		t.Fatalf("%d builds started, want %d", len(builds), len(cfg.IndexMeasures))
	}
	for m, ix := range builds {
		<-ix.ready
		if ix.err != nil {
			continue // Close cancelled it before it finished: nothing to save
		}
		if _, ok := closed[filepath.Join("fig2", "index."+m.String())]; !ok {
			t.Errorf("%s index was built but is not on disk when Close returns", m)
		}
	}
	assertQuietAfterClose(t, cfg.DataDir, closed)
}

// TestLifecycleUnderContention races every lifecycle transition — add,
// edit, remove — against hierarchy builds and enumerations over two
// names, then checks the invariants the ordered lifecycle guarantees: a
// removed graph leaves no store directory, every registered graph has
// exactly one open store, and Close leaves nothing to write afterwards.
func TestLifecycleUnderContention(t *testing.T) {
	cfg := persistCfg(t)
	cfg.BuildIndex = true
	cfg.IndexMeasures = []string{"kvcc", "kcore"}
	cfg.CheckpointEvery = 3 // exercise checkpoints and spills too
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b"}
	ctx := context.Background()
	// tolerated reports errors the races legitimately produce: the graph
	// is gone, or the index build being waited on was cancelled by an
	// edit, a replacement or a removal.
	tolerated := func(err error) bool {
		return err == nil || errors.Is(err, ErrUnknownGraph) || errors.Is(err, context.Canceled)
	}

	stop := make(chan struct{})
	errs := make(chan error, 64)
	report := func(op string, err error) {
		if !tolerated(err) {
			select {
			case errs <- fmt.Errorf("%s: %w", op, err):
			default:
			}
		}
	}
	var writers, readers sync.WaitGroup
	for i, name := range names {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(i + 1)))
			for op := 0; op < 40; op++ {
				switch r := rng.Intn(10); {
				case r < 3:
					s.AddGraph(name, twoCliques())
				case r < 8:
					u, v := rng.Int63n(12), rng.Int63n(12)
					if u == v {
						continue
					}
					_, err := s.Edits(ctx, EditsRequest{Graph: name, Inserts: [][2]int64{{u, v}}})
					report("edits "+name, err)
				default:
					s.RemoveGraph(name)
				}
			}
		}()
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 2; ; k = 2 + (k-1)%4 {
				select {
				case <-stop:
					return
				default:
				}
				_, err := s.Hierarchy(ctx, HierarchyRequest{Graph: name})
				report("hierarchy "+name, err)
				_, err = s.Enumerate(ctx, EnumerateRequest{Graph: name, K: k})
				report("enumerate "+name, err)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	registered := make(map[string]bool)
	for _, info := range s.Graphs() {
		registered[info.Name] = true
	}
	for _, name := range names {
		_, err := os.Stat(filepath.Join(cfg.DataDir, name))
		if exists := err == nil; exists != registered[name] {
			t.Errorf("graph %q: registered %v but store directory present %v", name, registered[name], exists)
		}
	}
	if ps := s.Stats().Persistence; ps.Graphs != len(registered) {
		t.Errorf("persistence reports %d graphs, %d registered", ps.Graphs, len(registered))
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertQuietAfterClose(t, cfg.DataDir, dirState(t, cfg.DataDir))
}
