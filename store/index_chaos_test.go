//go:build failpoint

package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"kvcc/hierarchy"
	"kvcc/internal/difftest"
	"kvcc/internal/failpoint"
)

// TestChaosIndexBodyWriteFailure fails the index body write after the
// header has landed in the temp file. The save must report the error,
// leave the previous index byte-identical, and leave no temp file behind;
// a save that swallowed the error would rename a truncated index over
// the good one.
func TestChaosIndexBodyWriteFailure(t *testing.T) {
	g := difftest.Corpus()[0].G
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Checkpoint(g, 3); err != nil {
		t.Fatal(err)
	}
	tree, err := hierarchy.Build(g, hierarchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveIndex(tree, 3, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, indexName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	armFailpoints(t, "store/index-body-write=error")
	if err := st.SaveIndex(tree, 4, 2); !failpoint.IsInjected(err) {
		t.Fatalf("save with a failed body write returned %v, want the injected error", err)
	}
	failpoint.Reset()

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed save changed the index file: %d bytes before, %d after", len(before), len(after))
	}
	if _, err := os.Stat(path + tmpSuffix); !os.IsNotExist(err) {
		t.Fatalf("failed save left its temp file behind (stat err %v)", err)
	}
	if _, _, ok, err := st.LoadIndex(tree.Measure); err != nil || !ok {
		t.Fatalf("previous index no longer loads: ok=%v err=%v", ok, err)
	}
}
