package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeFixture writes two K6s sharing two vertices: two overlapping
// 4-VCCs, enough structure for every self-test step.
func writeFixture(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	cliques := [][]int{{0, 1, 2, 3, 4, 5}, {4, 5, 6, 7, 8, 9}}
	for _, c := range cliques {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				sb.WriteString(strconv.Itoa(c[i]) + "\t" + strconv.Itoa(c[j]) + "\n")
			}
		}
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSelfTestWithDemoGraph(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-selftest"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	for _, want := range []string{
		"serving \"demo\"",
		"served from cache",
		"selftest: ok",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// With -index the selftest must see the hierarchy index answer queries:
// the post-hierarchy enumerate is always index-served, whatever the
// background build's timing relative to the earlier cache checks.
func TestSelfTestWithIndex(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-selftest", "-index"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	for _, want := range []string{
		"served from the index",
		"has cohesion",
		"answered in one call",
		"selftest: ok",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// A truncated index (-index-max-k) is legitimately incomplete; the
// selftest must adapt its completeness and index-served expectations.
func TestSelfTestWithTruncatedIndex(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-selftest", "-index", "-index-max-k", "3"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr: %s\n%s", code, errBuf.String(), out.String())
	}
	if !strings.Contains(out.String(), "selftest: ok") {
		t.Fatalf("self-test did not pass:\n%s", out.String())
	}
}

// Compatibility: command lines written for the removed local cut engine
// must still start a working server. "-engine local" parses (and runs
// Dinic) and "-seed" is accepted and ignored.
func TestSelfTestWithLocalEngine(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-selftest", "-engine", "local", "-seed", "7"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "selftest: ok") {
		t.Fatalf("self-test did not pass:\n%s", out.String())
	}
}

func TestSelfTestWithLoadedGraph(t *testing.T) {
	in := writeFixture(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-selftest", "-graph", "fixture=" + in}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "serving \"fixture\"") {
		t.Fatalf("fixture graph not served:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "selftest: ok") {
		t.Fatalf("self-test did not pass:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no-graphs", nil, 2},
		{"bad-graph-flag", []string{"-graph", "nopath"}, 2},
		{"dup-graph-name", []string{"-graph", "a=x", "-graph", "a=y"}, 2},
		{"missing-file", []string{"-graph", "g=/does/not/exist", "-selftest"}, 1},
		{"bad-flag", []string{"-wat"}, 2},
		{"bad-engine", []string{"-selftest", "-engine", "wat"}, 2},
	}
	for _, tc := range cases {
		var out, errBuf bytes.Buffer
		if code := run(tc.args, &out, &errBuf); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.code, errBuf.String())
		}
	}
}

func TestGraphFlagsString(t *testing.T) {
	g := graphFlags{}
	if err := g.Set("social=social.txt"); err != nil {
		t.Fatal(err)
	}
	if got := g.String(); got != "social=social.txt" {
		t.Fatalf("String() = %q", got)
	}
}
