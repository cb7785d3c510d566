package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCommittedMatrixParses keeps matrix.txt well formed between
// check.sh runs: every row has guards and a diff touching at least one
// file.
func TestCommittedMatrixParses(t *testing.T) {
	rows, err := parseMatrix(matrixSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 28 {
		t.Fatalf("matrix has %d rows, want at least 28", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.name] {
			t.Errorf("duplicate row name %s", r.name)
		}
		seen[r.name] = true
	}
}

func TestParseMatrixRejectsMalformedRows(t *testing.T) {
	diff := "--- a/x.go\n+++ b/x.go\n@@ -1 +1 @@\n-a\n+b\n"
	for name, src := range map[string]string{
		"no guards":       "== r\n" + diff,
		"no diff":         "== r\nguards: lint:maprange\n",
		"unexpected line": "== r\nclass: x\nguards: lint:maprange\n" + diff,
	} {
		if _, err := parseMatrix(src); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	rows, err := parseMatrix("# header\n\n== r\n# comment\nguards: lint:maprange test:x:TestY\n" + diff)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || strings.Join(rows[0].guards, " ") != "lint:maprange test:x:TestY" ||
		len(rows[0].files) != 1 || rows[0].files[0] != "x.go" {
		t.Fatalf("parsed %+v", rows)
	}
}

// TestDominatedRules pins the keep rule over a synthetic table: a lint
// column survives only with a row no other column catches.
func TestDominatedRules(t *testing.T) {
	guards := []guard{
		{spec: "lint:alone", kind: "lint"},
		{spec: "lint:shared", kind: "lint"},
		{spec: "lint:blind", kind: "lint"},
		{spec: "lint:silent", kind: "lint"},
		{spec: "test:x:TestY", kind: "test"},
	}
	cells := [][]byte{
		[]byte("+...."), // lint:alone and no other column
		[]byte("++..."), // lint:shared, but lint:alone too
		[]byte(".+..+"), // lint:shared, but the test too
		[]byte("..+-+"), // lint:blind, but the test too; '-' is no catch
		[]byte("....+"), // the test alone, which no rule needs to beat
	}
	got := strings.Join(dominated(guards, cells), " ")
	if want := "lint:shared lint:blind lint:silent"; got != want {
		t.Fatalf("dominated = %q, want %q", got, want)
	}
}

// TestGoTestRunsPastAPanic: a test that panics ends its package's test
// binary, so the failing test after it never runs in that binary. goTest
// must still give it a verdict: both tests of the throwaway module read
// as caught, and the passing one does not.
func TestGoTestRunsPastAPanic(t *testing.T) {
	dir := t.TempDir()
	for _, f := range [][2]string{
		{"go.mod", "module panicky\n\ngo 1.24\n"},
		{"p_test.go", `package panicky

import "testing"

func TestPanics(t *testing.T) {
	t.Run("sub", func(t *testing.T) {
		var s []int
		_ = s[len(t.Name())]
	})
}

func TestFails(t *testing.T) { t.Fatal("caught") }

func TestPasses(t *testing.T) {}
`},
	} {
		if err := os.WriteFile(filepath.Join(dir, f[0]), []byte(f[1]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	failed, err := goTest(dir, false, []string{"./"}, "TestPanics|TestFails|TestPasses")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range failed {
		if f.pkg != "panicky" {
			t.Errorf("failure %+v in a package the module does not hold", f)
		}
		if !slices.Contains(got, f.test) {
			got = append(got, f.test)
		}
	}
	slices.Sort(got)
	if want := []string{"TestFails", "TestPanics"}; !slices.Equal(got, want) {
		t.Fatalf("caught %v, want %v", got, want)
	}
}
