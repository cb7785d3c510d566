package lint

import (
	"go/token"
	"strings"
	"testing"
)

func TestFindingsTotalOrder(t *testing.T) {
	// The sort is a total order over (file, line, col, rule, msg): two
	// findings at the same position from the same rule still order
	// deterministically by message.
	r := NewReporter(token.NewFileSet())
	r.reportAt("z.go", 1, 1, "rule", "zeta")
	r.reportAt("a.go", 2, 1, "rule", "x")
	r.reportAt("a.go", 1, 5, "beta", "x")
	r.reportAt("a.go", 1, 5, "alpha", "x")
	r.reportAt("a.go", 1, 5, "alpha", "second message")
	r.reportAt("a.go", 1, 2, "rule", "x")

	var got []string
	for _, f := range r.Findings() {
		got = append(got, f.String())
	}
	want := []string{
		"a.go:1: [rule] x",               // col 2
		"a.go:1: [alpha] second message", // col 5: rule then msg tie-break
		"a.go:1: [alpha] x",
		"a.go:1: [beta] x",
		"a.go:2: [rule] x",
		"z.go:1: [rule] zeta",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFindingsGoldenDeterministic(t *testing.T) {
	// Two independent loads of the same sources must render byte-identical
	// output, pinned against a golden transcript.
	files := map[string]string{
		"internal/scratch/s.go": `package scratch

func Keys(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func Panics() {
	panic("boom")
}
`,
	}
	render := func() string {
		pkgs, fset, err := LoadFixture("bulk", files)
		if err != nil {
			t.Fatalf("LoadFixture: %v", err)
		}
		var b strings.Builder
		for _, f := range RunAnalyzers(pkgs, fset) {
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("output is not deterministic:\n%s\nvs\n%s", first, second)
	}
	want := "internal/scratch/s.go:5: [maprange] range over a builtin map; its iteration order is random: range det.SortedKeys(m) instead, or waive with //bulklint:ordered <why>\n" +
		"internal/scratch/s.go:12: [nakedpanic] panic in Panics; return an error, move it into a Must* helper, or waive with //bulklint:invariant <why>\n"
	if first != want {
		t.Fatalf("golden mismatch:\ngot:\n%s\nwant:\n%s", first, want)
	}
}
