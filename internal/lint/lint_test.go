package lint

import (
	"strings"
	"testing"
)

// lintFixture type-checks the given sources under a fictional "bulk" module
// and returns all findings.
func lintFixture(t *testing.T, files map[string]string) []Finding {
	t.Helper()
	pkgs, fset, err := LoadFixture("bulk", files)
	if err != nil {
		t.Fatalf("LoadFixture: %v", err)
	}
	return RunAnalyzers(pkgs, fset)
}

// wantFinding asserts exactly one finding of rule, at file:line when line > 0.
func wantFinding(t *testing.T, findings []Finding, rule, file string, line int) {
	t.Helper()
	var matches []Finding
	for _, f := range findings {
		if f.Rule == rule {
			matches = append(matches, f)
		}
	}
	if len(matches) != 1 {
		t.Fatalf("want exactly 1 %s finding, got %d: %v", rule, len(matches), matches)
	}
	f := matches[0]
	if !strings.HasSuffix(f.File, file) {
		t.Errorf("finding file = %s, want suffix %s", f.File, file)
	}
	if line > 0 && f.Line != line {
		t.Errorf("finding line = %d, want %d", f.Line, line)
	}
}

func wantNoFinding(t *testing.T, findings []Finding, rule string) {
	t.Helper()
	for _, f := range findings {
		if f.Rule == rule {
			t.Errorf("unexpected %s finding: %v", rule, f)
		}
	}
}

func TestMapRange(t *testing.T) {
	// Unsorted keys escaping via return: iteration order reaches the caller.
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

func Keys(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`,
	})
	wantFinding(t, findings, "maprange", "internal/scratch/s.go", 5)
}

func TestMapRangeWaiver(t *testing.T) {
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

func Keys(m map[int]int) []int {
	var keys []int
	for k := range m { //bulklint:ordered caller sorts
		keys = append(keys, k)
	}
	return keys
}

func Keys2(m map[int]int) (keys []int) {
	//bulklint:ordered waiver on the line above the loop also works
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`,
	})
	wantNoFinding(t, findings, "maprange")
	// Both waivers suppress live findings, so neither is stale.
	wantNoFinding(t, findings, "stalewaiver")
}

func TestMapRangeSortedKeysClean(t *testing.T) {
	// Ranging over sorted keys is clean; the one map range inside the
	// sorting helper carries its ordered waiver, which is live.
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

import "sort"

func Keys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //bulklint:ordered sorted below before it escapes
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func Walk(m map[string]int) int {
	total := 0
	for _, k := range Keys(m) {
		total += m[k]
	}
	return total
}
`,
	})
	wantNoFinding(t, findings, "maprange")
	wantNoFinding(t, findings, "stalewaiver")
}

func TestRandSrc(t *testing.T) {
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

import (
	"math/rand"
	"time"
)

func Jitter() int64 {
	return time.Now().UnixNano() + int64(rand.Int())
}
`,
	})
	var rules []string
	for _, f := range findings {
		if f.Rule == "randsrc" {
			rules = append(rules, f.Rule)
		}
	}
	if len(rules) != 2 {
		t.Fatalf("want 2 randsrc findings (import + time.Now), got %d: %v", len(rules), findings)
	}
}

func TestRandSrcScope(t *testing.T) {
	// internal/rng may own generator state; cmd/ may read the clock.
	findings := lintFixture(t, map[string]string{
		"internal/rng/r.go": `package rng

import "math/rand"

func New() *rand.Rand { return rand.New(rand.NewSource(1)) }
`,
		"cmd/tool/main.go": `package main

import (
	"fmt"
	"time"
)

func main() { fmt.Println(time.Now()) }
`,
	})
	wantNoFinding(t, findings, "randsrc")
}

func TestGuardedBy(t *testing.T) {
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

import "sync"

type Meter struct {
	mu sync.Mutex
	//bulklint:guardedby mu
	total int
}

func (m *Meter) Add(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total += n
}

func (m *Meter) Peek() int {
	return m.total
}

//bulklint:locked caller holds mu
func (m *Meter) addLocked(n int) {
	m.total += n
}
`,
	})
	wantFinding(t, findings, "guardedby", "internal/scratch/s.go", 18)
}

func TestDroppedErr(t *testing.T) {
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

import (
	"errors"
	"fmt"
)

func fail() error { return errors.New("boom") }

func Run() {
	fail()
	_ = fail()
	fmt.Println("ok")
	if err := fail(); err != nil {
		fmt.Println(err)
	}
}
`,
	})
	wantFinding(t, findings, "droppederr", "internal/scratch/s.go", 11)
}

func TestNakedPanic(t *testing.T) {
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

func MustPositive(n int) int {
	if n <= 0 {
		panic("not positive")
	}
	return n
}

func Checked(n int) int {
	if n <= 0 {
		panic("not positive") //bulklint:invariant callers validate n at construction
	}
	return n
}

func Bad(n int) int {
	if n <= 0 {
		panic("not positive")
	}
	return n
}
`,
	})
	wantFinding(t, findings, "nakedpanic", "internal/scratch/s.go", 19)
}

func TestFindingString(t *testing.T) {
	f := Finding{File: "internal/x/x.go", Line: 12, Col: 3, Rule: "maprange", Msg: "bad loop"}
	want := "internal/x/x.go:12: [maprange] bad loop"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestFindingsSorted(t *testing.T) {
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

func A(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	if len(out) == 0 {
		panic("x")
	}
	return out
}
`,
		"internal/alpha/a.go": `package alpha

func B(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
	})
	if len(findings) < 3 {
		t.Fatalf("want >= 3 findings, got %v", findings)
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("findings out of order: %v before %v", a, b)
		}
	}
}

func TestAnalyzerNames(t *testing.T) {
	want := []string{"maprange", "randsrc", "guardedby", "droppederr", "nakedpanic", "noalloc", "purehook", "layerdep", "capturesafe", "stalewaiver"}
	got := AnalyzerNames()
	if len(got) != len(want) {
		t.Fatalf("AnalyzerNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("AnalyzerNames()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}
