package lint

import (
	"reflect"
	"strings"
	"testing"
)

func TestEffectString(t *testing.T) {
	cases := []struct {
		eff  Effect
		want string
	}{
		{0, "pure"},
		{EffAlloc, "alloc"},
		{EffUnknown, "unknown"},
		{EffAlloc | EffIO, "alloc,io"},
		{EffIO | EffAlloc, "alloc,io"}, // canonical order, not construction order
		{EffPanic | EffChan | EffSpawn | EffLock | EffGlobalWrite | EffNondet | EffIO | EffAlloc | EffUnknown,
			"alloc,io,nondet,globalwrite,lock,spawn,chan,panic,unknown"},
	}
	for _, c := range cases {
		if got := c.eff.String(); got != c.want {
			t.Errorf("Effect(%#x).String() = %q, want %q", uint16(c.eff), got, c.want)
		}
	}
}

// effectFixture infers effects over a fixture and returns the summary
// string per function name.
func effectFixture(t *testing.T, files map[string]string) map[string]string {
	t.Helper()
	pkgs, _, err := LoadFixture("bulk", files)
	if err != nil {
		t.Fatalf("LoadFixture: %v", err)
	}
	return effectSummaries(pkgs)
}

// effectSummaries runs the engine and renders each function's summary,
// keyed by display name.
func effectSummaries(pkgs []*Package) map[string]string {
	eng := inferEffects(pkgs, buildCallGraph(pkgs))
	out := map[string]string{}
	for _, fn := range eng.order {
		fe := eng.fns[fn]
		out[funcDisplayName(fe.node.decl)] = fe.summary.String()
	}
	return out
}

func TestInferEffectsConstructs(t *testing.T) {
	got := effectFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

import "sync"

var counter int
var mu sync.Mutex

func Pure(a, b int) int { return a + b }

func Alloc(n int) []int { return make([]int, n) }

func IO() { println("x") }

func Global() { counter++ }

func Locks() { mu.Lock(); defer mu.Unlock() }

func Spawns() { go Pure(1, 2) }

func Chans(c chan int) int { c <- 1; return <-c }

func Panics(x int) {
	if x < 0 {
		panic("negative")
	}
}

func Escapes(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

func Dynamic(s interface{ M() }) { s.M() }
`,
	})
	want := map[string]string{
		"Pure":    "pure",
		"Alloc":   "alloc",
		"IO":      "io",
		"Global":  "globalwrite",
		"Locks":   "alloc,lock", // the extern table models sync calls as alloc-capable
		"Spawns":  "alloc,spawn",
		"Chans":   "chan",
		"Panics":  "panic",
		"Escapes": "alloc", // map order is maprange's job, not an effect
		"Dynamic": "unknown",
	}
	for fn, w := range want {
		if got[fn] != w {
			t.Errorf("%s: effects = %q, want %q", fn, got[fn], w)
		}
	}
}

func TestInferEffectsPropagation(t *testing.T) {
	// Effects flow through static call chains, including mutual recursion.
	got := effectFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

func leaf() { println("x") }

func mid() { leaf() }

func Top(n int) int {
	mid()
	return n
}

func Even(n int) bool {
	if n == 0 {
		return true
	}
	return Odd(n - 1)
}

func Odd(n int) bool {
	if n == 0 {
		println("odd zero")
		return false
	}
	return Even(n - 1)
}
`,
	})
	for _, fn := range []string{"leaf", "mid", "Top", "Even", "Odd"} {
		if !strings.Contains(got[fn], "io") {
			t.Errorf("%s: effects = %q, want io propagated", fn, got[fn])
		}
	}
	// The fixpoint converged: recursion must not degrade to unknown.
	for _, fn := range []string{"Even", "Odd"} {
		if strings.Contains(got[fn], "unknown") {
			t.Errorf("%s: effects = %q; recursion degraded to unknown", fn, got[fn])
		}
	}
}

func TestInferEffectsSortLaunders(t *testing.T) {
	// A sorted-keys helper is not a nondeterminism source: map order is
	// maprange's job, and the effect engine never reports it.
	got := effectFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

import "sort"

func SortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`,
	})
	if strings.Contains(got["SortedKeys"], "nondet") {
		t.Errorf("SortedKeys: effects = %q; sorted iteration must not be nondet", got["SortedKeys"])
	}
}

func TestInferEffectsDeterministic(t *testing.T) {
	files := map[string]string{
		"internal/a/a.go": `package a

func A() []int { return make([]int, 4) }

func B() { println(A()) }
`,
		"internal/b/b.go": `package b

import "sync"

var mu sync.Mutex

func C() { mu.Lock(); mu.Unlock() }
`,
	}
	pkgs1, _, err := LoadFixture("bulk", files)
	if err != nil {
		t.Fatal(err)
	}
	pkgs2, _, err := LoadFixture("bulk", files)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := effectSummaries(pkgs1), effectSummaries(pkgs2)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("effect inference is not deterministic:\n%v\nvs\n%v", r1, r2)
	}
	if len(r1) != 3 {
		t.Fatalf("summaries = %d, want 3: %v", len(r1), r1)
	}
}
