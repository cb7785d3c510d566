package lint

import "testing"

// The waiver-audit tests exercise the stalewaiver rule: every //bulklint:
// directive must either suppress a live finding or attach to a real
// declaration; anything else is itself a finding.

func TestStaleOrderedWaiver(t *testing.T) {
	// The loop ranges over a slice, not a map, so the waiver suppresses
	// nothing and is reported stale.
	findings := escapeFixture(t, `package scratch

func Sum(xs []int) int {
	total := 0
	for _, v := range xs { //bulklint:ordered harmless, but dead
		total += v
	}
	return total
}
`)
	wantNoFinding(t, findings, "maprange")
	wantFinding(t, findings, "stalewaiver", "internal/scratch/s.go", 5)
}

func TestUnknownDirectiveName(t *testing.T) {
	findings := escapeFixture(t, `package scratch

//bulklint:nosuchthing reviewed
func F() {}
`)
	wantFinding(t, findings, "stalewaiver", "internal/scratch/s.go", 3)
}

func TestUnknownAllowRule(t *testing.T) {
	findings := escapeFixture(t, `package scratch

func F() int {
	return 1 //bulklint:allow warpspeed not a rule
}
`)
	wantFinding(t, findings, "stalewaiver", "internal/scratch/s.go", 4)
}

func TestUsedWaiverNotStale(t *testing.T) {
	findings := escapeFixture(t, `package scratch

func Checked(n int) int {
	if n <= 0 {
		panic("not positive") //bulklint:invariant callers validate
	}
	return n
}
`)
	wantNoFinding(t, findings, "nakedpanic")
	wantNoFinding(t, findings, "stalewaiver")
}

func TestStaleAnnotationUnattached(t *testing.T) {
	// guardedby on a line with no struct field and noalloc inside a body
	// (not on the declaration) both fail attachment.
	findings := escapeFixture(t, `package scratch

//bulklint:guardedby mu
var x int

func F() int {
	//bulklint:noalloc
	return x
}
`)
	var lines []int
	for _, f := range findings {
		if f.Rule == "stalewaiver" {
			lines = append(lines, f.Line)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("want 2 stalewaiver findings (lines 3 and 7), got %v: %v", lines, findings)
	}
}
