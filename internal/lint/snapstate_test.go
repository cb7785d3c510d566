package lint

import "testing"

// TestSnapStateDroppedField: a field a Reset forgets must yield exactly
// one finding naming the reset method (the witness line is the method
// declaration).
func TestSnapStateDroppedField(t *testing.T) {
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

//bulklint:snapstate
type Sys struct {
	clock int
	buf   []int
}

//bulklint:captures reset
func (s *Sys) Reset() {
	s.buf = s.buf[:0]
}
`,
	})
	wantFinding(t, findings, "snapstate", "internal/scratch/s.go", 10)
}

func TestSnapStateCleanReset(t *testing.T) {
	// Full coverage, storage kept: no findings, no stale directives.
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

//bulklint:snapstate
type Sys struct {
	clock int
	buf   []int
	m     map[int]int
}

//bulklint:captures reset Sys
func ResetSys(s *Sys) {
	s.clock = 0
	s.buf = s.buf[:0]
	clear(s.m)
}
`,
	})
	wantNoFinding(t, findings, "snapstate")
	wantNoFinding(t, findings, "stalewaiver")
}

func TestSnapStateHelperCoverage(t *testing.T) {
	// A field handled inside a statically-resolved helper counts: coverage
	// flows through the module call graph.
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

//bulklint:snapstate
type Sys struct {
	clock int
	buf   []int
}

func resetBuf(s *Sys) {
	s.buf = s.buf[:0]
}

//bulklint:captures reset
func (s *Sys) Reset() {
	s.clock = 0
	resetBuf(s)
}
`,
	})
	wantNoFinding(t, findings, "snapstate")
	wantNoFinding(t, findings, "stalewaiver")
}

func TestSnapStateIgnoreWaiver(t *testing.T) {
	// An ignored field that would otherwise fail is waived, and the waiver
	// is live (not a stalewaiver finding).
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

//bulklint:snapstate
type Sys struct {
	clock int
	//bulklint:snapstate-ignore scratch rebuilt lazily on first use
	scratch []int
}

//bulklint:captures reset
func (s *Sys) Reset() {
	s.clock = 0
}
`,
	})
	wantNoFinding(t, findings, "snapstate")
	wantNoFinding(t, findings, "stalewaiver")
}

func TestSnapStateStaleIgnore(t *testing.T) {
	// An ignore whose field is in fact fully covered is a stalewaiver
	// finding — the audit extends to snapstate-ignore.
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

//bulklint:snapstate
type Sys struct {
	//bulklint:snapstate-ignore clock not captured (stale: it is)
	clock int
}

//bulklint:captures reset
func (s *Sys) Reset() {
	s.clock = 0
}
`,
	})
	wantNoFinding(t, findings, "snapstate")
	wantFinding(t, findings, "stalewaiver", "internal/scratch/s.go", 5)
}

func TestSnapStateResetKindNeedsNoWitness(t *testing.T) {
	// A reset method rewinds to a zero value: whole-struct assignment
	// covers every field, pointer fields included.
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

//bulklint:snapstate
type Out struct {
	err  error
	log  []string
	code int
}

//bulklint:captures reset
func (o *Out) Reset() {
	*o = Out{}
}
`,
	})
	wantNoFinding(t, findings, "snapstate")
	wantNoFinding(t, findings, "stalewaiver")
}

func TestSnapStateNoCapturesMethod(t *testing.T) {
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

//bulklint:snapstate
type Sys struct {
	clock int
}
`,
	})
	wantFinding(t, findings, "snapstate", "internal/scratch/s.go", 4)
}

func TestSnapStateUnknownKindAndField(t *testing.T) {
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

//bulklint:snapstate
type Sys struct {
	//bulklint:snapstate-ignore nosuch never existed
	clock int
}

//bulklint:captures snapshot
//bulklint:captures reset
func (s *Sys) Reset() {
	s.clock = 0
}
`,
	})
	// snapshot is an unknown kind: reset is the only one.
	var got []Finding
	for _, f := range findings {
		if f.Rule == "snapstate" {
			got = append(got, f)
		}
	}
	if len(got) != 2 {
		t.Fatalf("want 2 snapstate findings (unknown kind + unknown field), got %d: %v", len(got), got)
	}
	wantNoFinding(t, findings, "stalewaiver")
}

func TestSnapStateUnattachedAnnotation(t *testing.T) {
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

//bulklint:snapstate
var notAStruct int
`,
	})
	wantFinding(t, findings, "stalewaiver", "internal/scratch/s.go", 3)
}
