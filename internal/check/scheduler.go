package check

import (
	"fmt"

	"bulk/internal/rng"
	"bulk/internal/sim"
)

// Step records one scheduling decision of a replayed execution.
type Step struct {
	// IsBranch distinguishes branch decisions from processor picks.
	IsBranch bool
	// Kind classifies a branch decision (commit token, preemption).
	Kind sim.BranchKind
	// Arity is the number of alternatives the decision had.
	Arity int
	// Choice is the canonical choice index taken (0 = the default).
	Choice int
	// Picked is the resolved decision: the processor id for a pick, the
	// branch alternative otherwise.
	Picked int
	// Ready is the picked processor's ready cycle (processor picks only).
	Ready int64
}

func (st Step) String() string {
	if st.IsBranch {
		return fmt.Sprintf("branch %s alt %d/%d (choice %d)",
			st.Kind, st.Picked, st.Arity, st.Choice)
	}
	return fmt.Sprintf("step proc %d of %d runnable at t=%d (choice %d)",
		st.Picked, st.Arity, st.Ready, st.Choice)
}

// ReplayScheduler maps a schedule — a prefix of canonical choice indices —
// onto the runtimes' decision points. Decision i takes prefix[i] when
// i < len(prefix) and the default choice 0 otherwise, so the empty schedule
// replays the default execution exactly. The first depth decisions are
// recorded in Trace with their arities, which is what the systematic
// explorer extends.
//
// The canonical choice order is stable across runs:
//
//   - Processor picks: candidates ordered by (ready cycle, id); choice k
//     is the k-th. Choice 0 is the engine's own default.
//   - Branches: choice 0 is the runtime's default alternative; choices
//     1..n-1 are the remaining alternatives in ascending value order.
//
// With a non-nil deviation rng (NewRandomWalk), decisions past the prefix
// but within depth deviate to a uniform random choice with probability p;
// the recorded trace then doubles as a deterministic replay schedule for
// any failure the walk finds.
type ReplayScheduler struct {
	prefix  []int
	depth   int
	count   int
	trace   []Step
	r       *rng.Rand
	deviate float64
	ord     []int // scratch: canonical candidate ordering
}

// NewReplay builds a deterministic scheduler replaying prefix, recording
// the first depth decisions.
func NewReplay(prefix []int, depth int) *ReplayScheduler {
	return &ReplayScheduler{prefix: prefix, depth: depth}
}

// NewRandomWalk builds a scheduler that deviates randomly (probability p
// per decision) from the default schedule at decisions within depth.
func NewRandomWalk(depth int, seed uint64, p float64) *ReplayScheduler {
	return &ReplayScheduler{depth: depth, r: rng.New(seed), deviate: p}
}

// Reset reinitializes the scheduler for a fresh deterministic replay of
// prefix, reusing the trace buffer's capacity. The pooled explorer path
// calls this once per schedule instead of allocating a NewReplay.
//
//bulklint:noalloc
func (s *ReplayScheduler) Reset(prefix []int, depth int) {
	s.prefix, s.depth = prefix, depth
	s.count = 0
	s.trace = s.trace[:0]
	s.r, s.deviate = nil, 0
}

// Trace returns the recorded decisions (the first depth of them).
func (s *ReplayScheduler) Trace() []Step { return s.trace }

// Schedule returns the canonical choice list of the recorded decisions,
// with trailing defaults trimmed; replaying it reproduces this execution.
func (s *ReplayScheduler) Schedule() []int {
	out := make([]int, len(s.trace))
	for i, st := range s.trace {
		out[i] = st.Choice
	}
	return trimDefaults(out)
}

// choose resolves the canonical choice index for the next decision.
func (s *ReplayScheduler) choose(arity int) int {
	i := s.count
	s.count++
	c := 0
	switch {
	case i < len(s.prefix):
		c = s.prefix[i]
	case s.r != nil && i < s.depth:
		if s.r.Float64() < s.deviate {
			c = s.r.Intn(arity)
		}
	}
	if c < 0 || c >= arity {
		c = 0
	}
	return c
}

func (s *ReplayScheduler) record(st Step) {
	if len(s.trace) < s.depth {
		s.trace = append(s.trace, st)
	}
}

// PickProc implements sim.Scheduler.
func (s *ReplayScheduler) PickProc(candidates []int, ready []int64) int {
	s.ord = s.ord[:0]
	for i := range candidates {
		s.ord = append(s.ord, i)
	}
	// candidates ascend by id, so a stable sort on ready yields the
	// canonical (ready, id) order; position 0 is the engine's default.
	// Insertion sort: candidate lists are a handful of processors, and
	// unlike sort.SliceStable this allocates nothing on the hot path.
	for a := 1; a < len(s.ord); a++ {
		for b := a; b > 0 && ready[s.ord[b]] < ready[s.ord[b-1]]; b-- {
			s.ord[b], s.ord[b-1] = s.ord[b-1], s.ord[b]
		}
	}
	c := s.choose(len(candidates))
	pick := candidates[s.ord[c]]
	s.record(Step{
		Arity: len(candidates), Choice: c,
		Picked: pick, Ready: ready[s.ord[c]],
	})
	return pick
}

// PickBranch implements sim.Scheduler.
func (s *ReplayScheduler) PickBranch(kind sim.BranchKind, n, def int) int {
	c := s.choose(n)
	pick := branchAlt(c, n, def)
	s.record(Step{IsBranch: true, Kind: kind, Arity: n, Choice: c, Picked: pick})
	return pick
}

// branchAlt maps a canonical choice onto a branch alternative: choice 0 is
// the default, the rest are the remaining alternatives in ascending order.
func branchAlt(c, n, def int) int {
	if c == 0 {
		return def
	}
	x := c - 1
	if x >= def {
		x++
	}
	if x >= n { // defensive; choose already bounds c < n
		return def
	}
	return x
}

// trimDefaults removes trailing zero choices — they replay identically.
func trimDefaults(s []int) []int {
	n := len(s)
	for n > 0 && s[n-1] == 0 {
		n--
	}
	return s[:n]
}
