package check

import (
	"fmt"
	"strings"

	"bulk/internal/flatmap"
	"bulk/internal/mutate"
	"bulk/internal/par"
	"bulk/internal/rng"
)

// Budget bounds one exploration: at most MaxSchedules executions, with
// decisions beyond Depth pinned to the default choice (bounding the tree).
type Budget struct {
	MaxSchedules int
	Depth        int
}

// snapCacheBytes bounds an exploration's fork-point snapshot cache. It
// comfortably holds every fork point of the deepest stock sweep while
// still bounding a pathological blow-up; the report is identical at any
// bound, which trades memory for speed only.
const snapCacheBytes = 256 << 20

// SmallBudget is a smoke-test budget (sub-second per target).
func SmallBudget() Budget { return Budget{MaxSchedules: 1_000, Depth: 10} }

// MediumBudget is the default bulkcheck budget.
func MediumBudget() Budget { return Budget{MaxSchedules: 20_000, Depth: 14} }

// LargeBudget is the thorough sweep budget.
func LargeBudget() Budget { return Budget{MaxSchedules: 120_000, Depth: 18} }

// BudgetByName resolves small/medium/large.
func BudgetByName(name string) (Budget, bool) {
	switch name {
	case "small":
		return SmallBudget(), true
	case "medium":
		return MediumBudget(), true
	case "large":
		return LargeBudget(), true
	default:
		return Budget{}, false
	}
}

// Failure is a minimized failing schedule.
type Failure struct {
	// Schedule replays the failure deterministically via NewReplay.
	Schedule []int
	// Reason is the first oracle rejection.
	Reason string
	// Outcome is the failing execution's full judgment.
	Outcome *Outcome
	// Steps is the human-readable decision list of the failing replay.
	Steps []Step
}

// Report summarizes one exploration.
type Report struct {
	Target string
	// Schedules is the number of distinct schedules executed and counted.
	Schedules int
	// Distinct is the number of distinct outcome fingerprints reached —
	// a measure of how much behavioral diversity the schedules exposed.
	Distinct int
	// Duplicates counts redundant re-executions of already-seen canonical
	// schedules. Exploration never repeats a schedule, so it is always 0
	// there; random walks report their repeat draws here instead of
	// inflating Schedules, which keeps Walk and Explore reports
	// comparable measures of distinct work.
	Duplicates int
	// Failure is the first (minimized) failing schedule, nil if none.
	Failure *Failure
}

// seenShards stripes the prefix dedup set. 64 shards keeps the expected
// worker collision rate on a shard lock in the low percents at the worker
// counts bulkcheck sweeps (1–16) while costing four cache lines of
// headers.
const seenShards = 64

// Explore walks the schedule space of t in canonical best-first order: it
// executes the default schedule, then systematically flips each recorded
// decision to each alternative choice, extending failure-free prefixes —
// shortest first, lexicographic within a length — until the budget is
// exhausted or an oracle rejects an execution. Prefixes are deduplicated
// by canonical sequence hash, so Schedules counts distinct schedules. On
// failure the schedule is minimized (greedily reverting choices to the
// default while the failure reproduces) before reporting.
//
// Explore is the serial form of ExploreParallel: the explored set, the
// report, and the failing schedule are identical at every worker count.
func Explore(t Target, muts mutate.Set, b Budget) *Report {
	rep, _, _ := explore(t, muts, b, 1, nil, false, snapCacheBytes)
	return rep
}

// ExploreParallel is Explore across workers goroutines (workers <= 0 means
// GOMAXPROCS). Each best-first wave — the prefixes tied for minimum
// length, in lexicographic order — is executed on a work-stealing pool of
// per-worker deques with steal-half balancing; results land by wave index
// and are reduced serially in canonical order, so the report is
// byte-identical to the serial explorer's no matter the worker count or
// steal schedule.
func ExploreParallel(t Target, muts mutate.Set, b Budget, workers int) *Report {
	rep, _, _ := explore(t, muts, b, workers, nil, false, snapCacheBytes)
	return rep
}

// ExploreFrom is ExploreParallel with resumable state: a nil from starts a
// fresh sweep; a Checkpoint from a previous run continues it. On a clean
// stop (budget exhausted or space exhausted, no failure) the returned
// Checkpoint resumes the sweep; on failure it is nil. Budget.MaxSchedules
// is the total schedule count across the original run and every resume,
// and the combined report of an interrupted-and-resumed sweep is
// identical to an uninterrupted one, because best-first order makes the
// executed sequence independent of where budget boundaries fall.
func ExploreFrom(t Target, muts mutate.Set, b Budget, workers int, from *Checkpoint) (*Report, *Checkpoint, error) {
	return explore(t, muts, b, workers, from, true, snapCacheBytes)
}

// explore is the shared implementation. Every schedule runs on a pooled
// per-worker system restored between runs, sharing fork-point snapshots
// through a cache bounded to cacheBytes. Materializing the resumable
// checkpoint costs real allocation (sorted fingerprints, the dedup set,
// the whole frontier), so the non-resumable entry points pass
// wantCP=false and skip it.
func explore(t Target, muts mutate.Set, b Budget, workers int, from *Checkpoint, wantCP bool, cacheBytes int64) (*Report, *Checkpoint, error) {
	rep := &Report{Target: t.Name()}
	seen := flatmap.NewSharded(seenShards)
	var fps flatmap.Set
	fr := newFrontier(b.Depth)
	counted, distinct := 0, 0

	if from != nil {
		if from.Target != t.Name() {
			return nil, nil, fmt.Errorf("check: checkpoint is for target %q, not %q", from.Target, t.Name())
		}
		if from.Depth != b.Depth {
			return nil, nil, fmt.Errorf("check: checkpoint depth %d does not match budget depth %d", from.Depth, b.Depth)
		}
		counted = from.Schedules
		for _, f := range from.Fingerprints {
			fps.Add(f)
		}
		distinct = fps.Len()
		for _, k := range from.Seen {
			seen.Add(k)
		}
		for _, p := range from.Frontier {
			fr.add(p)
		}
	} else {
		seen.Add(hashSchedule(nil))
		fr.add(nil)
	}

	cache := newSnapCache(cacheBytes)
	var results []waveResult
	var scratch []workerScratch

	for counted < b.MaxSchedules && !fr.empty() {
		length, rows, total := fr.takeMin()
		n := total
		if rem := b.MaxSchedules - counted; n > rem {
			n = rem
		}
		// Execute the wave. Workers claim wave indices from the stealing
		// pool, write their outcome and encoded children into their own
		// index's slot, and race only on the sharded dedup set — whose
		// final membership is order-independent. The result and scratch
		// pools persist across waves; worker ids index scratch, so pooled
		// runners and schedulers never migrate mid-wave.
		if cap(results) < n {
			results = make([]waveResult, n)
		} else {
			results = results[:n]
		}
		// A budget-truncated wave is the exploration's last: the children
		// its runs would deposit snapshots for can never execute, so the
		// captures — a third of a run's cost each — are skipped outright.
		// Resuming from earlier waves' captures still applies. Deeper
		// waves capture only up to the depth cap: a shallow capture serves
		// every schedule in the subtree below it, while a deep one serves
		// only its immediate children — almost none of which run before
		// the budget dies — at full capture cost per run.
		capture := counted+n < b.MaxSchedules && length <= snapCaptureDepth
		for nw := par.StealWorkers(workers, n); len(scratch) < nw; {
			scratch = append(scratch, workerScratch{})
		}
		par.StealForEach(n, workers, func(w, i int) {
			sc := &scratch[w]
			sc.prefix = decodeRow(rows, length, i, sc.prefix)
			if sc.runner == nil && sc.runnerErr == nil {
				sc.runner, sc.runnerErr = t.newRunner(muts)
			}
			if sc.runnerErr != nil {
				results[i] = waveResult{out: Outcome{Err: sc.runnerErr}}
				return
			}
			results[i].entry = sc.runner.RunSchedule(&results[i].out, sc.prefix, b.Depth, cache, capture)
			results[i].kids = expandChildren(sc.runner.sched.Trace(), length, seen, sc)
		})
		// Reduce in canonical order. Everything order-sensitive — the
		// schedule count, the Distinct tally, and the first failure —
		// happens here, serially, exactly as a serial explorer would have
		// done it.
		for i := 0; i < n; i++ {
			counted++
			f := results[i].out.Fingerprint
			if !fps.Has(f) {
				fps.Add(f)
				distinct++
			}
			if results[i].out.Failed() {
				rep.Schedules, rep.Distinct = counted, distinct
				failing := decodeRow(rows, length, i, nil)
				oc := results[i].out // off the pooled slice before minimize replays
				rep.Failure = minimize(t, muts, b, failing, &oc)
				return rep, nil, nil
			}
			fr.addRows(results[i].kids)
			if results[i].entry != nil {
				// The enqueued children are the only schedules that can
				// resume from this row's capture — and only those longer
				// than the capture's decision count can match it (lookup
				// wants the longest entry strictly shorter than the
				// prefix). Once that many lookups have hit it, the entry
				// retires and its snapshot recycles immediately instead of
				// waiting for LRU pressure. A stray hit or miss elsewhere
				// only shifts work back to replay — retirement can never
				// change an outcome.
				e := results[i].entry
				cache.setExpected(e, countEligibleRows(results[i].kids, e.count))
			}
		}
		if n < total {
			fr.putBack(rows, length, n, total)
		}
	}

	lastSnapStats = cache.Stats()
	rep.Schedules, rep.Distinct = counted, distinct
	if !wantCP {
		return rep, nil, nil
	}
	cp := &Checkpoint{
		Target:       t.Name(),
		Depth:        b.Depth,
		Schedules:    counted,
		Fingerprints: fps.SortedKeys(nil),
		Seen:         seen.AppendAll(nil),
		Frontier:     fr.appendAll(nil),
	}
	return rep, cp, nil
}

// waveResult is one wave execution's contribution, landed by index. The
// outcome is inline (not a pointer) so the pooled results slice recycles
// its storage across waves without per-schedule Outcome allocations.
type waveResult struct {
	out   Outcome
	kids  []byte     // length-prefixed child rows for frontier.addRows
	entry *snapEntry // this row's fork-point capture, nil if none
}

// countEligibleRows counts the length-prefixed rows in a kids encoding
// longer than count decisions — the ones whose snapshot lookups can reach
// a fork-point entry captured at count.
func countEligibleRows(kids []byte, count int) int {
	n := 0
	for i := 0; i < len(kids); i += 1 + int(kids[i]) {
		if int(kids[i]) > count {
			n++
		}
	}
	return n
}

// workerScratch is the per-worker reusable state of an exploration: the
// decoded prefix, the rolling prefix hashes, the choice bytes of the
// current trace, and the worker's pooled runner. Indexed by the stealing
// pool's worker id, so no synchronization.
type workerScratch struct {
	prefix    []int
	hashes    []uint64
	choices   []byte
	runner    *runner
	runnerErr error
}

// expandChildren emits every undiscovered child of an executed prefix as
// length-prefixed rows: for each recorded decision past the forced prefix,
// each alternative choice, claimed through the sharded dedup set so
// exactly one worker enqueues any given prefix. Children are hashed with
// the rolling zero-alloc recurrence — no strings, no per-candidate
// allocation; only rows that win the dedup claim are materialized.
func expandChildren(tr []Step, from int, seen *flatmap.Sharded, sc *workerScratch) []byte {
	sc.hashes = sc.hashes[:0]
	sc.choices = sc.choices[:0]
	h := uint64(fnvOffset)
	for _, st := range tr {
		if st.Arity > maxChoiceByte+1 {
			panic("check: decision arity exceeds one-byte choice encoding") //bulklint:invariant arity is bounded by the workload's processor count
		}
		sc.hashes = append(sc.hashes, h) // hash of the first j choices
		sc.choices = append(sc.choices, byte(st.Choice))
		h = hashStep(h, st.Choice)
	}
	capBytes := 0
	for i := from; i < len(tr); i++ {
		capBytes += (tr[i].Arity - 1) * (i + 2) // row = len byte + i+1 choices
	}
	if capBytes == 0 {
		return nil
	}
	kids := make([]byte, 0, capBytes)
	for i := from; i < len(tr); i++ {
		for c := 1; c < tr[i].Arity; c++ {
			if seen.AddIfAbsent(hashStep(sc.hashes[i], c)) {
				kids = append(kids, byte(i+1))
				kids = append(kids, sc.choices[:i]...)
				kids = append(kids, byte(c))
			}
		}
	}
	return kids
}

// Walk runs random-walk schedules: each trial deviates from the default
// with the given probability at every decision within the budget's depth.
// Draws that land on an already-executed canonical schedule are counted as
// Duplicates and not re-judged (replays are deterministic, so a repeat
// draw can expose nothing new); MaxSchedules bounds total draws, so
// Schedules reports the distinct schedules actually explored. Failures
// minimize and replay exactly like Explore's.
func Walk(t Target, muts mutate.Set, b Budget, seed uint64, deviate float64) *Report {
	rep := &Report{Target: t.Name()}
	var fps, seen flatmap.Set
	r := rng.New(seed)
	for rep.Schedules+rep.Duplicates < b.MaxSchedules {
		sched := NewRandomWalk(b.Depth, r.Uint64(), deviate)
		out := t.Run(sched, muts)
		key := hashSchedule(sched.Schedule())
		if seen.Has(key) {
			rep.Duplicates++
			continue
		}
		seen.Add(key)
		rep.Schedules++
		if !fps.Has(out.Fingerprint) {
			fps.Add(out.Fingerprint)
			rep.Distinct++
		}
		if out.Failed() {
			rep.Failure = minimize(t, muts, b, sched.Schedule(), out)
			break
		}
	}
	return rep
}

// Replay executes one explicit schedule against t and returns its outcome
// and recorded decision trace.
func Replay(t Target, muts mutate.Set, schedule []int, depth int) (*Outcome, []Step) {
	if d := len(schedule); d > depth {
		depth = d
	}
	sched := NewReplay(schedule, depth)
	out := t.Run(sched, muts)
	return out, sched.Trace()
}

// minimize greedily reverts choices to the default, from the end of the
// schedule backwards, keeping any revert that still fails.
func minimize(t Target, muts mutate.Set, b Budget, schedule []int, out *Outcome) *Failure {
	schedule = trimDefaults(schedule)
	for i := len(schedule) - 1; i >= 0; i-- {
		if i >= len(schedule) || schedule[i] == 0 {
			continue
		}
		cand := make([]int, len(schedule))
		copy(cand, schedule)
		cand[i] = 0
		cand = trimDefaults(cand)
		if o := t.Run(NewReplay(cand, b.Depth), muts); o.Failed() {
			schedule, out = cand, o
		}
	}
	_, steps := Replay(t, muts, schedule, b.Depth)
	return &Failure{
		Schedule: schedule, Reason: out.Failure(), Outcome: out,
		Steps: steps[:min(len(steps), len(schedule))],
	}
}

// FormatSchedule renders a schedule as the comma-separated form bulkcheck
// prints and accepts back via -replay.
func FormatSchedule(s []int) string {
	if len(s) == 0 {
		return "(default)"
	}
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ",")
}

// ParseSchedule parses FormatSchedule's comma-separated form.
func ParseSchedule(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "(default)" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		var c int
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &c); err != nil {
			return nil, fmt.Errorf("check: bad schedule element %q", p)
		}
		if c < 0 {
			return nil, fmt.Errorf("check: negative choice %d", c)
		}
		out[i] = c
	}
	return out, nil
}
