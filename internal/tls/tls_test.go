package tls

import (
	"testing"

	"bulk/internal/sig"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

func smallTLSProfile(name string) workload.TLSProfile {
	p, ok := workload.TLSProfileByName(name)
	if !ok {
		panic("unknown profile " + name)
	}
	p.Tasks = 40
	return p
}

func runAndVerify(t *testing.T, w *workload.TLSWorkload, opts Options) *Result {
	t.Helper()
	r, err := Run(w, opts)
	if err != nil {
		t.Fatalf("Run(%v): %v", opts.Scheme, err)
	}
	if err := Verify(w, r); err != nil {
		t.Fatalf("Verify(%v): %v", opts.Scheme, err)
	}
	return r
}

func TestAllSchemesSequentialSemantics(t *testing.T) {
	for _, name := range []string{"bzip2", "crafty", "mcf"} {
		w := workload.GenerateTLS(smallTLSProfile(name), 42)
		for _, sc := range []Scheme{Eager, Lazy, Bulk} {
			r := runAndVerify(t, w, NewOptions(sc))
			if r.Stats.Commits != uint64(len(w.Tasks)) {
				t.Errorf("%s/%v: commits=%d, want %d", name, sc, r.Stats.Commits, len(w.Tasks))
			}
		}
	}
}

func TestAllProfilesBulk(t *testing.T) {
	for _, p := range workload.TLSProfiles() {
		sp := p
		sp.Tasks = 25
		w := workload.GenerateTLS(sp, 7)
		runAndVerify(t, w, NewOptions(Bulk))
	}
}

func TestBulkNoOverlapSlower(t *testing.T) {
	// Without Partial Overlap, the fine-grain parent/child sharing (live-
	// ins) squashes children at nearly every parent commit — the paper
	// reports a 17% geomean loss. Demand more squashes and more cycles.
	w := workload.GenerateTLS(smallTLSProfile("crafty"), 11)
	with := runAndVerify(t, w, NewOptions(Bulk))
	o := NewOptions(Bulk)
	o.PartialOverlap = false
	without := runAndVerify(t, w, o)
	if without.Stats.Squashes <= with.Stats.Squashes {
		t.Errorf("no-overlap squashes (%d) must exceed overlap squashes (%d)",
			without.Stats.Squashes, with.Stats.Squashes)
	}
	if without.Stats.Cycles <= with.Stats.Cycles {
		t.Errorf("no-overlap cycles (%d) must exceed overlap cycles (%d)",
			without.Stats.Cycles, with.Stats.Cycles)
	}
}

func TestEagerFewerOrEqualSquashCyclesThanLazy(t *testing.T) {
	// Eager restarts offending tasks earlier and never squashes correctly
	// forwarded reads, so it should not be slower than Bulk.
	w := workload.GenerateTLS(smallTLSProfile("parser"), 13)
	eager := runAndVerify(t, w, NewOptions(Eager))
	bulk := runAndVerify(t, w, NewOptions(Bulk))
	if eager.Stats.Cycles > bulk.Stats.Cycles*11/10 {
		t.Errorf("Eager (%d cycles) should not be much slower than Bulk (%d)",
			eager.Stats.Cycles, bulk.Stats.Cycles)
	}
}

func TestSpeedupOverSequential(t *testing.T) {
	w := workload.GenerateTLS(smallTLSProfile("twolf"), 5)
	seq, err := RunSequential(w)
	if err != nil {
		t.Fatal(err)
	}
	r := runAndVerify(t, w, NewOptions(Bulk))
	if r.Stats.Cycles >= seq {
		t.Errorf("4-processor TLS (%d cycles) should beat sequential (%d)", r.Stats.Cycles, seq)
	}
	speedup := float64(seq) / float64(r.Stats.Cycles)
	if speedup < 1.05 || speedup > 4 {
		t.Errorf("speedup %.2f outside plausible (1.05, 4)", speedup)
	}
}

func TestFootprintStats(t *testing.T) {
	w := workload.GenerateTLS(smallTLSProfile("crafty"), 3)
	r := runAndVerify(t, w, NewOptions(Bulk))
	if r.AvgReadSetWords() < 60 || r.AvgReadSetWords() > 160 {
		t.Errorf("crafty read set %.1f words implausible vs Table 6's 109", r.AvgReadSetWords())
	}
	if r.AvgWriteSetWords() < 10 || r.AvgWriteSetWords() > 40 {
		t.Errorf("crafty write set %.1f words implausible vs Table 6's 23.2", r.AvgWriteSetWords())
	}
	if r.AvgReadSetWords() <= r.AvgWriteSetWords() {
		t.Error("read sets must exceed write sets")
	}
}

func TestDependenceSquashesHappen(t *testing.T) {
	// mcf has the highest true-dependence probability; squashes must
	// occur under lazy schemes and dependence sets must be non-empty.
	w := workload.GenerateTLS(smallTLSProfile("mcf"), 19)
	r := runAndVerify(t, w, NewOptions(Bulk))
	if r.Stats.Squashes == 0 {
		t.Error("mcf must cause squashes")
	}
	if r.AvgDepSetWords() <= 0 {
		t.Error("dependence sets must be non-empty on real squashes")
	}
}

func TestWordGranularityAvoidsFalseSharing(t *testing.T) {
	// Two tasks writing different words of the same line: at word
	// granularity no squash is needed (beyond the possibility of
	// aliasing); the merge machinery keeps the lines consistent. Build a
	// hand-rolled workload: task 0 writes word 0, task 1 writes word 1 of
	// line 100 and reads nothing of task 0's.
	w := &workload.TLSWorkload{
		Name: "falseshare",
		Tasks: []workload.TLSTask{
			{Ops: []trace.Op{
				{Kind: trace.Write, Addr: 100 * 16, Think: 1},
				{Kind: trace.Read, Addr: 0x900000, Think: 30},
			}, SpawnIndex: 0},
			{Ops: []trace.Op{
				{Kind: trace.Write, Addr: 100*16 + 1, Think: 1},
				{Kind: trace.Read, Addr: 0x910000, Think: 30},
			}, SpawnIndex: 0},
		},
	}
	r := runAndVerify(t, w, NewOptions(Bulk))
	if r.Stats.Squashes != 0 {
		t.Errorf("different-word writes must not squash at word granularity, got %d", r.Stats.Squashes)
	}
}

func TestTrueDependenceSquashes(t *testing.T) {
	// Task 1 reads what task 0 writes post-spawn: every lazy scheme must
	// squash task 1 once, and the final memory must still be sequential.
	w := &workload.TLSWorkload{
		Name: "truedep",
		Tasks: []workload.TLSTask{
			{Ops: []trace.Op{
				{Kind: trace.Read, Addr: 0x800000, Think: 1}, // spawn after this
				{Kind: trace.Read, Addr: 0x800010, Think: 50},
				{Kind: trace.Write, Addr: 500 * 16, Think: 1}, // post-spawn write
			}, SpawnIndex: 0},
			{Ops: []trace.Op{
				{Kind: trace.Read, Addr: 500 * 16, Think: 1}, // reads it too early
				{Kind: trace.WriteDep, Addr: 600 * 16, Think: 1},
			}, SpawnIndex: 0},
		},
	}
	for _, sc := range []Scheme{Eager, Lazy, Bulk} {
		r := runAndVerify(t, w, NewOptions(sc))
		if r.Stats.Squashes == 0 {
			t.Errorf("%v: the true dependence must squash task 1", sc)
		}
	}
}

func TestPartialOverlapSavesLiveIns(t *testing.T) {
	// Task 1 reads only what task 0 wrote before the spawn. With Partial
	// Overlap there must be no squash; without it, the child is squashed
	// at the parent's commit.
	w := &workload.TLSWorkload{
		Name: "livein",
		Tasks: []workload.TLSTask{
			{Ops: []trace.Op{
				{Kind: trace.Write, Addr: 700 * 16, Think: 1}, // pre-spawn
				{Kind: trace.Read, Addr: 0x800020, Think: 80}, // spawn, long tail
				{Kind: trace.Read, Addr: 0x800030, Think: 80},
			}, SpawnIndex: 1},
			{Ops: []trace.Op{
				{Kind: trace.Read, Addr: 700 * 16, Think: 1}, // live-in
				{Kind: trace.WriteDep, Addr: 800 * 16, Think: 1},
			}, SpawnIndex: 0},
		},
	}
	with := runAndVerify(t, w, NewOptions(Bulk))
	if with.Stats.Squashes != 0 {
		t.Errorf("Partial Overlap: live-in read must not squash, got %d", with.Stats.Squashes)
	}
	o := NewOptions(Bulk)
	o.PartialOverlap = false
	without := runAndVerify(t, w, o)
	if without.Stats.Squashes == 0 {
		t.Error("without Partial Overlap the live-in read must squash the child")
	}
}

func TestBulkFalsePositivesWithTinySignature(t *testing.T) {
	w := workload.GenerateTLS(smallTLSProfile("vpr"), 23)
	o := NewOptions(Bulk)
	// 80-bit signature whose first chunk holds exactly the 6 cache-index
	// bits (word-address bits 4..9, brought to the front by the
	// permutation) — decodes exactly, aliases heavily.
	perm := []int{4, 5, 6, 7, 8, 9, 0, 1, 2, 3}
	cfg, err := sig.NewConfig("tiny", []int{6, 4}, perm, sig.TLSAddrBits)
	if err != nil {
		t.Fatal(err)
	}
	o.SigConfig = cfg
	r := runAndVerify(t, w, o)
	if r.Stats.FalseSquashes == 0 {
		t.Error("tiny signature should cause false squashes")
	}
}

func TestMultiVersionRunAhead(t *testing.T) {
	// With MaxVersions=2, processors can start a new task while an old
	// one awaits commit; with 1, they stall. Run-ahead must not be slower
	// and must preserve correctness.
	w := workload.GenerateTLS(smallTLSProfile("gap"), 31)
	multi := runAndVerify(t, w, NewOptions(Bulk))
	single := NewOptions(Bulk)
	single.MaxVersions = 1
	r1 := runAndVerify(t, w, single)
	// Run-ahead usually helps (it hides commit-token stalls) but can cost
	// write-write set conflicts; demand it is at least not catastrophic.
	if multi.Stats.Cycles > r1.Stats.Cycles*12/10 {
		t.Errorf("multi-version (%d cycles) much slower than single (%d)",
			multi.Stats.Cycles, r1.Stats.Cycles)
	}
}

func TestSafeWritebacksOccur(t *testing.T) {
	// Committed tasks leave non-speculative dirty lines that later
	// speculative writes to the same sets must write back first.
	w := workload.GenerateTLS(smallTLSProfile("vortex"), 3)
	r := runAndVerify(t, w, NewOptions(Bulk))
	if r.Stats.SafeWritebacks == 0 {
		t.Error("expected Set Restriction safe writebacks over a full run")
	}
}

func TestEmptyWorkloadRejected(t *testing.T) {
	if _, err := Run(&workload.TLSWorkload{}, NewOptions(Bulk)); err == nil {
		t.Fatal("empty workload must be rejected")
	}
}

func TestSequentialReferenceDeterministic(t *testing.T) {
	w := workload.GenerateTLS(smallTLSProfile("gzip"), 2)
	a := SequentialReference(w)
	b := SequentialReference(w)
	if !a.Equal(b) {
		t.Fatal("sequential reference must be deterministic")
	}
	if a.Len() == 0 {
		t.Fatal("sequential reference must write something")
	}
}

func TestSchemeStrings(t *testing.T) {
	if Eager.String() != "Eager" || Lazy.String() != "Lazy" || Bulk.String() != "Bulk" {
		t.Fatal("strings wrong")
	}
}
