package check

import (
	"testing"
)

// TestDefaultScheduleIsNoop is the tentpole invariant: installing a
// scheduler that always takes choice 0 reproduces the nil-scheduler
// execution exactly, for every protocol.
func TestDefaultScheduleIsNoop(t *testing.T) {
	for _, tgt := range SweepTargets() {
		base := tgt.Run(nil, 0)
		if base.Failed() {
			t.Fatalf("%s: default run fails: %s", tgt.Name(), base.Failure())
		}
		replayed := tgt.Run(NewReplay(nil, 64), 0)
		if replayed.Failed() {
			t.Fatalf("%s: default replay fails: %s", tgt.Name(), replayed.Failure())
		}
		if base.Fingerprint != replayed.Fingerprint {
			t.Errorf("%s: default replay diverges from nil-scheduler run (%#x vs %#x)",
				tgt.Name(), replayed.Fingerprint, base.Fingerprint)
		}
	}
}

// TestReplayDeterminism re-executes the same non-default schedule twice and
// expects identical outcomes.
func TestReplayDeterminism(t *testing.T) {
	for _, tgt := range SweepTargets() {
		sched := []int{0, 1, 0, 1, 1}
		a := tgt.Run(NewReplay(sched, 12), 0)
		b := tgt.Run(NewReplay(sched, 12), 0)
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: schedule %v not deterministic (%#x vs %#x)",
				tgt.Name(), sched, a.Fingerprint, b.Fingerprint)
		}
	}
}

// TestRandomWalkIsReplayable: a random walk's recorded schedule, replayed
// deterministically, reproduces the walk's outcome.
func TestRandomWalkIsReplayable(t *testing.T) {
	for _, tgt := range SweepTargets() {
		for seed := uint64(1); seed <= 8; seed++ {
			walk := NewRandomWalk(12, seed, 0.4)
			a := tgt.Run(walk, 0)
			b := tgt.Run(NewReplay(walk.Schedule(), 12), 0)
			if a.Fingerprint != b.Fingerprint {
				t.Errorf("%s: walk seed %d schedule %v does not replay (%#x vs %#x)",
					tgt.Name(), seed, walk.Schedule(), a.Fingerprint, b.Fingerprint)
			}
		}
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	cases := [][]int{nil, {1}, {0, 2, 1}, {3, 0, 0, 5}}
	for _, s := range cases {
		got, err := ParseSchedule(FormatSchedule(s))
		if err != nil {
			t.Fatalf("ParseSchedule(%v): %v", s, err)
		}
		if len(got) != len(trimSlice(s)) {
			t.Errorf("round trip %v -> %v", s, got)
			continue
		}
		for i := range got {
			if got[i] != s[i] {
				t.Errorf("round trip %v -> %v", s, got)
			}
		}
	}
	for _, bad := range []string{"1,x", "0x10", "1x,2", "2 3"} {
		if got, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted garbage as %v", bad, got)
		}
	}
}

func trimSlice(s []int) []int { return s } // schedules in cases carry no trailing zeros

func TestBranchAlt(t *testing.T) {
	// def=1, n=2: choice 0 -> 1 (default), choice 1 -> 0.
	if got := branchAlt(0, 2, 1); got != 1 {
		t.Errorf("branchAlt(0,2,1) = %d", got)
	}
	if got := branchAlt(1, 2, 1); got != 0 {
		t.Errorf("branchAlt(1,2,1) = %d", got)
	}
	// def=0, n=3: choices map to 0,1,2.
	for c, want := range []int{0, 1, 2} {
		if got := branchAlt(c, 3, 0); got != want {
			t.Errorf("branchAlt(%d,3,0) = %d, want %d", c, got, want)
		}
	}
}
