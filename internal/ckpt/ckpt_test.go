package ckpt

import (
	"strings"
	"testing"

	"bulk/internal/sig"
)

func runAndVerify(t *testing.T, w *Workload, opts Options) *Result {
	t.Helper()
	r, err := Run(w, opts)
	if err != nil {
		t.Fatalf("Run(%v): %v", opts.Mode, err)
	}
	if err := Verify(w, r); err != nil {
		t.Fatalf("Verify(%v): %v", opts.Mode, err)
	}
	return r
}

func TestAllModesCorrect(t *testing.T) {
	w := GenerateWorkload(4, 12, 0.9, 42)
	for _, m := range []Mode{Stall, Exact, Bulk} {
		r := runAndVerify(t, w, NewOptions(m))
		if r.Stats.Episodes == 0 {
			t.Errorf("%v: no episodes committed", m)
		}
	}
}

func TestSpeculationBeatsStalling(t *testing.T) {
	// With a high prediction rate, checkpointed execution hides the long
	// misses and must beat the stall baseline clearly.
	w := GenerateWorkload(4, 16, 0.95, 7)
	stall := runAndVerify(t, w, NewOptions(Stall))
	exact := runAndVerify(t, w, NewOptions(Exact))
	bulk := runAndVerify(t, w, NewOptions(Bulk))
	if exact.Stats.Cycles >= stall.Stats.Cycles {
		t.Errorf("Exact speculation (%d cycles) must beat stalling (%d)",
			exact.Stats.Cycles, stall.Stats.Cycles)
	}
	if bulk.Stats.Cycles >= stall.Stats.Cycles {
		t.Errorf("Bulk speculation (%d cycles) must beat stalling (%d)",
			bulk.Stats.Cycles, stall.Stats.Cycles)
	}
	// Bulk pays for aliasing; it must not beat Exact by more than noise.
	if bulk.Stats.Cycles*100 < exact.Stats.Cycles*95 {
		t.Errorf("Bulk (%d) should not be meaningfully faster than Exact (%d)",
			bulk.Stats.Cycles, exact.Stats.Cycles)
	}
}

func TestMispredictionsRollBack(t *testing.T) {
	// Predictions always fail: every episode must roll back once and then
	// retry non-speculatively; correctness must hold.
	w := GenerateWorkload(2, 8, 0.0, 11)
	r := runAndVerify(t, w, NewOptions(Exact))
	if r.Stats.MispredictRollbacks == 0 {
		t.Fatal("expected misprediction rollbacks with predictRate=0")
	}
	if r.Stats.Episodes == 0 {
		t.Fatal("episodes must still commit via the retry path")
	}
	// With 0% prediction, speculation buys nothing over stalling.
	stall := runAndVerify(t, w, NewOptions(Stall))
	if r.Stats.Cycles < stall.Stats.Cycles*9/10 {
		t.Errorf("all-mispredict speculation (%d) should not beat stalling (%d)",
			r.Stats.Cycles, stall.Stats.Cycles)
	}
}

func TestBulkAliasingCausesFalseRollbacks(t *testing.T) {
	// A tiny signature must produce false rollbacks; Exact must not.
	w := GenerateWorkload(6, 14, 0.95, 13)
	exact := runAndVerify(t, w, NewOptions(Exact))
	if exact.Stats.FalseRollbacks != 0 {
		t.Fatalf("Exact mode cannot have false rollbacks, got %d", exact.Stats.FalseRollbacks)
	}
	o := NewOptions(Bulk)
	tiny, err := sig.NewConfig("tiny", []int{7, 2}, nil, sig.TMAddrBits)
	if err != nil {
		t.Fatal(err)
	}
	o.SigConfig = tiny
	bulk := runAndVerify(t, w, o)
	if bulk.Stats.FalseRollbacks == 0 {
		t.Error("tiny signature should cause false rollbacks")
	}
	if bulk.Stats.Cycles <= exact.Stats.Cycles {
		t.Error("aliasing rollbacks must cost cycles")
	}
}

func TestConflictsDetected(t *testing.T) {
	// High shared traffic: plain writes must occasionally hit running
	// episodes' read sets and roll them back.
	w := GenerateWorkload(8, 16, 1.0, 17)
	r := runAndVerify(t, w, NewOptions(Exact))
	if r.Stats.ConflictRollbacks == 0 {
		t.Error("expected conflict rollbacks from shared plain writes")
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a := GenerateWorkload(3, 5, 0.5, 99)
	b := GenerateWorkload(3, 5, 0.5, 99)
	if len(a.Procs) != len(b.Procs) {
		t.Fatal("proc counts differ")
	}
	for i := range a.Procs {
		if len(a.Procs[i].Units) != len(b.Procs[i].Units) {
			t.Fatalf("proc %d unit counts differ", i)
		}
		for j := range a.Procs[i].Units {
			ua, ub := a.Procs[i].Units[j], b.Procs[i].Units[j]
			if (ua.Episode == nil) != (ub.Episode == nil) {
				t.Fatalf("unit %d/%d kind differs", i, j)
			}
			if ua.Episode != nil && ua.Episode.MissAddr != ub.Episode.MissAddr {
				t.Fatalf("unit %d/%d miss addr differs", i, j)
			}
		}
	}
}

func TestEmptyWorkloadRejected(t *testing.T) {
	if _, err := Run(&Workload{}, NewOptions(Bulk)); err == nil {
		t.Fatal("empty workload must be rejected")
	}
}

func TestModeStrings(t *testing.T) {
	if Stall.String() != "Stall" || Exact.String() != "Exact" || Bulk.String() != "Bulk" {
		t.Fatal("mode strings wrong")
	}
}

func TestFuzzSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		w := GenerateWorkload(2+int(seed%5), 6, float64(seed%4)*0.3, seed)
		for _, m := range []Mode{Stall, Exact, Bulk} {
			r, err := Run(w, NewOptions(m))
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, m, err)
			}
			if err := Verify(w, r); err != nil {
				t.Fatalf("seed %d %v: %v", seed, m, err)
			}
		}
	}
}

// TestRestartLimitBoundsEpisodes: an episode that restarts RestartLimit
// times stops the run with an error instead of retrying forever. Every
// prediction fails here, so each episode restarts once.
func TestRestartLimitBoundsEpisodes(t *testing.T) {
	w := GenerateWorkload(2, 3, 0, 5)
	opts := NewOptions(Bulk)
	opts.RestartLimit = 1
	if _, err := Run(w, opts); err == nil || !strings.Contains(err.Error(), "restarted an episode") {
		t.Fatalf("Run with RestartLimit 1 and no correct predictions: err = %v", err)
	}
	opts.RestartLimit = 2
	if _, err := Run(w, opts); err != nil {
		t.Fatalf("Run with room for one restart per episode: %v", err)
	}
}
