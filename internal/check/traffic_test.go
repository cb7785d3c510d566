package check

import "testing"

// TestSnapCacheTraffic pins that exploration actually exercises the
// snapshot cache: the differential tests prove reports are identical with
// and without it, so without a traffic check a capture-policy regression
// that silently disables caching (and with it the whole speedup) would
// pass the suite. The small budget finishes several full waves, so rows at
// snapCaptureDepth or less both deposit captures and resume from them.
func TestSnapCacheTraffic(t *testing.T) {
	_, _, st, err := explore(SweepTargets()[0], 0, SmallBudget(), 1, nil, false, snapCacheBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hits=%d misses=%d inserts=%d evictions=%d retires=%d",
		st.Hits, st.Misses, st.Inserts, st.Evictions, st.Retires)
	if st.Inserts == 0 {
		t.Fatal("no fork-point captures were deposited; the capture policy is disabled")
	}
	if st.Hits == 0 {
		t.Fatal("no schedule resumed from a cached fork point; every run replayed from the root")
	}
}
