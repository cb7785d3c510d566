package tls

import (
	"testing"

	"bulk/internal/core"
	"bulk/internal/workload"
)

// TestResetRerunJudgesIdentically: a system reset after a judged run
// judges a rerun exactly as the first run — same digest, oracle clean —
// under every scheme.
func TestResetRerunJudgesIdentically(t *testing.T) {
	w := workload.GenerateTLS(smallTLSProfile("crafty"), 3)
	for _, sc := range []Scheme{Eager, Lazy, Bulk} {
		s, err := NewSystem(w, NewOptions(sc))
		if err != nil {
			t.Fatal(err)
		}
		var digests [2]core.Digest
		for i := range digests {
			s.Reset()
			if _, err := s.RunUntil(nil); err != nil {
				t.Fatal(err)
			}
			digests[i] = core.NewDigest()
			if err := s.Judge(&digests[i]); err != nil {
				t.Fatalf("%v run %d: %v", sc, i, err)
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%v: rerun after Reset judged %#x, first run %#x", sc, digests[1], digests[0])
		}
	}
}
