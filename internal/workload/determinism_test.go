package workload

import (
	"reflect"
	"testing"
)

// Workload generation is a pure function of (profile, seed): two fresh
// generators must produce identical access streams, or schedule replay,
// the result cache keyed by (exhibit, config, seed), and every
// byte-identity claim in the tree fall apart. The comparison is over the
// generated structures themselves — every segment's transaction flag and
// section starts, every task's spawn index, and every op's kind, address
// and think time.

func sameTM(a, b *TMWorkload) bool   { return reflect.DeepEqual(a.Threads, b.Threads) }
func sameTLS(a, b *TLSWorkload) bool { return reflect.DeepEqual(a.Tasks, b.Tasks) }

func TestTMGenerationDeterministic(t *testing.T) {
	for _, p := range TMProfiles() {
		for _, seed := range []uint64{2006, 0, 0xdeadbeef} {
			if !sameTM(GenerateTM(p, seed), GenerateTM(p, seed)) {
				t.Fatalf("%s seed %d: two fresh generators disagree", p.Name, seed)
			}
		}
		// Different seeds must actually change the stream (the generator
		// is seeded, not constant).
		if sameTM(GenerateTM(p, 1), GenerateTM(p, 2)) {
			t.Fatalf("%s: seeds 1 and 2 generate identical streams", p.Name)
		}
	}
}

func TestTLSGenerationDeterministic(t *testing.T) {
	for _, p := range TLSProfiles() {
		for _, seed := range []uint64{2006, 0, 0xdeadbeef} {
			if !sameTLS(GenerateTLS(p, seed), GenerateTLS(p, seed)) {
				t.Fatalf("%s seed %d: two fresh generators disagree", p.Name, seed)
			}
		}
		if sameTLS(GenerateTLS(p, 1), GenerateTLS(p, 2)) {
			t.Fatalf("%s: seeds 1 and 2 generate identical streams", p.Name)
		}
	}
}

// FuzzWorkloadLayout drives the determinism property over arbitrary
// (seed, profile, size-override) points instead of the fixed test matrix.
func FuzzWorkloadLayout(f *testing.F) {
	f.Add(uint64(2006), uint8(0), uint8(10))
	f.Add(uint64(1), uint8(3), uint8(1))
	f.Add(uint64(0xffffffffffffffff), uint8(200), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, pick, size uint8) {
		tmProfiles := TMProfiles()
		tp := tmProfiles[int(pick)%len(tmProfiles)]
		tp.TxnsPerThread = int(size%32) + 1
		if !sameTM(GenerateTM(tp, seed), GenerateTM(tp, seed)) {
			t.Fatalf("TM %s seed %d: nondeterministic generation", tp.Name, seed)
		}
		tlsProfiles := TLSProfiles()
		lp := tlsProfiles[int(pick)%len(tlsProfiles)]
		lp.Tasks = int(size%64) + 1
		if !sameTLS(GenerateTLS(lp, seed), GenerateTLS(lp, seed)) {
			t.Fatalf("TLS %s seed %d: nondeterministic generation", lp.Name, seed)
		}
	})
}
