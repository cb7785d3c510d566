package ckpt

import (
	"fmt"
	"testing"

	"bulk/internal/rng"
	"bulk/internal/sig"
	"bulk/internal/trace"
)

// randomCkptWorkload builds an unstructured random episode stream: random
// processor counts, unit mixes, episode lengths, prediction outcomes, and
// address ranges including deliberately hot low lines. Unlike
// GenerateWorkload it has no address-layout discipline, so Bulk signatures
// alias heavily — the "inexact but correct" stress test the tm and tls
// fuzzers run on their runtimes.
func randomCkptWorkload(seed uint64) *Workload {
	root := rng.New(seed)
	procs := 2 + root.Intn(4)
	w := &Workload{Name: fmt.Sprintf("fuzz-%d", seed)}
	for pi := 0; pi < procs; pi++ {
		r := root.Fork()
		fuzzAddr := func() uint64 {
			switch r.Intn(3) {
			case 0: // hot low lines: heavy real conflicts and aliasing
				return uint64(r.Intn(128))
			case 1: // small shared pool
				return sharedWord(r)
			default:
				return privWord(pi, r)
			}
		}
		var units []Unit
		nunits := 1 + r.Intn(8)
		for u := 0; u < nunits; u++ {
			if r.Bool(0.45) {
				// Plain segment (no dep writes outside episodes).
				var ops []trace.Op
				n := 1 + r.Intn(12)
				for i := 0; i < n; i++ {
					k := trace.Read
					if r.Bool(0.4) {
						k = trace.Write
					}
					ops = append(ops, trace.Op{Kind: k, Addr: fuzzAddr(), Think: uint16(r.Intn(4))})
				}
				units = append(units, Unit{Plain: ops})
				continue
			}
			ep := &Episode{MissAddr: fuzzAddr(), PredictOK: r.Bool(0.6)}
			n := 1 + r.Intn(15)
			for i := 0; i < n; i++ {
				k := trace.Read
				switch {
				case r.Bool(0.25):
					k = trace.WriteDep
				case r.Bool(0.3):
					k = trace.Write
				}
				ep.Ops = append(ep.Ops, trace.Op{Kind: k, Addr: fuzzAddr(), Think: uint16(r.Intn(4))})
			}
			units = append(units, Unit{Episode: ep})
		}
		w.Procs = append(w.Procs, ProcStream{Units: units})
	}
	return w
}

// TestFuzzAllModesSerializable runs random episode streams under every
// mode and checks the serial-replay oracle — the ckpt counterpart of the
// tm and tls all-scheme fuzzers.
func TestFuzzAllModesSerializable(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		w := randomCkptWorkload(seed)
		for _, m := range []Mode{Stall, Exact, Bulk} {
			opts := NewOptions(m)
			opts.RestartLimit = 10000
			r, err := Run(w, opts)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, m, err)
			}
			if err := Verify(w, r); err != nil {
				t.Fatalf("seed %d %v: %v", seed, m, err)
			}
		}
	}
}

// TestFuzzBulkTinySignatures stresses the aliasing paths: a signature so
// small almost everything collides. Rollback rates crater performance;
// correctness must not move.
func TestFuzzBulkTinySignatures(t *testing.T) {
	tiny, err := sig.NewConfig("fuzz-tiny", []int{7, 2}, nil, sig.TMAddrBits)
	if err != nil {
		t.Fatal(err)
	}
	var falseRollbacks uint64
	for seed := uint64(1); seed <= 12; seed++ {
		w := randomCkptWorkload(seed)
		opts := NewOptions(Bulk)
		opts.SigConfig = tiny
		opts.RestartLimit = 10000
		r, err := Run(w, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Verify(w, r); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		falseRollbacks += r.Stats.FalseRollbacks
	}
	if falseRollbacks == 0 {
		t.Error("tiny signature produced no false rollbacks across any seed; the aliasing stress is gone")
	}
}

// TestFuzzSmallCaches forces constant eviction (a 64-line cache against
// multi-hundred-word footprints) so the replacement and refill paths run
// under speculation in every mode.
func TestFuzzSmallCaches(t *testing.T) {
	for seed := uint64(40); seed <= 52; seed++ {
		w := randomCkptWorkload(seed)
		for _, m := range []Mode{Stall, Exact, Bulk} {
			opts := NewOptions(m)
			opts.CacheBytes = 4 << 10 // 64 lines
			opts.RestartLimit = 10000
			r, err := Run(w, opts)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, m, err)
			}
			if err := Verify(w, r); err != nil {
				t.Fatalf("seed %d %v: %v", seed, m, err)
			}
		}
	}
}

// FuzzCkptModes is the native fuzz entry: any seed must produce a workload
// that executes serializably under all three modes.
func FuzzCkptModes(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		w := randomCkptWorkload(seed)
		for _, m := range []Mode{Stall, Exact, Bulk} {
			opts := NewOptions(m)
			opts.RestartLimit = 10000
			r, err := Run(w, opts)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, m, err)
			}
			if err := Verify(w, r); err != nil {
				t.Fatalf("seed %d %v: %v", seed, m, err)
			}
		}
	})
}
