package tm

import (
	"fmt"
	"testing"

	"bulk/internal/rng"
	"bulk/internal/sig"
	"bulk/internal/sim"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// randomWorkload builds an unstructured random TM workload: random thread
// counts, transaction lengths, address ranges (including deliberately
// overlapping hot words), nesting, and non-transactional stretches. Unlike
// the calibrated profiles, it has no address-layout discipline, so the
// signatures alias heavily — a stress test for "inexact but correct".
func randomWorkload(seed uint64) *workload.TMWorkload {
	r := rng.New(seed)
	threads := 2 + r.Intn(5)
	w := &workload.TMWorkload{Name: fmt.Sprintf("fuzz-%d", seed)}
	for t := 0; t < threads; t++ {
		tr := r.Fork()
		var segs []workload.TMSegment
		nseg := 1 + tr.Intn(6)
		for sgi := 0; sgi < nseg; sgi++ {
			txn := tr.Bool(0.7)
			n := 1 + tr.Intn(25)
			var ops []trace.Op
			for i := 0; i < n; i++ {
				var addr uint64
				switch tr.Intn(3) {
				case 0: // hot words: heavy real conflicts
					addr = uint64(tr.Intn(8))
				case 1: // small shared pool
					addr = 64 + uint64(tr.Intn(256))
				default: // wider space
					addr = uint64(tr.Intn(1 << 22))
				}
				kind := trace.Read
				switch {
				case txn && tr.Bool(0.2):
					kind = trace.WriteDep
				case tr.Bool(0.3):
					kind = trace.Write
				}
				if !txn && kind == trace.WriteDep {
					kind = trace.Write // non-txn code has no dep writes
				}
				ops = append(ops, trace.Op{Kind: kind, Addr: addr, Think: uint16(tr.Intn(4))})
			}
			seg := workload.TMSegment{Txn: txn, Ops: ops}
			if txn {
				seg.Sections = []int{0}
				if len(ops) > 4 && tr.Bool(0.3) {
					seg.Sections = append(seg.Sections, 1+tr.Intn(len(ops)-1))
				}
			}
			segs = append(segs, seg)
		}
		w.Threads = append(w.Threads, workload.TMThread{Segments: segs})
	}
	return w
}

// armed returns o with a probe that fails t on the first soundness,
// hygiene, stale-copy or overflow-filter event, naming it after what. Cache
// lines carry no values, so a stale copy no longer corrupts memory for
// Verify to see: these events are where such faults show. (tm cannot import
// internal/check, whose probe records the same events.)
func armed(t testing.TB, o Options, what string) Options {
	o.Probe = &sim.Probe{
		Conflict: func(ev sim.ConflictEvent) {
			if ev.ExactHit && !ev.SigHit {
				t.Fatalf("%s: %s path missed a real conflict (committer %d, receiver %d)", what, ev.Path, ev.Committer, ev.Receiver)
			}
		},
		Hygiene: func(ev sim.HygieneEvent) {
			if !ev.InWriteSet {
				t.Fatalf("%s: squash of %d bulk-invalidated line %#x outside its write set", what, ev.Owner, ev.Line)
			}
		},
		Stale: func(ev sim.StaleEvent) { t.Fatalf("%s: %v", what, ev) },
	}
	return o
}

// TestFuzzAllSchemesSerializable runs random workloads under every scheme
// and checks the serializability oracle. The random address mix produces
// heavy aliasing under Bulk, real livelock pressure under Eager, and lots
// of squash/restart churn — correctness must hold regardless.
func TestFuzzAllSchemesSerializable(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		w := randomWorkload(seed)
		for _, sc := range []Scheme{Eager, Lazy, Bulk} {
			opts := armed(t, NewOptions(sc), fmt.Sprintf("seed %d %v", seed, sc))
			r, err := Run(w, opts)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, sc, err)
			}
			if r.Stats.LivelockDetected {
				t.Fatalf("seed %d %v: unexpected livelock", seed, sc)
			}
			if err := Verify(w, r); err != nil {
				t.Fatalf("seed %d %v: %v", seed, sc, err)
			}
		}
	}
}

// TestFuzzBulkTinySignatures stresses the aliasing paths: a signature so
// small that almost everything collides. Performance craters; correctness
// must not.
func TestFuzzBulkTinySignatures(t *testing.T) {
	tiny, err := sig.NewConfig("fuzz-tiny", []int{7, 2}, nil, sig.TMAddrBits)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 12; seed++ {
		w := randomWorkload(seed)
		opts := armed(t, NewOptions(Bulk), fmt.Sprintf("seed %d", seed))
		opts.SigConfig = tiny
		opts.RestartLimit = 10000
		r, err := Run(w, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Verify(w, r); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzTMSchemes is the native fuzz entry: any seed must generate a
// workload that runs serializably, with no stale copy, under every scheme.
// Corpus seeds 896 and 1015 pin the Eager stale-copy bug of DESIGN §12.4.
func FuzzTMSchemes(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		w := randomWorkload(seed)
		for _, sc := range []Scheme{Eager, Lazy, Bulk} {
			opts := armed(t, NewOptions(sc), fmt.Sprintf("seed %d %v", seed, sc))
			opts.RestartLimit = 10000
			r, err := Run(w, opts)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, sc, err)
			}
			if err := Verify(w, r); err != nil {
				t.Fatalf("seed %d %v: %v", seed, sc, err)
			}
		}
	})
}

// TestFuzzPartialRollback runs random nested workloads with per-section
// rollback enabled.
func TestFuzzPartialRollback(t *testing.T) {
	for seed := uint64(100); seed <= 118; seed++ {
		w := randomWorkload(seed)
		opts := armed(t, NewOptions(Bulk), fmt.Sprintf("seed %d", seed))
		opts.PartialRollback = true
		r, err := Run(w, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Verify(w, r); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFuzzSmallCachesOverflow forces constant cache overflow (64-line
// cache against 100-line footprints) so eviction, spill, and refill paths
// run constantly.
func TestFuzzSmallCachesOverflow(t *testing.T) {
	p, _ := workload.TMProfileByName("cb")
	p.TxnsPerThread = 4
	p.Threads = 4
	w := workload.GenerateTM(p, 999)
	for _, sc := range []Scheme{Eager, Lazy, Bulk} {
		opts := armed(t, NewOptions(sc), sc.String())
		opts.CacheBytes = 4 << 10 // 64 lines
		r, err := Run(w, opts)
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if err := Verify(w, r); err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if sc != Eager && r.Stats.OverflowAccesses == 0 {
			t.Errorf("%v: expected overflow traffic with a 64-line cache", sc)
		}
	}
}
