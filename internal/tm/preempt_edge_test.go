package tm

import (
	"fmt"
	"testing"

	"bulk/internal/sim"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

func preemptWorkload() *workload.TMWorkload {
	// t0: a four-op transaction with think time, so every op boundary is a
	// distinct preemption opportunity; t1 writes t0's read target with a
	// think delay that lands the commit inside a typical pause window.
	return &workload.TMWorkload{Name: "preempt-edge", Threads: []workload.TMThread{
		{Segments: []workload.TMSegment{{Txn: true, Sections: []int{0}, Ops: []trace.Op{
			{Kind: trace.Read, Addr: 0x1000 * 16, Think: 40},
			{Kind: trace.Read, Addr: 0x2000 * 16, Think: 40},
			{Kind: trace.WriteDep, Addr: 0x3000 * 16, Think: 40},
			{Kind: trace.WriteDep, Addr: 0x3000*16 + 1, Think: 40},
		}}}},
		{Segments: []workload.TMSegment{{Txn: true, Sections: []int{0}, Ops: []trace.Op{
			{Kind: trace.Write, Addr: 0x1000 * 16, Think: 300},
		}}}},
	}}
}

// TestPreemptAtEveryBoundary forces a preemption at each successive op
// boundary — including the final one, where the pause lands between the
// transaction's last op and its commit — and requires serializability at
// every landing point, with and without signature spilling.
func TestPreemptAtEveryBoundary(t *testing.T) {
	w := preemptWorkload()
	for _, spill := range []bool{false, true} {
		for at := 0; at < 8; at++ {
			sched := &sim.ForcePreempt{FireAt: at}
			opts := armed(t, NewOptions(Bulk), fmt.Sprintf("spill=%v boundary %d", spill, at))
			opts.PreemptEvery = 1 << 20 // policy never fires; only injections do
			opts.PreemptPause = 700
			opts.SpillOnPreempt = spill
			opts.Scheduler = sched
			r, err := Run(w, opts)
			if err != nil {
				t.Fatalf("spill=%v boundary %d: %v", spill, at, err)
			}
			if err := Verify(w, r); err != nil {
				t.Fatalf("spill=%v boundary %d: %v", spill, at, err)
			}
			if sched.Fired && r.Stats.Preemptions == 0 {
				t.Fatalf("spill=%v boundary %d: scheduler fired but no preemption counted", spill, at)
			}
			if !sched.Fired {
				// The transaction ran out of boundaries before index at;
				// later indices are redundant.
				break
			}
		}
	}
}

// TestPreemptSpilledTransactionDoomed: with the signatures spilled, t1's
// commit during the pause must disambiguate against the in-memory
// signatures and doom the paused transaction, which restarts at resume.
func TestPreemptSpilledTransactionDoomed(t *testing.T) {
	w := preemptWorkload()
	opts := armed(t, NewOptions(Bulk), "spill")
	opts.PreemptEvery = 2 // fires at the second op boundary (~t=90)
	opts.PreemptPause = 800
	opts.SpillOnPreempt = true
	r, err := Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(w, r); err != nil {
		t.Fatal(err)
	}
	if r.Stats.Preemptions == 0 {
		t.Fatal("policy preemption did not fire")
	}
	if r.Stats.DoomedOnResume == 0 {
		t.Error("commit during the pause should doom the spilled transaction")
	}
}

// TestPreemptWithSaturatedOverflowBit: a direct-mapped 64-line cache makes
// the transaction evict its own dirty speculative lines (setting the
// version's sticky O bit and populating the overflow area) before a
// spilling preemption lands. Spill, interloper perturbation, reload, and
// commit must all preserve serializability, and the overflow traffic must
// actually have happened.
func TestPreemptWithSaturatedOverflowBit(t *testing.T) {
	// Five dirty lines in one cache set (line index = line mod 64 under a
	// 64-line direct-mapped cache) force dirty evictions; the reads after
	// the preemption boundary refetch evicted data through the overflow
	// filter while the O bit is saturated.
	var ops []trace.Op
	for i := uint64(0); i < 5; i++ {
		ops = append(ops, trace.Op{Kind: trace.WriteDep, Addr: (0x1000 + i*64) * 16, Think: 10})
	}
	for i := uint64(0); i < 5; i++ {
		ops = append(ops, trace.Op{Kind: trace.Read, Addr: (0x1000 + i*64) * 16, Think: 10})
	}
	w := &workload.TMWorkload{Name: "overflow-preempt", Threads: []workload.TMThread{
		{Segments: []workload.TMSegment{{Txn: true, Sections: []int{0}, Ops: ops}}},
		{Segments: []workload.TMSegment{{Txn: true, Sections: []int{0}, Ops: []trace.Op{
			{Kind: trace.Write, Addr: 0x5000 * 16, Think: 200},
		}}}},
	}}
	opts := armed(t, NewOptions(Bulk), "direct-mapped")
	opts.CacheBytes = 4 << 10
	opts.CacheWays = 1
	opts.PreemptEvery = 6 // after the writes, amid the refetching reads
	opts.PreemptPause = 600
	opts.SpillOnPreempt = true
	r, err := Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(w, r); err != nil {
		t.Fatal(err)
	}
	if r.Stats.OverflowAccesses == 0 {
		t.Error("the direct-mapped cache produced no overflow traffic; the O bit was never exercised")
	}
	if r.Stats.Preemptions == 0 {
		t.Error("preemption did not fire")
	}
}

// TestPreemptFuzzAsserted sweeps random workloads under aggressive
// preemption policies and holds them all to the sequential oracle — the
// asserted-stats runs above stay honest against the same baseline.
func TestPreemptFuzzAsserted(t *testing.T) {
	var preemptions, doomed uint64
	for seed := uint64(300); seed <= 315; seed++ {
		w := randomWorkload(seed)
		for _, spill := range []bool{false, true} {
			opts := armed(t, NewOptions(Bulk), fmt.Sprintf("seed %d spill=%v", seed, spill))
			opts.PreemptEvery = 3
			opts.PreemptPause = 250
			opts.SpillOnPreempt = spill
			opts.RestartLimit = 10000
			r, err := Run(w, opts)
			if err != nil {
				t.Fatalf("seed %d spill=%v: %v", seed, spill, err)
			}
			if err := Verify(w, r); err != nil {
				t.Fatalf("seed %d spill=%v: %v", seed, spill, err)
			}
			preemptions += r.Stats.Preemptions
			doomed += r.Stats.DoomedOnResume
		}
	}
	if preemptions == 0 {
		t.Error("no preemptions across any seed")
	}
	if doomed == 0 {
		t.Error("no spilled transaction was ever doomed; the in-memory disambiguation path is idle")
	}
}
