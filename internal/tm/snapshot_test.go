package tm

import (
	"bulk/internal/core"
	"reflect"
	"slices"
	"testing"

	"bulk/internal/workload"
)

// sameResult asserts two results are identical in every observable field,
// including the committed memory image in address order.
func sameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("%s: stats diverged:\n got %+v\nwant %+v", tag, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Log, want.Log) {
		t.Fatalf("%s: commit log diverged (%d vs %d units)", tag, len(got.Log), len(want.Log))
	}
	ga := got.Memory.AppendSortedAddrs(nil)
	wa := want.Memory.AppendSortedAddrs(nil)
	if !reflect.DeepEqual(ga, wa) {
		t.Fatalf("%s: memory footprints diverged (%d vs %d addrs)", tag, len(ga), len(wa))
	}
	for _, a := range wa {
		if got.Memory.Read(a) != want.Memory.Read(a) {
			t.Fatalf("%s: memory[%#x] = %d, want %d", tag, a, got.Memory.Read(a), want.Memory.Read(a))
		}
	}
}

// TestSnapshotRestoreRoundTrip drives a pooled System through the default
// schedule with a pause every few quanta, snapshotting at each pause, and
// checks that (a) the paused-and-finished run equals the one-shot Run
// result, and (b) restoring any snapshot and running to completion
// reproduces that same result — including from a snapshot captured into
// reused storage. Preemption variants put live sections, pair-squash
// state, and spilled signatures inside the captures.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"eager", NewOptions(Eager)},
		{"lazy", NewOptions(Lazy)},
		{"bulk", NewOptions(Bulk)},
		{"bulk-preempt", preemptOpts(Bulk, 10, false)},
		{"bulk-preempt-spill", preemptOpts(Bulk, 10, true)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := workload.GenerateTM(smallProfile("cb"), 91)
			ref, err := Run(w, tc.opts)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}

			sys, err := NewSystem(w, tc.opts)
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			var snaps []*core.Snapshot
			ticks := 0
			for {
				done, err := sys.RunUntil(func() bool { ticks++; return ticks%5 == 0 })
				if err != nil {
					t.Fatalf("RunUntil: %v", err)
				}
				if done {
					break
				}
				snaps = append(snaps, sys.Snapshot(nil))
			}
			sameResult(t, "paused run", sys.Finish(), ref)
			if len(snaps) < 3 {
				t.Fatalf("only %d pause points; the workload is too small to test restore", len(snaps))
			}

			for _, i := range []int{0, len(snaps) / 2, len(snaps) - 1} {
				sys.Restore(snaps[i])
				if _, err := sys.RunUntil(nil); err != nil {
					t.Fatalf("RunUntil after restore %d: %v", i, err)
				}
				sameResult(t, "restored run", sys.Finish(), ref)
			}

			// Re-capture into already-grown storage mid-run and restore from
			// it: the snapshot pool's steady state.
			sys.Restore(snaps[0])
			tk := 0
			done, err := sys.RunUntil(func() bool { tk++; return tk == 7 })
			if err != nil {
				t.Fatalf("RunUntil to recapture point: %v", err)
			}
			if !done {
				reused := sys.Snapshot(snaps[len(snaps)-1])
				if _, err := sys.RunUntil(nil); err != nil {
					t.Fatalf("RunUntil past recapture: %v", err)
				}
				sameResult(t, "run past recapture", sys.Finish(), ref)
				sys.Restore(reused)
				if _, err := sys.RunUntil(nil); err != nil {
					t.Fatalf("RunUntil from reused snapshot: %v", err)
				}
				sameResult(t, "reused-snapshot run", sys.Finish(), ref)
			}
		})
	}

	// A capture taken while a processor is stalled on another's
	// transaction (Eager with the livelock fix) holds a stall and nonzero
	// pair-squash counters, which the run then rewrites in place. Each
	// restore — twice, so a restore that aliases the capture is caught
	// too — must bring back the captured stall and counters and still
	// reproduce the one-shot run.
	t.Run("eager-stall", func(t *testing.T) {
		w := workload.GenerateTM(smallProfile("cb"), 3)
		opts := NewOptions(Eager)
		ref, err := Run(w, opts)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		sys, err := NewSystem(w, opts)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		done, err := sys.RunUntil(func() bool {
			for _, p := range sys.procs {
				if p.stalledOn >= 0 {
					return true
				}
			}
			return false
		})
		if err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		if done {
			t.Fatal("no processor stalled; the case no longer captures a stall")
		}
		sn := sys.Snapshot(nil)
		stalledOn := make([]int, len(sys.procs))
		pairSquash := make([][]int, len(sys.procs))
		for i, p := range sys.procs {
			stalledOn[i] = p.stalledOn
			pairSquash[i] = slices.Clone(p.pairSquash)
		}
		if _, err := sys.RunUntil(nil); err != nil {
			t.Fatalf("RunUntil past the stall: %v", err)
		}
		sameResult(t, "run past the stall", sys.Finish(), ref)
		for range 2 {
			sys.Restore(sn)
			for i, p := range sys.procs {
				if p.stalledOn != stalledOn[i] || !slices.Equal(p.pairSquash, pairSquash[i]) {
					t.Fatalf("proc %d restored stalledOn=%d pairSquash=%v, captured stalledOn=%d pairSquash=%v",
						i, p.stalledOn, p.pairSquash, stalledOn[i], pairSquash[i])
				}
			}
			if _, err := sys.RunUntil(nil); err != nil {
				t.Fatalf("RunUntil after restore: %v", err)
			}
			sameResult(t, "restored from the stall", sys.Finish(), ref)
		}
	})
}
