package tm

import (
	"bulk/internal/core"
	"reflect"
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
	if got.RealSquashes != want.RealSquashes {
		t.Fatalf("%s: RealSquashes = %d, want %d", tag, got.RealSquashes, want.RealSquashes)
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
				sn := sys.Snapshot(nil)
				if sn.SizeBytes() <= 0 {
					t.Fatal("snapshot reports a non-positive size")
				}
				snaps = append(snaps, sn)
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
}
