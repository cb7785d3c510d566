package tls

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

// TestSnapshotRestoreRoundTrip mirrors the tm test for the TLS runtime:
// pause the default schedule every few quanta, snapshot at each pause,
// and check the paused run, every restored run, and a run restored from
// recaptured (reused) storage all reproduce the one-shot Run result.
// Mid-run captures hold in-flight tasks: version order, cascaded squash
// state, and per-task write buffers all cross the snapshot boundary.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, sc := range []Scheme{Eager, Lazy, Bulk} {
		t.Run(sc.String(), func(t *testing.T) {
			w := workload.GenerateTLS(smallTLSProfile("mcf"), 91)
			opts := NewOptions(sc)
			ref, err := Run(w, opts)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}

			sys, err := NewSystem(w, opts)
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
