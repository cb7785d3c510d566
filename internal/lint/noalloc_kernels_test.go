package lint

import (
	"fmt"
	"sort"
	"testing"
)

// TestNoallocKernelSetPinned pins the module's annotated kernel set: the
// noalloc rebuild on top of the effect engine must discover exactly the
// kernels the bespoke traversal did. Adding or removing an annotation is a
// deliberate act — update this list in the same change.
func TestNoallocKernelSetPinned(t *testing.T) {
	pkgs, _, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	var got []string
	for _, k := range NoallocKernels(pkgs) {
		got = append(got, fmt.Sprintf("%s.%s exported=%v", k.Pkg, k.Name, k.Exported))
	}
	sort.Strings(got)

	want := []string{
		"bulk/internal/bus.Bandwidth.Record exported=true",
		"bulk/internal/bus.Bandwidth.RecordCommit exported=true",
		"bulk/internal/bus.Bandwidth.RecordN exported=true",
		"bulk/internal/cache.Cache.Access exported=true",
		"bulk/internal/cache.Cache.AndDirtySets exported=true",
		"bulk/internal/cache.Cache.AndValidSets exported=true",
		"bulk/internal/cache.Cache.Contains exported=true",
		"bulk/internal/cache.Cache.CopyFrom exported=true",
		"bulk/internal/cache.Cache.DirtyInSet exported=true",
		"bulk/internal/cache.Cache.DirtyLinesInSet exported=true",
		"bulk/internal/cache.Cache.LinesInSet exported=true",
		"bulk/internal/cache.Cache.Lookup exported=true",
		"bulk/internal/cache.Cache.MarkClean exported=true",
		"bulk/internal/cache.Cache.MarkDirty exported=true",
		"bulk/internal/cache.copyLine exported=false",
		"bulk/internal/check.ReplayScheduler.Reset exported=true",
		"bulk/internal/check.ReplayScheduler.Resume exported=true",
		"bulk/internal/check.choicesMatch exported=false",
		"bulk/internal/check.hashSchedule exported=false",
		"bulk/internal/check.hashStep exported=false",
		"bulk/internal/ckpt.System.recordRead exported=false",
		"bulk/internal/core.LineOf exported=true",
		"bulk/internal/flatmap.Map.CopyFrom exported=true",
		"bulk/internal/flatmap.Map.Delete exported=true",
		"bulk/internal/flatmap.Map.Get exported=true",
		"bulk/internal/flatmap.Map.Has exported=true",
		"bulk/internal/flatmap.Map.Put exported=true",
		"bulk/internal/flatmap.Map.Reset exported=true",
		"bulk/internal/flatmap.Map.SortedKeys exported=true",
		"bulk/internal/flatmap.Set.Add exported=true",
		"bulk/internal/flatmap.Set.CopyFrom exported=true",
		"bulk/internal/flatmap.Set.Delete exported=true",
		"bulk/internal/flatmap.Set.Has exported=true",
		"bulk/internal/flatmap.Set.Reset exported=true",
		"bulk/internal/flatmap.Set.SortedKeys exported=true",
		"bulk/internal/flatmap.Sharded.shardOf exported=false",
		"bulk/internal/mem.Memory.AppendSortedAddrs exported=true",
		"bulk/internal/mem.Memory.CopyFrom exported=true",
		"bulk/internal/mem.Memory.Read exported=true",
		"bulk/internal/mem.Memory.Write exported=true",
		"bulk/internal/mem.OverflowArea.DisambiguationScan exported=true",
		"bulk/internal/mem.OverflowArea.Fetch exported=true",
		"bulk/internal/mutate.Set.Has exported=true",
		"bulk/internal/sig.DecodePlan.DecodeInto exported=true",
		"bulk/internal/sig.RLDecodeInto exported=true",
		"bulk/internal/sig.RLEncodeAppend exported=true",
		"bulk/internal/sig.RLEncodedBits exported=true",
		"bulk/internal/sig.SetMask.Clear exported=true",
		"bulk/internal/sig.SetMask.ClearSet exported=true",
		"bulk/internal/sig.SetMask.CopyFrom exported=true",
		"bulk/internal/sig.SetMask.Count exported=true",
		"bulk/internal/sig.SetMask.Has exported=true",
		"bulk/internal/sig.SetMask.OrWith exported=true",
		"bulk/internal/sig.SetMask.Set exported=true",
		"bulk/internal/sig.Signature.Add exported=true",
		"bulk/internal/sig.Signature.Clear exported=true",
		"bulk/internal/sig.Signature.Contains exported=true",
		"bulk/internal/sig.Signature.CopyFrom exported=true",
		"bulk/internal/sig.Signature.Empty exported=true",
		"bulk/internal/sig.Signature.IntersectWith exported=true",
		"bulk/internal/sig.Signature.Intersects exported=true",
		"bulk/internal/sig.Signature.UnionWith exported=true",
		"bulk/internal/sig.Signature.Zero exported=true",
		"bulk/internal/sig.WordMaskPlan.Mask exported=true",
		"bulk/internal/tls.System.mergeLine exported=false",
		"bulk/internal/tm.System.mergeLine exported=false",
		"bulk/internal/tm.proc.bufLookup exported=false",
		"bulk/internal/tm.proc.inReadSet exported=false",
		"bulk/internal/tm.proc.inWriteSet exported=false",
		"bulk/internal/tm.proc.readWord exported=false",
		"bulk/internal/tm.proc.unionReadLines exported=false",
		"bulk/internal/tm.proc.unionWriteLines exported=false",
		"bulk/internal/tm.proc.wroteWord exported=false",
	}
	if len(got) != len(want) {
		t.Fatalf("kernel count = %d, want %d\ngot: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("kernel[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
