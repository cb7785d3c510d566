// Dynamic cross-check of the bulklint noalloc rule: every exported
// //bulklint:noalloc kernel is exercised under testing.AllocsPerRun on a
// warmed structure and must perform zero allocations per call. The harness
// table and the annotation set are checked against each other in both
// directions, so annotating a new exported kernel without adding a harness
// entry (or vice versa) fails this test rather than silently skipping.
package bulk_test

import (
	"testing"

	"bulk/internal/bdm"
	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/check"
	"bulk/internal/ckpt"
	"bulk/internal/core"
	"bulk/internal/flatmap"
	"bulk/internal/lint"
	"bulk/internal/mem"
	"bulk/internal/mutate"
	"bulk/internal/sig"
	"bulk/internal/sim"
	"bulk/internal/tm"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// kernelHarnesses returns one AllocsPerRun body per exported noalloc
// kernel, keyed by "<import path>.<kernel name>". Each body is called many
// times against pre-warmed state: buffers are grown and tables populated
// during setup, since the noalloc contract is about steady-state calls.
func kernelHarnesses(t *testing.T) map[string]func() {
	t.Helper()

	// Signatures: the default TM configuration, pre-populated.
	cfg := sig.DefaultTM()
	s1 := cfg.NewSignature()
	s2 := cfg.NewSignature()
	scr := cfg.NewSignature()
	for a := sig.Addr(0); a < 64; a++ {
		s1.Add(a * 37)
		s2.Add(a * 41)
	}
	encoded := sig.RLEncode(s1)
	encBuf := sig.RLEncodeAppend(nil, s1)
	plan, err := sig.NewDecodePlan(cfg, sig.IndexSpec{LowBit: 0, Bits: 7})
	if err != nil {
		t.Fatalf("NewDecodePlan: %v", err)
	}
	mask := sig.NewSetMask(plan.Index().NumSets())
	mask2 := sig.NewSetMask(plan.Index().NumSets())
	wmp, err := sig.NewWordMaskPlan(cfg, 16)
	if err != nil {
		t.Fatalf("NewWordMaskPlan: %v", err)
	}
	// Word-granularity TM's layout, so Mask runs its Gray-code walk too.
	wordTM := sig.WordTM()
	wordTMSig := wordTM.NewSignature()
	wordTMSig.Add(3*16 + 5)
	wordTMPlan, err := sig.NewWordMaskPlan(wordTM, 16)
	if err != nil {
		t.Fatalf("NewWordMaskPlan: %v", err)
	}

	// Flat map and set, warmed past their final capacity.
	var fm flatmap.Map[uint64]
	var fs flatmap.Set
	for k := uint64(0); k < 200; k++ {
		fm.Put(k, k+1)
		fs.Add(k)
	}
	keyBuf := fm.SortedKeys(nil)

	// An exact footprint that has read and written every word it is
	// asked about, so each access finds its line and its block.
	var fp core.Footprint
	for w := uint64(0); w < 64; w++ {
		fp.WriteShadow(w, w)
		fp.Read(w)
	}

	// Cache with a mix of clean and dirty resident lines.
	c := cache.MustNew(1<<15, 4, 64)
	for i := 0; i < 64; i++ {
		st := cache.Clean
		if i%2 == 0 {
			st = cache.Dirty
		}
		c.Insert(cache.LineAddr(i), st)
	}
	lineBuf := c.LinesInSet(0, nil)
	setMaskBuf := make([]uint64, (c.NumSets()+63)/64)
	// A second cache for Reset, refilled after each reset.
	c2 := cache.MustNew(1<<15, 4, 64)
	// A one-set cache whose every Insert evicts, so the harness measures
	// the victim path.
	ci := cache.MustNew(2*64, 2, 64)
	var insAddr cache.LineAddr

	// Memory and overflow area.
	m := mem.NewMemory()
	m.Write(100, 7)
	addrBuf := m.AppendSortedAddrs(nil)
	ov := mem.NewOverflowArea()
	ov.Spill(5)
	ov2 := mem.NewOverflowArea()

	// An engine, a BDM whose version is allocated before each reset, and
	// a TM system that has run once, for the Reset kernels.
	eng := sim.NewEngine(4)
	md := bdm.MustNew(bdm.Config{Sig: cfg, Index: sig.IndexSpec{Bits: c2.IndexBits()}, MaxVersions: 1}, c2)
	tmw := &workload.TMWorkload{Threads: []workload.TMThread{{Segments: []workload.TMSegment{{Txn: true, Ops: []trace.Op{{Kind: trace.Write, Addr: 64}}}}}}}
	tms, err := tm.NewSystem(tmw, tm.NewOptions(tm.Bulk))
	if err != nil {
		t.Fatalf("tm.NewSystem: %v", err)
	}
	if _, err := tms.Run(); err != nil {
		t.Fatalf("tm run: %v", err)
	}

	// Replay scheduler.
	schedPrefix := []int{1, 0, 2}
	rs := check.NewReplay(schedPrefix, 16)

	var bw bus.Bandwidth

	muts := mutate.Of(mutate.DropWRTerm, mutate.SkipWordMerge)

	return map[string]func(){
		"bulk/internal/mutate.Set.Has":              func() { _ = muts.Has(mutate.DropWRTerm) },
		"bulk/internal/sig.Signature.Add":           func() { s1.Add(1234) },
		"bulk/internal/sig.Signature.Contains":      func() { _ = s1.Contains(1234) },
		"bulk/internal/sig.Signature.Empty":         func() { _ = s1.Empty() },
		"bulk/internal/sig.Signature.Zero":          func() { _ = s1.Zero() },
		"bulk/internal/sig.Signature.Clear":         func() { scr.Clear() },
		"bulk/internal/sig.Signature.CopyFrom":      func() { scr.CopyFrom(s1) },
		"bulk/internal/sig.Signature.IntersectWith": func() { scr.IntersectWith(s2) },
		"bulk/internal/sig.Signature.UnionWith":     func() { scr.UnionWith(s2) },
		"bulk/internal/sig.Signature.Intersects":    func() { _ = s1.Intersects(s2) },
		"bulk/internal/sig.RLEncodedBits":           func() { _ = sig.RLEncodedBits(s1) },
		"bulk/internal/sig.RLEncodeAppend":          func() { encBuf = sig.RLEncodeAppend(encBuf[:0], s1) },
		"bulk/internal/sig.RLDecodeInto": func() {
			if err := sig.RLDecodeInto(scr, encoded); err != nil {
				t.Fatal(err)
			}
		},
		"bulk/internal/sig.SetMask.Set":           func() { mask.Set(3) },
		"bulk/internal/sig.SetMask.ClearSet":      func() { mask.ClearSet(3) },
		"bulk/internal/sig.SetMask.Has":           func() { _ = mask.Has(3) },
		"bulk/internal/sig.SetMask.Clear":         func() { mask2.Clear() },
		"bulk/internal/sig.SetMask.OrWith":        func() { mask2.OrWith(mask) },
		"bulk/internal/sig.SetMask.Count":         func() { _ = mask.Count() },
		"bulk/internal/sig.DecodePlan.DecodeInto": func() { plan.DecodeInto(s1, mask) },
		"bulk/internal/sig.WordMaskPlan.Mask":     func() { _ = wmp.Mask(s1, 3); _ = wordTMPlan.Mask(wordTMSig, 3) },

		"bulk/internal/flatmap.Map.Get":        func() { _, _ = fm.Get(42) },
		"bulk/internal/flatmap.Map.Has":        func() { _ = fm.Has(42) },
		"bulk/internal/flatmap.Map.Put":        func() { fm.Put(42, 99) },
		"bulk/internal/flatmap.Map.Lookup":     func() { *fm.Lookup(42)++ },
		"bulk/internal/flatmap.Map.Upsert":     func() { *fm.Upsert(43)++ },
		"bulk/internal/flatmap.Map.Delete":     func() { fm.Delete(9999) },
		"bulk/internal/flatmap.Map.Reset":      func() { fm.Reset(); fm.Put(42, 1) },
		"bulk/internal/flatmap.Map.SortedKeys": func() { keyBuf = fm.SortedKeys(keyBuf[:0]) },
		"bulk/internal/flatmap.Set.Has":        func() { _ = fs.Has(42) },
		"bulk/internal/flatmap.Set.Add":        func() { fs.Add(42) },
		"bulk/internal/flatmap.Set.Reset":      func() { fs.Reset(); fs.Add(42) },
		"bulk/internal/flatmap.Set.SortedKeys": func() { keyBuf = fs.SortedKeys(keyBuf[:0]) },

		"bulk/internal/cache.Cache.Lookup":          func() { _ = c.Lookup(3) },
		"bulk/internal/cache.Cache.Contains":        func() { _ = c.Contains(3) },
		"bulk/internal/cache.Cache.Access":          func() { _ = c.Access(3) },
		"bulk/internal/cache.Cache.MarkClean":       func() { c.MarkClean(2) },
		"bulk/internal/cache.Cache.MarkDirty":       func() { c.MarkDirty(0) },
		"bulk/internal/cache.Cache.Invalidate":      func() { c.Invalidate(1); c.Insert(1, cache.Clean) },
		"bulk/internal/cache.Cache.LinesInSet":      func() { lineBuf = c.LinesInSet(0, lineBuf[:0]) },
		"bulk/internal/cache.Cache.DirtyInSet":      func() { _ = c.DirtyInSet(0) },
		"bulk/internal/cache.Cache.DirtyLinesInSet": func() { lineBuf = c.DirtyLinesInSet(0, lineBuf[:0]) },
		"bulk/internal/cache.Cache.AndValidSets": func() {
			for i := range setMaskBuf {
				setMaskBuf[i] = ^uint64(0)
			}
			c.AndValidSets(setMaskBuf)
		},
		"bulk/internal/cache.Cache.AndDirtySets": func() { c.AndDirtySets(setMaskBuf) },
		"bulk/internal/cache.Cache.Reset":        func() { c2.Reset(); c2.Insert(3, cache.Dirty) },
		"bulk/internal/cache.Cache.Insert":       func() { insAddr++; ci.Insert(insAddr, cache.Clean) },

		"bulk/internal/mem.Memory.Read":                     func() { _ = m.Read(100) },
		"bulk/internal/mem.Memory.Write":                    func() { m.Write(100, 7) },
		"bulk/internal/mem.Memory.Reset":                    func() { m.Reset(); m.Write(100, 7) },
		"bulk/internal/mem.Memory.AppendSortedAddrs":        func() { addrBuf = m.AppendSortedAddrs(addrBuf[:0]) },
		"bulk/internal/mem.OverflowArea.Fetch":              func() { _ = ov.Fetch(5) },
		"bulk/internal/mem.OverflowArea.DisambiguationScan": func() { _ = ov.DisambiguationScan(5) },
		"bulk/internal/mem.OverflowArea.Reset":              func() { ov2.Reset() },

		"bulk/internal/sim.Engine.Reset": func() { eng.Advance(1, 5); eng.Reset() },
		"bulk/internal/bdm.Module.Reset": func() {
			if _, err := md.AllocVersion(1); err != nil {
				t.Fatal(err)
			}
			md.Reset()
		},
		"bulk/internal/core.Machine.Reset": func() { tms.Reset() },

		"bulk/internal/check.ReplayScheduler.Reset": func() { rs.Reset(schedPrefix, 16) },

		"bulk/internal/bus.Bandwidth.Record":       func() { bw.Record(bus.Inv, 12) },
		"bulk/internal/bus.Bandwidth.RecordN":      func() { bw.RecordN(bus.WB, 76, 3) },
		"bulk/internal/bus.Bandwidth.RecordCommit": func() { bw.RecordCommit(40) },

		"bulk/internal/core.LineOf":                func() { _ = core.LineOf(0x12345) },
		"bulk/internal/core.WordBit":               func() { _ = core.WordBit(0x12345) },
		"bulk/internal/core.Footprint.Read":        func() { _, _ = fp.Read(21) },
		"bulk/internal/core.Footprint.Write":       func() { fp.Write(22, 7) },
		"bulk/internal/core.Footprint.WriteShadow": func() { fp.WriteShadow(23, 8) },
		"bulk/internal/core.Footprint.Value":       func() { _, _ = fp.Value(24) },
		"bulk/internal/core.Footprint.Line":        func() { _ = fp.Line(1) },
	}
}

func TestNoallocKernelsAllocFree(t *testing.T) {
	pkgs, _, err := lint.LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	kernels := lint.NoallocKernels(pkgs)
	if len(kernels) == 0 {
		t.Fatal("no //bulklint:noalloc kernels found in the module")
	}

	harness := kernelHarnesses(t)
	covered := map[string]bool{}
	for _, k := range kernels {
		if !k.Exported {
			continue // unexported kernels are covered by the static rule only
		}
		key := k.Pkg + "." + k.Name
		fn, ok := harness[key]
		if !ok {
			t.Errorf("exported noalloc kernel %s has no AllocsPerRun harness entry", key)
			continue
		}
		covered[key] = true
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", key, allocs)
		}
	}
	for key := range harness {
		if !covered[key] {
			t.Errorf("harness entry %s matches no exported //bulklint:noalloc kernel", key)
		}
	}
}

// TestGenerateAllocBound bounds the workload generators' allocations. A
// generated task, transaction, non-transactional stretch or ckpt unit
// costs at most two (its ops and, for a transaction, its section
// starts), and each thread or processor at most 32 for its forked stream
// and its scratch, which every unit of the thread reuses. A generator
// that allocates per access (a per-task dedup map, a slice regrown by
// append) breaks the bound long before it changes a generated byte.
func TestGenerateAllocBound(t *testing.T) {
	lu, crafty := luProfile(t), craftyProfile(t)
	const procs, episodes = 8, 10
	cases := []struct {
		name           string
		units, streams int
		gen            func()
	}{
		{"tm-lu", 2 * lu.Threads * lu.TxnsPerThread, lu.Threads, func() { workload.GenerateTM(lu, 1) }},
		{"tls-crafty", crafty.Tasks, 1, func() { workload.GenerateTLS(crafty, 1) }},
		{"ckpt", 2 * procs * episodes, procs, func() { ckpt.GenerateWorkload(procs, episodes, 0.92, 1) }},
	}
	for _, c := range cases {
		limit := 2*c.units + 32*c.streams
		if allocs := testing.AllocsPerRun(5, c.gen); allocs > float64(limit) {
			t.Errorf("%s: %.0f allocations per generated workload, want at most %d (2 per unit over %d units, 32 per stream over %d)",
				c.name, allocs, limit, c.units, c.streams)
		}
	}
}
