package bdm

import (
	"testing"

	"bulk/internal/cache"
	"bulk/internal/rng"
	"bulk/internal/sig"
)

// tmModule builds a TM-style module: line-granularity S14, 32KB/4-way/64B
// cache (128 sets), as in Table 5.
func tmModule(t testing.TB, versions int) *Module {
	t.Helper()
	c := cache.MustNew(32<<10, 4, 64)
	m, err := New(Config{
		Sig:          sig.DefaultTM(),
		Index:        sig.IndexSpec{LowBit: 0, Bits: 7},
		WordsPerLine: 0,
		MaxVersions:  versions,
	}, c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// tlsModule builds a TLS-style module: word-granularity S14, 16KB/4-way/64B
// cache (64 sets), 16 words per line.
func tlsModule(t testing.TB, versions int) *Module {
	t.Helper()
	c := cache.MustNew(16<<10, 4, 64)
	m, err := New(Config{
		Sig:          sig.DefaultTLS(),
		Index:        sig.IndexSpec{LowBit: 4, Bits: 6},
		WordsPerLine: 16,
		MaxVersions:  versions,
	}, c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	c := cache.MustNew(32<<10, 4, 64)
	// Zero versions.
	if _, err := New(Config{Sig: sig.DefaultTM(), Index: sig.IndexSpec{LowBit: 0, Bits: 7}, MaxVersions: 0}, c); err == nil {
		t.Error("MaxVersions=0 must be rejected")
	}
	// Index/cache mismatch.
	if _, err := New(Config{Sig: sig.DefaultTM(), Index: sig.IndexSpec{LowBit: 0, Bits: 6}, MaxVersions: 1}, c); err == nil {
		t.Error("set-count mismatch must be rejected")
	}
	// Inexact decode: a config whose index bits straddle chunks.
	bad := sig.MustConfig("bad", []int{4, 4, 4}, nil, 26)
	if _, err := New(Config{Sig: bad, Index: sig.IndexSpec{LowBit: 2, Bits: 7}, MaxVersions: 1}, c); err == nil {
		t.Error("inexact decode must be rejected")
	}
}

func TestAllocFreeVersions(t *testing.T) {
	m := tmModule(t, 2)
	v1, err := m.AllocVersion(1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.AllocVersion(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocVersion(3); err == nil {
		t.Fatal("third version must fail with MaxVersions=2")
	}
	m.FreeVersion(v1)
	if _, err := m.AllocVersion(3); err != nil {
		t.Fatalf("slot must be reusable after free: %v", err)
	}
	m.SetRunning(v2)
	if m.Running() != v2 {
		t.Fatal("SetRunning failed")
	}
	m.FreeVersion(v2)
	if m.Running() != nil {
		t.Fatal("freeing the running version must clear Running")
	}
}

func TestRunningFreedVersionPanics(t *testing.T) {
	m := tmModule(t, 1)
	v, _ := m.AllocVersion(1)
	m.FreeVersion(v)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRunning on a freed version must panic")
		}
	}()
	m.SetRunning(v)
}

func TestDisambiguationEquation1(t *testing.T) {
	m := tmModule(t, 1)
	v, _ := m.AllocVersion(1)
	m.SetRunning(v)
	m.OnRead(v, 100)
	if d := m.PrepareWrite(v, 200); !d.OK {
		t.Fatal("write to empty set must proceed")
	}
	m.CommitWrite(v, 200)

	// Committer wrote 100 (RAW with our read): must squash.
	wc := sig.DefaultTM().NewSignature()
	wc.Add(100)
	if !m.Disambiguate(v, wc) {
		t.Fatal("W_C ∩ R_R must trigger a squash")
	}
	// Committer wrote 200 (WAW with our write): must squash.
	wc2 := sig.DefaultTM().NewSignature()
	wc2.Add(200)
	if !m.Disambiguate(v, wc2) {
		t.Fatal("W_C ∩ W_R must trigger a squash")
	}
	// Disjoint committer: no squash (assuming no aliasing at these values).
	wc3 := sig.DefaultTM().NewSignature()
	wc3.Add(5000)
	if m.Disambiguate(v, wc3) {
		t.Fatal("disjoint write signature must not squash")
	}
}

func TestDisambiguateAddr(t *testing.T) {
	m := tmModule(t, 1)
	v, _ := m.AllocVersion(1)
	m.OnRead(v, 77)
	if !m.DisambiguateAddr(v, 77) {
		t.Fatal("invalidation for a read address must squash")
	}
	if m.DisambiguateAddr(v, 12345) {
		t.Fatal("unrelated invalidation must not squash")
	}
}

func TestSetRestrictionSafeWriteback(t *testing.T) {
	m := tmModule(t, 1)
	v, _ := m.AllocVersion(1)
	m.SetRunning(v)
	// A non-speculative dirty line sits in set 5.
	m.Cache().Insert(cache.LineAddr(5), cache.Dirty)
	d := m.PrepareWrite(v, sig.Addr(5+128)) // same set 5 (128 sets)
	if !d.OK {
		t.Fatal("(0,0) case must proceed")
	}
	if len(d.SafeWritebacks) != 1 || d.SafeWritebacks[0] != 5 {
		t.Fatalf("expected safe writeback of line 5, got %+v", d.SafeWritebacks)
	}
	if m.Stats().SafeWritebacks != 1 {
		t.Fatal("safe writeback must be counted")
	}
	// Second write to the same set: (1,0), no writebacks.
	m.CommitWrite(v, sig.Addr(5+128))
	d2 := m.PrepareWrite(v, sig.Addr(5+256))
	if !d2.OK || len(d2.SafeWritebacks) != 0 {
		t.Fatalf("(1,0) case must proceed freely, got %+v", d2)
	}
}

func TestSetRestrictionConflict(t *testing.T) {
	m := tmModule(t, 2)
	v1, _ := m.AllocVersion(10)
	v2, _ := m.AllocVersion(20)
	m.SetRunning(v1)
	if d := m.PrepareWrite(v1, 7); !d.OK {
		t.Fatal("first write must proceed")
	}
	m.CommitWrite(v1, 7)
	// Context switch: v2 runs; v1's set 7 is now in OR(δ(W_pre)).
	m.SetRunning(v2)
	d := m.PrepareWrite(v2, sig.Addr(7+128)) // same set
	if d.OK {
		t.Fatal("(0,1) case must be a conflict")
	}
	if d.ConflictOwner != 10 {
		t.Fatalf("conflict owner = %d, want 10", d.ConflictOwner)
	}
	// A different set works.
	if d2 := m.PrepareWrite(v2, 9); !d2.OK {
		t.Fatal("unrelated set must proceed")
	}
}

func TestWriteSignatureDisjointInvariant(t *testing.T) {
	// After Set Restriction enforcement, any two versions' W signatures
	// on the same processor never intersect (Section 4.5's claim) —
	// because they own disjoint cache sets and δ is exact.
	m := tmModule(t, 2)
	v1, _ := m.AllocVersion(1)
	v2, _ := m.AllocVersion(2)
	r := rng.New(21)
	m.SetRunning(v1)
	for i := 0; i < 40; i++ {
		a := sig.Addr(r.Intn(1 << 20))
		if d := m.PrepareWrite(v1, a); d.OK {
			m.CommitWrite(v1, a)
		}
	}
	m.SetRunning(v2)
	for i := 0; i < 40; i++ {
		a := sig.Addr(r.Intn(1 << 20))
		if d := m.PrepareWrite(v2, a); d.OK {
			m.CommitWrite(v2, a)
		}
	}
	if v1.W.Intersects(v2.W) {
		t.Fatal("W1 ∩ W2 must be empty under the Set Restriction")
	}
}

func TestOwnsDirtySetAndVersionOwningSet(t *testing.T) {
	m := tmModule(t, 2)
	v1, _ := m.AllocVersion(1)
	m.SetRunning(v1)
	m.CommitWrite(v1, 33)
	set := m.SetIndexOf(33)
	if !m.OwnsDirtySet(set) {
		t.Fatal("running version's set must be owned")
	}
	if m.VersionOwningSet(set) != v1 {
		t.Fatal("VersionOwningSet wrong")
	}
	if m.OwnsDirtySet(m.SetIndexOf(34)) {
		t.Fatal("unwritten set must not be owned")
	}
	// Preempted version still owns its sets.
	v2, _ := m.AllocVersion(2)
	m.SetRunning(v2)
	if !m.OwnsDirtySet(set) {
		t.Fatal("preempted version's set must remain owned via OR(δ(W_pre))")
	}
}

func TestSquashInvalidateDirtyOnly(t *testing.T) {
	m := tmModule(t, 1)
	v, _ := m.AllocVersion(1)
	m.SetRunning(v)
	c := m.Cache()

	// v writes lines 10 and 20 (speculative dirty).
	for _, a := range []sig.Addr{10, 20} {
		d := m.PrepareWrite(v, a)
		if !d.OK {
			t.Fatal("write must proceed")
		}
		c.Insert(cache.LineAddr(a), cache.Dirty)
		m.CommitWrite(v, a)
	}
	// An unrelated clean line and a non-speculative dirty line elsewhere.
	c.Insert(30, cache.Clean)
	c.Insert(40, cache.Dirty)

	inv := m.SquashInvalidate(v, false)
	if len(inv) != 2 {
		t.Fatalf("squash must invalidate exactly the 2 speculative dirty lines, got %v", inv)
	}
	if c.Contains(10) || c.Contains(20) {
		t.Fatal("speculative dirty lines must be gone")
	}
	if !c.Contains(30) || !c.Contains(40) {
		t.Fatal("unrelated lines must survive")
	}
	if !v.W.Zero() || !v.R.Zero() {
		t.Fatal("squash must clear the version's signatures")
	}
}

func TestSquashInvalidateReadsTLS(t *testing.T) {
	m := tlsModule(t, 1)
	v, _ := m.AllocVersion(1)
	m.SetRunning(v)
	c := m.Cache()

	// v read words of line 100 (clean in cache, possibly forwarded data).
	c.Insert(100, cache.Clean)
	m.OnRead(v, sig.Addr(100*16+3))
	// A non-speculative dirty line that v also read: must NOT be destroyed.
	c.Insert(200, cache.Dirty)
	m.OnRead(v, sig.Addr(200*16+1))

	m.SquashInvalidate(v, true)
	if c.Contains(100) {
		t.Fatal("clean read line must be invalidated on TLS squash")
	}
	if !c.Contains(200) {
		t.Fatal("non-speculative dirty line must survive an R-signature squash")
	}
}

func TestCommitInvalidateCleanLines(t *testing.T) {
	m := tmModule(t, 1)
	c := m.Cache()
	c.Insert(10, cache.Clean)
	c.Insert(11, cache.Clean)
	c.Insert(50, cache.Dirty) // non-speculative dirty

	wc := sig.DefaultTM().NewSignature()
	wc.Add(10)
	wc.Add(50) // aliasing scenario: committer "wrote" what we hold dirty non-spec

	inv, merges := m.CommitInvalidate(wc)
	if len(merges) != 0 {
		t.Fatalf("no merges expected at line granularity, got %v", merges)
	}
	if len(inv) != 1 || inv[0] != 10 {
		t.Fatalf("exactly clean line 10 must be invalidated, got %v", inv)
	}
	if c.Contains(10) {
		t.Fatal("line 10 must be invalidated")
	}
	if !c.Contains(50) {
		t.Fatal("non-speculative dirty line must not be touched by commit invalidation")
	}
	if !c.Contains(11) {
		t.Fatal("line 11 not in wc must survive")
	}
}

func TestCommitInvalidateWordMerge(t *testing.T) {
	m := tlsModule(t, 1)
	v, _ := m.AllocVersion(1)
	m.SetRunning(v)
	c := m.Cache()

	// Local thread wrote word 2 of line 10; committer wrote word 7.
	line := cache.LineAddr(10)
	local := sig.Addr(10*16 + 2)
	remote := sig.Addr(10*16 + 7)
	d := m.PrepareWrite(v, local)
	if !d.OK {
		t.Fatal("write must proceed")
	}
	c.Insert(line, cache.Dirty)
	m.CommitWrite(v, local)

	wc := sig.DefaultTLS().NewSignature()
	wc.Add(remote)

	// First: Equation 1 must NOT squash (different words).
	if m.Disambiguate(v, wc) {
		t.Fatal("different words of the same line must not squash at word granularity")
	}
	inv, merges := m.CommitInvalidate(wc)
	if len(inv) != 0 {
		t.Fatalf("dirty line must not be invalidated, got %v", inv)
	}
	if len(merges) != 1 || merges[0].Addr != line || merges[0].Version != v {
		t.Fatalf("expected one merge for line 10, got %+v", merges)
	}
	if merges[0].LocalWords&(1<<2) == 0 {
		t.Fatal("local word bitmask must include word 2")
	}
	if merges[0].LocalWords&(1<<7) != 0 {
		t.Fatal("local word bitmask must not include the committer's word 7")
	}
	if !c.Contains(line) {
		t.Fatal("merged line must remain in the cache")
	}
}

func TestSpawnInvalidate(t *testing.T) {
	m := tlsModule(t, 1)
	c := m.Cache()
	c.Insert(10, cache.Clean)
	c.Insert(20, cache.Dirty)
	w := sig.DefaultTLS().NewSignature()
	w.Add(10*16 + 1)
	w.Add(20*16 + 1)
	inv := m.SpawnInvalidate(w)
	if len(inv) != 1 || inv[0] != 10 {
		t.Fatalf("spawn invalidation must drop only clean line 10, got %v", inv)
	}
	if !c.Contains(20) {
		t.Fatal("dirty lines must survive spawn invalidation")
	}
}

func TestShadowSignature(t *testing.T) {
	m := tlsModule(t, 1)
	v, _ := m.AllocVersion(1)
	m.SetRunning(v)
	// Pre-spawn write.
	a1 := sig.Addr(100)
	if d := m.PrepareWrite(v, a1); d.OK {
		m.CommitWrite(v, a1)
	}
	m.StartShadow(v)
	// Post-spawn write.
	a2 := sig.Addr(5000)
	if d := m.PrepareWrite(v, a2); d.OK {
		m.CommitWrite(v, a2)
	}
	if v.Wsh == nil {
		t.Fatal("shadow signature must exist after StartShadow")
	}
	if !v.Wsh.Contains(a2) {
		t.Fatal("shadow must contain post-spawn writes")
	}
	if v.Wsh.Contains(a1) {
		t.Fatal("shadow must not contain pre-spawn writes (no aliasing expected here)")
	}
	if !v.W.Contains(a1) || !v.W.Contains(a2) {
		t.Fatal("full W must contain both writes")
	}
}

func TestOverflowFilter(t *testing.T) {
	m := tmModule(t, 1)
	v, _ := m.AllocVersion(1)
	m.SetRunning(v)
	m.CommitWrite(v, 42)
	// O bit clear: never consult the overflow area.
	if m.NeedsOverflowLookup(v, 42) {
		t.Fatal("without the O bit, the overflow area must not be consulted")
	}
	m.NoteOverflow(v)
	if !m.NeedsOverflowLookup(v, 42) {
		t.Fatal("O bit set and address in W: must consult")
	}
	if m.NeedsOverflowLookup(v, 9999) {
		t.Fatal("address not in W: membership filter must skip the lookup")
	}
}

func TestSpillAndReload(t *testing.T) {
	m := tmModule(t, 1)
	v, _ := m.AllocVersion(7)
	m.SetRunning(v)
	m.OnRead(v, 3)
	m.CommitWrite(v, 4)
	set := m.SetIndexOf(4)

	sv := m.SpillVersion(v)
	if sv.Owner != 7 || !sv.W.Contains(4) || !sv.R.Contains(3) {
		t.Fatal("spilled signatures must preserve contents")
	}
	if len(m.Versions()) != 0 {
		t.Fatal("spill must free the slot")
	}
	v2, err := m.ReloadVersion(sv)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.W.Contains(4) || !v2.R.Contains(3) {
		t.Fatal("reloaded signatures must preserve contents")
	}
	m.SetRunning(v2)
	if !m.OwnsDirtySet(set) {
		t.Fatal("reload must rebuild the δ(W) mask")
	}
}

func TestClearVersionResetsEverything(t *testing.T) {
	m := tlsModule(t, 1)
	v, _ := m.AllocVersion(1)
	m.SetRunning(v)
	m.OnRead(v, 1)
	m.CommitWrite(v, 2)
	m.StartShadow(v)
	m.NoteOverflow(v)
	m.ClearVersion(v)
	if !v.R.Zero() || !v.W.Zero() || v.Wsh != nil || v.Overflow {
		t.Fatal("ClearVersion must reset signatures, shadow, and O bit")
	}
	if m.OwnsDirtySet(m.SetIndexOf(2)) {
		t.Fatal("ClearVersion must clear the set mask")
	}
}

func TestLineOfGranularity(t *testing.T) {
	tm := tmModule(t, 1)
	if tm.LineOf(77) != 77 {
		t.Fatal("line granularity LineOf must be identity")
	}
	if tm.FineGrain() {
		t.Fatal("TM module is line-grain")
	}
	tls := tlsModule(t, 1)
	if tls.LineOf(16*5+3) != 5 {
		t.Fatal("word granularity LineOf must divide by words/line")
	}
	if !tls.FineGrain() {
		t.Fatal("TLS module is fine-grain")
	}
}

func TestCommitInvalidateConservativeButCorrect(t *testing.T) {
	// Every line the committer actually wrote and that we hold clean must
	// be invalidated — no false negatives — across random contents.
	m := tmModule(t, 1)
	c := m.Cache()
	r := rng.New(5)
	cfg := sig.DefaultTM()

	cached := map[cache.LineAddr]bool{}
	for i := 0; i < 60; i++ {
		a := cache.LineAddr(r.Intn(1 << 16))
		c.Insert(a, cache.Clean)
		cached[a] = true
	}
	wc := cfg.NewSignature()
	written := map[cache.LineAddr]bool{}
	for i := 0; i < 30; i++ {
		a := cache.LineAddr(r.Intn(1 << 16))
		wc.Add(sig.Addr(a))
		written[a] = true
	}
	m.CommitInvalidate(wc)
	for a := range written {
		if cached[a] && c.Contains(a) {
			// The line may have been evicted by later inserts; only fail
			// if it is still present and clean.
			if l := c.Lookup(a); l != nil && l.State == cache.Clean {
				t.Fatalf("line %d written by committer still cached clean", a)
			}
		}
	}
}

func BenchmarkDisambiguate(b *testing.B) {
	m := tmModule(b, 1)
	v, _ := m.AllocVersion(1)
	r := rng.New(1)
	for i := 0; i < 68; i++ {
		m.OnRead(v, sig.Addr(r.Intn(1<<26)))
	}
	wc := sig.DefaultTM().NewSignature()
	for i := 0; i < 22; i++ {
		wc.Add(sig.Addr(r.Intn(1 << 26)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Disambiguate(v, wc)
	}
}

// BenchmarkCommitInvalidate expands a 22-address committer signature
// against 200 cached lines: "line" on the line-granular TM module, "word"
// on the word-granular TLS module, whose membership test is the
// Updated Word Bitmask kernel.
func BenchmarkCommitInvalidate(b *testing.B) {
	for _, tc := range []struct {
		name  string
		build func(testing.TB, int) *Module
		cfg   *sig.Config
		words int
	}{
		{"line", tmModule, sig.DefaultTM(), 1},
		{"word", tlsModule, sig.DefaultTLS(), 16},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := tc.build(b, 1)
			c := m.Cache()
			r := rng.New(2)
			for i := 0; i < 200; i++ {
				c.Insert(cache.LineAddr(r.Intn(1<<16)), cache.Clean)
			}
			wc := tc.cfg.NewSignature()
			for i := 0; i < 22; i++ {
				wc.Add(sig.Addr(r.Intn(1<<16) * tc.words))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.CommitInvalidate(wc)
			}
		})
	}
}
