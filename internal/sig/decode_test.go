package sig

import (
	"slices"
	"strings"
	"testing"

	"bulk/internal/rng"
)

func TestDecodeExactSingleChunk(t *testing.T) {
	// Word-granularity TLS-style layout: 4 offset bits (16 words/line),
	// 6 index bits (64 sets) at address bits 4..9; chunk C1=10 covers both.
	cfg := MustConfig("D", []int{10, 10}, nil, 30)
	idx := IndexSpec{LowBit: 4, Bits: 6}
	plan, err := NewDecodePlan(cfg, idx)
	if err != nil {
		t.Fatalf("NewDecodePlan: %v", err)
	}

	r := rng.New(11)
	s := cfg.NewSignature()
	wantSets := map[int]bool{}
	for i := 0; i < 200; i++ {
		a := Addr(r.Intn(1 << 30))
		s.Add(a)
		wantSets[plan.SetIndexOf(a)] = true
	}
	mask := plan.Decode(s)
	for set := 0; set < idx.NumSets(); set++ {
		if mask.Has(set) != wantSets[set] {
			t.Fatalf("set %d: mask=%v, want %v (decode must be exact)",
				set, mask.Has(set), wantSets[set])
		}
	}
}

func TestDecodeExactWithPaperPermutations(t *testing.T) {
	// The production configurations (the paper's two and word-granularity
	// TM's) must have plans for their cache geometries (Set Restriction
	// correctness depends on an exact δ), and every plan built over the
	// kernel layouts must decode exactly too. Both paper permutations give
	// run plans; the swapped layout (address bits 1 and 2 exchanged) keeps
	// the per-bit loop covered.
	type decodeCase struct {
		name       string
		cfg        *Config
		idx        IndexSpec
		production bool
	}
	cases := []decodeCase{
		// TM: 32KB/4-way/64B -> 128 sets; line-address bits 0..6.
		{"TM", DefaultTM(), IndexSpec{LowBit: 0, Bits: 7}, true},
		// TLS: 16KB/4-way/64B -> 64 sets; word-address bits 4..9.
		{"TLS", DefaultTLS(), IndexSpec{LowBit: 4, Bits: 6}, true},
		// Word-granularity TM: 128 sets; word-address bits 4..10.
		{"WordTM", WordTM(), IndexSpec{LowBit: 4, Bits: 7}, true},
	}
	swapped := MustConfig("swapped", []int{10, 10}, []int{0, 2, 1}, TMAddrBits)
	for _, cfg := range append(kernelConfigs(t), swapped) {
		for _, idx := range []IndexSpec{{0, 6}, {0, 7}, {4, 6}, {6, 7}} {
			cases = append(cases, decodeCase{cfg.Name(), cfg, idx, false})
		}
	}
	r := rng.New(5)
	for _, tc := range cases {
		plan, err := NewDecodePlan(tc.cfg, tc.idx)
		if err != nil {
			if tc.production {
				t.Errorf("%s: production configuration must decode exactly (%v)", tc.name, err)
			}
			continue
		}
		if tc.cfg == swapped && tc.idx.LowBit == 0 && plan.run {
			t.Fatalf("swapped layout %v: plan is a run, want the per-bit loop", tc.idx)
		}
		got := NewSetMask(tc.idx.NumSets())
		for _, n := range []int{1, 22, 500} {
			s := tc.cfg.NewSignature()
			want := NewSetMask(tc.idx.NumSets())
			for i := 0; i < n; i++ {
				a := Addr(r.Uint64n(1 << tc.cfg.AddrBits()))
				s.Add(a)
				want.Set(plan.SetIndexOf(a))
			}
			plan.DecodeInto(s, got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s %v/%d %v, %d addrs: DecodeInto %v, set indices %v",
					tc.name, tc.cfg.permPos, tc.cfg.AddrBits(), tc.idx, n, got.Sets(nil), want.Sets(nil))
			}
		}
	}
}

func TestDecodeRejectsMultiChunkIndex(t *testing.T) {
	// Index bits spread over two chunks could only decode to a superset of
	// the true set list, which the Set Restriction cannot use: no plan.
	cfg := MustConfig("M", []int{4, 4}, nil, 16)
	idx := IndexSpec{LowBit: 2, Bits: 4} // bits 2,3 in chunk0; bits 4,5 in chunk1
	_, err := NewDecodePlan(cfg, idx)
	if err == nil || !strings.Contains(err.Error(), "Section 4.3") {
		t.Fatalf("NewDecodePlan over two chunks: err = %v, want a refusal naming Section 4.3", err)
	}
}

func TestDecodeEmptySignature(t *testing.T) {
	cfg := MustConfig("E", []int{8, 8}, nil, 20)
	plan, err := NewDecodePlan(cfg, IndexSpec{LowBit: 0, Bits: 6})
	if err != nil {
		t.Fatal(err)
	}
	mask := plan.Decode(cfg.NewSignature())
	if mask.Count() != 0 {
		t.Fatal("decoding an empty signature must give an empty set mask")
	}
}

func TestDecodeRejectsUnencodedIndexBits(t *testing.T) {
	// Chunk consumes only 4 bits; asking for index bits 4..9 must fail.
	cfg := MustConfig("R", []int{4}, nil, 20)
	if _, err := NewDecodePlan(cfg, IndexSpec{LowBit: 4, Bits: 6}); err == nil {
		t.Fatal("index bits outside the encoded range must be rejected")
	}
}

func TestSetMaskOps(t *testing.T) {
	m := NewSetMask(128)
	m.Set(0)
	m.Set(64)
	m.Set(127)
	if !m.Has(0) || !m.Has(64) || !m.Has(127) || m.Has(1) {
		t.Fatal("Set/Has mismatch")
	}
	if m.Count() != 3 {
		t.Fatalf("Count=%d, want 3", m.Count())
	}
	sets := m.Sets(nil)
	if len(sets) != 3 || sets[0] != 0 || sets[1] != 64 || sets[2] != 127 {
		t.Fatalf("Sets=%v", sets)
	}
	m.ClearSet(64)
	if m.Has(64) {
		t.Fatal("ClearSet failed")
	}
	other := NewSetMask(128)
	other.Set(5)
	m.OrWith(other)
	if !m.Has(5) || !m.Has(0) {
		t.Fatal("OrWith failed")
	}
	m.Clear()
	if m.Count() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestWordMaskConservative(t *testing.T) {
	cfg := DefaultTLS()
	plan, err := NewWordMaskPlan(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.NewSignature()
	line := Addr(0x1234)
	// Write words 1, 5, 9 of the line.
	written := []uint64{1, 5, 9}
	for _, w := range written {
		s.Add(Addr(uint64(line)*16 + w))
	}
	mask := plan.Mask(s, line)
	for _, w := range written {
		if mask&(1<<w) == 0 {
			t.Fatalf("word %d written but missing from update mask (false negative)", w)
		}
	}
	// A different line far away: the mask may have aliased bits but with
	// S14 over a sparse signature it is overwhelmingly likely to be zero.
	empty := plan.Mask(s, Addr(0x2abcd))
	_ = empty // value is allowed to be nonzero (aliasing); just must not panic
}

func TestWordMaskPlanValidation(t *testing.T) {
	cfg := DefaultTLS()
	for _, n := range []int{0, 3, 65, -1} {
		if _, err := NewWordMaskPlan(cfg, n); err == nil {
			t.Errorf("wordsPerLine=%d must be rejected", n)
		}
	}
	plan, err := NewWordMaskPlan(cfg, 16)
	if err != nil {
		t.Fatalf("wordsPerLine=16 must be accepted: %v", err)
	}
	// A signature of an equal but distinct Config is accepted; one of
	// another layout panics, as DecodeInto does.
	_ = plan.Mask(DefaultTLS().NewSignature(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Mask on a signature of another layout must panic")
		}
	}()
	plan.Mask(DefaultTM().NewSignature(), 1)
}

// kernelConfigs returns every Table 8 configuration under the identity,
// TM, TLS and a random permutation, over 26- and 30-bit addresses: the
// layouts the expansion kernels are checked across.
func kernelConfigs(t *testing.T) []*Config {
	t.Helper()
	r := rng.New(16)
	var out []*Config
	for _, addrBits := range []int{TMAddrBits, TLSAddrBits} {
		for _, perm := range [][]int{nil, TMPermutation, TLSPermutation, r.Perm(addrBits)} {
			cfgs, err := StandardConfigs(perm, addrBits)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, cfgs...)
		}
	}
	return out
}

// TestWordMaskMatchesContains: the one-permutation word-mask kernel equals
// the per-word Contains loop bit for bit, on lines inside and outside
// random signatures. The paper's defaults take only the window and bit-test
// paths; WordTM, the layout of word-granularity TM, and the random
// permutations run the walk path.
func TestWordMaskMatchesContains(t *testing.T) {
	for _, tc := range []struct {
		cfg  *Config
		want [2]uint8
	}{
		{DefaultTLS(), [2]uint8{wordsWindow, wordsNone}},
		{DefaultTM(), [2]uint8{wordsWindow, wordsNone}},
		{WordTM(), [2]uint8{wordsWalk, wordsWalk}},
	} {
		p, err := NewWordMaskPlan(tc.cfg, 16)
		if err != nil {
			t.Fatal(err)
		}
		if [2]uint8(p.kind[:2]) != tc.want {
			t.Fatalf("%s/%d: chunk kinds %v, want %v", tc.cfg.Name(), tc.cfg.AddrBits(), p.kind[:2], tc.want)
		}
	}
	hashed := MustHashedConfig("hashed", []int{10, 10}, TLSAddrBits, 3)
	r := rng.New(44)
	for _, cfg := range append(kernelConfigs(t), WordTM(), hashed) {
		for _, wpl := range []int{1, 2, 16, 64} {
			p, err := NewWordMaskPlan(cfg, wpl)
			if err != nil {
				t.Fatal(err)
			}
			lineSpace := uint64(1) << cfg.AddrBits() / uint64(wpl)
			for _, n := range []int{8, 200} {
				s := cfg.NewSignature()
				lines := make([]Addr, n)
				for i := range lines {
					lines[i] = Addr(r.Uint64n(lineSpace))
					s.Add(lines[i]*Addr(wpl) + Addr(r.Intn(wpl)))
				}
				check := func(line Addr) {
					var want uint64
					for w := 0; w < wpl; w++ {
						if s.Contains(line*Addr(wpl) + Addr(w)) {
							want |= 1 << uint(w)
						}
					}
					if got := p.Mask(s, line); got != want {
						t.Fatalf("%s %v/%d, %d words, %d lines: Mask(%#x) = %#x, per-word Contains %#x",
							cfg.Name(), cfg.permPos, cfg.AddrBits(), wpl, n, line, got, want)
					}
				}
				for _, line := range lines[:8] {
					check(line)
				}
				for i := 0; i < 8; i++ {
					check(Addr(r.Uint64n(lineSpace)))
				}
			}
		}
	}
}
