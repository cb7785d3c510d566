package sig

import (
	"fmt"
	"testing"

	"bulk/internal/rng"
)

// Micro-benchmarks for the signature hot path. Every simulated memory
// access goes through Add/Contains and every commit broadcast through
// Intersects and the RLE size model, so these five kernels bound the
// simulator's throughput. All of them report 0 allocs/op. The benchmarks
// only measure that; the zero-allocation claim is enforced by the
// lint:noalloc rule over the //bulklint:noalloc kernels and by
// TestNoallocKernelsAllocFree at the module root.

// benchConfigNames is the subset of Table 8 configurations the benchmarks
// sweep: the smallest, the paper's default-sized, a mid-sized and the
// largest, so both short and long signatures are timed.
var benchConfigNames = []string{"S1", "S4", "S14", "S19", "S23"}

// benchAddrs returns a deterministic address working set shaped like the
// TM workloads' (26-bit line addresses).
func benchAddrs(n int) []Addr {
	r := rng.New(2006)
	addrs := make([]Addr, n)
	for i := range addrs {
		addrs[i] = Addr(r.Uint64n(1 << TMAddrBits))
	}
	return addrs
}

func benchConfigsUnder(b *testing.B) []*Config {
	b.Helper()
	var cfgs []*Config
	for _, name := range benchConfigNames {
		cfg, err := StandardConfig(name, TMPermutation, TMAddrBits)
		if err != nil {
			b.Fatalf("StandardConfig(%s): %v", name, err)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func BenchmarkAdd(b *testing.B) {
	addrs := benchAddrs(1024)
	for _, cfg := range benchConfigsUnder(b) {
		b.Run(cfg.Name(), func(b *testing.B) {
			s := cfg.NewSignature()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Add(addrs[i&1023])
			}
		})
	}
}

func BenchmarkContains(b *testing.B) {
	addrs := benchAddrs(1024)
	for _, cfg := range benchConfigsUnder(b) {
		b.Run(cfg.Name(), func(b *testing.B) {
			s := cfg.NewSignature()
			for _, a := range addrs[:22] {
				s.Add(a)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = s.Contains(addrs[i&1023])
			}
		})
	}
}

func BenchmarkIntersects(b *testing.B) {
	addrs := benchAddrs(1024)
	for _, cfg := range benchConfigsUnder(b) {
		b.Run(cfg.Name(), func(b *testing.B) {
			x, y := cfg.NewSignature(), cfg.NewSignature()
			for _, a := range addrs[:22] {
				x.Add(a)
			}
			for _, a := range addrs[512 : 512+90] {
				y.Add(a)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = x.Intersects(y)
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	addrs := benchAddrs(1024)
	for _, cfg := range benchConfigsUnder(b) {
		plan, err := NewDecodePlan(cfg, IndexSpec{LowBit: 0, Bits: 7})
		if err != nil {
			// Not every Table 8 configuration projects a cache-set index;
			// skip those, exactly as the BDM refuses them.
			continue
		}
		b.Run(cfg.Name(), func(b *testing.B) {
			s := cfg.NewSignature()
			for _, a := range addrs[:22] {
				s.Add(a)
			}
			mask := NewSetMask(plan.Index().NumSets())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.DecodeInto(s, mask)
			}
		})
	}
}

// BenchmarkWordMask times the Updated Word Bitmask of one 16-word line
// against a signature of 22 written lines, on a line inside and a line
// outside the signature: the paper's TLS layout (a window and a bit test)
// and word-granularity TM's (the Gray-code walk in both chunks).
func BenchmarkWordMask(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  *Config
	}{
		{"TLS", DefaultTLS()},
		{"WordTM", WordTM()},
	} {
		plan, err := NewWordMaskPlan(tc.cfg, 16)
		if err != nil {
			b.Fatal(err)
		}
		s := tc.cfg.NewSignature()
		lines := benchAddrs(23)
		for i, line := range lines[:22] {
			s.Add(line*16 + Addr(i%16))
		}
		for _, at := range []struct {
			name string
			line Addr
		}{{"in", lines[0]}, {"out", lines[22]}} {
			b.Run(tc.name+"/"+at.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					wordMaskSink = plan.Mask(s, at.line)
				}
			})
		}
	}
}

var wordMaskSink uint64

func BenchmarkRLEncodedBits(b *testing.B) {
	addrs := benchAddrs(1024)
	for _, cfg := range benchConfigsUnder(b) {
		b.Run(cfg.Name(), func(b *testing.B) {
			s := cfg.NewSignature()
			for _, a := range addrs[:22] {
				s.Add(a)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = RLEncodedBits(s)
			}
		})
	}
}

func BenchmarkRLEncode(b *testing.B) {
	addrs := benchAddrs(1024)
	for _, cfg := range benchConfigsUnder(b) {
		b.Run(cfg.Name(), func(b *testing.B) {
			s := cfg.NewSignature()
			for _, a := range addrs[:22] {
				s.Add(a)
			}
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = RLEncodeAppend(buf[:0], s)
			}
		})
	}
}

func BenchmarkRLDecode(b *testing.B) {
	addrs := benchAddrs(1024)
	for _, cfg := range benchConfigsUnder(b) {
		b.Run(cfg.Name(), func(b *testing.B) {
			s := cfg.NewSignature()
			for _, a := range addrs[:22] {
				s.Add(a)
			}
			data := RLEncode(s)
			dst := cfg.NewSignature()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := RLDecodeInto(dst, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// refFieldValues is the definitional chunk extraction: bit b of chunk Ci
// is address bit permPos[sum(C1..Ci-1)+b], or zero past the address.
func refFieldValues(cfg *Config, a Addr) []int {
	ref := make([]int, len(cfg.chunks))
	pos := 0
	for i, ch := range cfg.chunks {
		for b := 0; b < ch; b++ {
			if src := cfg.permPos[pos]; src >= 0 {
				ref[i] |= int((a>>uint(src))&1) << uint(b)
			}
			pos++
		}
	}
	return ref
}

// checkKernel compares the byte-table kernel with refFieldValues at a: the
// chunk values, the bits Add sets, and the bits Contains tests.
func checkKernel(t *testing.T, cfg *Config, a Addr) {
	t.Helper()
	ref := refFieldValues(cfg, a)
	p := cfg.permute(a)
	want := cfg.NewSignature()
	for i, v := range ref {
		if got := cfg.fieldValue(i, a, p); got != v {
			t.Fatalf("%v permPos=%v/%d addr=%#x chunk %d: kernel %#x, reference %#x",
				cfg.chunks, cfg.permPos, cfg.addrBits, a, i, got, v)
		}
		bit := cfg.fields[i].off + v
		want.bits[bit>>6] |= 1 << uint(bit&63)
	}
	got := cfg.NewSignature()
	got.Add(a)
	if !got.Equal(want) {
		t.Fatalf("%v permPos=%v/%d addr=%#x: Add set %x, reference %x",
			cfg.chunks, cfg.permPos, cfg.addrBits, a, got.bits, want.bits)
	}
	// Contains must test every field's bit: clearing any one fails it.
	for i, v := range ref {
		bit := cfg.fields[i].off + v
		got.bits[bit>>6] &^= 1 << uint(bit&63)
		if got.Contains(a) {
			t.Fatalf("%v permPos=%v/%d addr=%#x: Contains passes without field %d's bit",
				cfg.chunks, cfg.permPos, cfg.addrBits, a, i)
		}
		got.bits[bit>>6] |= 1 << uint(bit&63)
	}
	if !got.Contains(a) {
		t.Fatalf("%v permPos=%v/%d addr=%#x: Contains misses an added address", cfg.chunks, cfg.permPos, cfg.addrBits, a)
	}
}

// TestFieldValuesMatchesBitwiseReference cross-checks the byte-table
// kernel against the definitional per-bit extraction, across the standard
// configurations, the default TLS and word-granularity TM layouts, and a
// spread of random permutations (the Figure 15 stress case).
func TestFieldValuesMatchesBitwiseReference(t *testing.T) {
	r := rng.New(7)
	check := func(cfg *Config) {
		t.Helper()
		for trial := 0; trial < 200; trial++ {
			checkKernel(t, cfg, Addr(r.Uint64n(1<<cfg.addrBits)))
		}
	}
	cfgs, err := StandardConfigs(TMPermutation, TMAddrBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range append(cfgs, DefaultTLS(), WordTM()) {
		check(cfg)
		// Identity permutation.
		noPerm, err := cfg.WithPerm(nil)
		if err != nil {
			t.Fatal(err)
		}
		check(noPerm)
	}
	// Random permutations over one small and one large config.
	for _, name := range []string{"S4", "S23"} {
		base, err := StandardConfig(name, nil, TMAddrBits)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 16; k++ {
			cfg, err := base.WithPerm(r.Perm(TMAddrBits))
			if err != nil {
				t.Fatal(err)
			}
			check(cfg)
		}
	}
}

// FuzzFieldValues draws a layout (1-16 chunks of 1-24 bits), a permutation
// prefix, an address width and an address, high bits included, and checks
// the byte-table kernel against the definitional per-bit walk.
func FuzzFieldValues(f *testing.F) {
	f.Add([]byte{9, 9}, uint64(7), uint8(25), uint64(0x2ab_cdef1))
	f.Add([]byte{10, 10, 7, 4}, uint64(0), uint8(29), ^uint64(0))
	// Sixteen 24-bit chunks reach bit 384, past any 8-bit chunk position.
	f.Add([]byte{23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23},
		uint64(3), uint8(61), uint64(0x5a5a_5a5a_5a5a_5a5a))
	f.Fuzz(func(t *testing.T, layout []byte, permSeed uint64, width uint8, a uint64) {
		if len(layout) == 0 || len(layout) > MaxChunks {
			return
		}
		chunks := make([]int, len(layout))
		for i, b := range layout {
			chunks[i] = 1 + int(b)%24
		}
		addrBits := 1 + int(width)%62
		perm := rng.New(permSeed).Perm(int(permSeed % uint64(addrBits+1)))
		cfg, err := NewConfig("fuzz", chunks, perm, addrBits)
		if err != nil {
			t.Fatalf("NewConfig(%v, %v, %d): %v", chunks, perm, addrBits, err)
		}
		checkKernel(t, cfg, Addr(a))
	})
}

// TestNewConfigRejectsTooManyChunks: the MaxChunks bound backing the fixed
// stack arrays in Add/Contains must be enforced, not assumed.
func TestNewConfigRejectsTooManyChunks(t *testing.T) {
	chunks := make([]int, MaxChunks+1)
	for i := range chunks {
		chunks[i] = 1
	}
	if _, err := NewConfig("too-many", chunks, nil, 26); err == nil {
		t.Fatal("NewConfig accepted more than MaxChunks chunks")
	}
	if _, err := NewConfig("at-limit", chunks[:MaxChunks], nil, 26); err != nil {
		t.Fatalf("NewConfig rejected exactly MaxChunks chunks: %v", err)
	}
}

// TestBenchConfigNamesExist guards the benchmark sweep against config
// renames in configs.go.
func TestBenchConfigNamesExist(t *testing.T) {
	for _, name := range benchConfigNames {
		if _, err := StandardConfig(name, TMPermutation, TMAddrBits); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRLEncodeAppendMatchesRLEncode: the append-style encoder must emit the
// same stream as the allocating one.
func TestRLEncodeAppendMatchesRLEncode(t *testing.T) {
	addrs := benchAddrs(64)
	for _, name := range benchConfigNames {
		cfg, err := StandardConfig(name, TMPermutation, TMAddrBits)
		if err != nil {
			t.Fatal(err)
		}
		s := cfg.NewSignature()
		for _, a := range addrs {
			s.Add(a)
		}
		want := RLEncode(s)
		got := RLEncodeAppend(nil, s)
		if fmt.Sprintf("%x", want) != fmt.Sprintf("%x", got) {
			t.Errorf("%s: RLEncodeAppend diverges from RLEncode", name)
		}
		// Round trip through the in-place decoder too.
		dst := cfg.NewSignature()
		if err := RLDecodeInto(dst, got); err != nil {
			t.Fatalf("%s: RLDecodeInto: %v", name, err)
		}
		if !dst.Equal(s) {
			t.Errorf("%s: RLDecodeInto round trip lost bits", name)
		}
	}
}
