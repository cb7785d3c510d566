package sig

import (
	"testing"
	"testing/quick"

	"bulk/internal/rng"
)

func TestRLERoundTripEmpty(t *testing.T) {
	cfg := DefaultTM()
	s := cfg.NewSignature()
	data := RLEncode(s)
	back, err := RLDecode(cfg, data)
	if err != nil {
		t.Fatalf("RLDecode: %v", err)
	}
	if !back.Equal(s) {
		t.Fatal("empty signature must round-trip")
	}
}

func TestRLERoundTripDense(t *testing.T) {
	cfg := MustConfig("small", []int{6, 6}, nil, 16)
	s := cfg.NewSignature()
	for a := Addr(0); a < 1<<12; a += 3 {
		s.Add(a)
	}
	back, err := RLDecode(cfg, RLEncode(s))
	if err != nil {
		t.Fatalf("RLDecode: %v", err)
	}
	if !back.Equal(s) {
		t.Fatal("dense signature must round-trip")
	}
}

func TestRLERoundTripProperty(t *testing.T) {
	cfg := DefaultTM()
	mask := Addr(1<<cfg.AddrBits()) - 1
	f := func(raw []uint32) bool {
		s := cfg.NewSignature()
		for _, r := range raw {
			s.Add(Addr(r) & mask)
		}
		back, err := RLDecode(cfg, RLEncode(s))
		if err != nil {
			return false
		}
		return back.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRLEncodedBitsMatchesStream(t *testing.T) {
	cfg := DefaultTM()
	r := rng.New(9)
	for trial := 0; trial < 20; trial++ {
		s := cfg.NewSignature()
		for i := 0; i < r.Intn(100); i++ {
			s.Add(Addr(r.Intn(1 << 26)))
		}
		bitsLen := RLEncodedBits(s)
		stream := RLEncode(s)
		// Stream is bit count rounded up to bytes.
		if want := (bitsLen + 7) / 8; len(stream) != want {
			t.Fatalf("trial %d: stream %d bytes, want %d (for %d bits)",
				trial, len(stream), want, bitsLen)
		}
	}
}

func TestRLECompressesSparseSignatures(t *testing.T) {
	// The paper's point: a typical commit signature (tens of addresses in
	// a 2 Kbit signature) compresses several-fold. Table 8 reports S14
	// averaging 363 bits compressed from 2048.
	cfg := DefaultTM()
	r := rng.New(4)
	total := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		s := cfg.NewSignature()
		for i := 0; i < 22; i++ { // avg TM write set: 22 lines (Table 7)
			s.Add(Addr(r.Intn(1 << 26)))
		}
		total += RLEncodedBits(s)
	}
	avg := total / trials
	if avg >= cfg.TotalBits() {
		t.Fatalf("RLE failed to compress: avg %d bits >= full %d", avg, cfg.TotalBits())
	}
	if avg > 800 {
		t.Errorf("avg compressed size %d bits is far above the paper's ~363; compression too weak", avg)
	}
	if avg < 100 {
		t.Errorf("avg compressed size %d bits suspiciously small for 22-line write sets", avg)
	}
}

func TestRLDecodeRejectsGarbage(t *testing.T) {
	cfg := MustConfig("g", []int{4}, nil, 8)
	// A stream of zero bits never terminates a gamma code within bounds.
	if _, err := RLDecode(cfg, []byte{0x00}); err == nil {
		t.Fatal("malformed stream must be rejected")
	}
	// A run longer than the signature must be rejected. gamma(64) encodes
	// 63 zeros then needs more; build one: gamma(100) > 16 positions.
	w := &bitWriter{}
	w.writeGamma(100)
	if _, err := RLDecode(cfg, w.buf); err == nil {
		t.Fatal("overlong run must be rejected")
	}
}

func TestGammaCodes(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 7, 8, 255, 1024, 123456} {
		w := &bitWriter{}
		w.writeGamma(n)
		if got := w.nbit; got != gammaLen(n) {
			t.Fatalf("gammaLen(%d)=%d but stream has %d bits", n, gammaLen(n), got)
		}
		r := &bitReader{buf: w.buf}
		back, err := r.readGamma()
		if err != nil {
			t.Fatalf("readGamma(%d): %v", n, err)
		}
		if back != n {
			t.Fatalf("gamma round-trip: got %d, want %d", back, n)
		}
	}
}

// FuzzRLDecode: the commit-broadcast decoder must reject hostile streams
// with an error, never a panic, and a stream it accepts must survive a
// re-encode and decode unchanged. The seeds include a gamma code of
// 2^63+5, whose run once wrapped int negative, and truncated streams.
func FuzzRLDecode(f *testing.F) {
	var cfgs []*Config
	for _, name := range benchConfigNames {
		cfg, err := StandardConfig(name, TMPermutation, TMAddrBits)
		if err != nil {
			f.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	w := &bitWriter{}
	w.writeGamma(1<<63 + 5)
	f.Add(uint8(2), w.buf)
	for i, cfg := range cfgs {
		s := cfg.NewSignature()
		for _, a := range benchAddrs(22) {
			s.Add(a)
		}
		data := RLEncode(s)
		f.Add(uint8(i), data)
		f.Add(uint8(i), data[:len(data)/2])
		f.Add(uint8(i), data[:len(data)-1])
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		cfg := cfgs[int(which)%len(cfgs)]
		s := cfg.NewSignature()
		if err := RLDecodeInto(s, data); err != nil {
			return
		}
		back, err := RLDecode(cfg, RLEncode(s))
		if err != nil {
			t.Fatalf("%s: re-encoded stream rejected: %v", cfg.Name(), err)
		}
		if !back.Equal(s) {
			t.Fatalf("%s: accepted stream does not survive a re-encode", cfg.Name())
		}
	})
}
