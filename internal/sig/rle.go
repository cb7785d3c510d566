package sig

import (
	"errors"
	"math/bits"
)

// Run-length encoding of signatures (Section 6.1): signatures broadcast at
// commit are sparse — long runs of zeros punctuated by single ones — so the
// paper compresses them with RLE before putting them on the interconnect,
// and reports the average compressed size per configuration in Table 8.
//
// The scheme here encodes the lengths of the zero runs between consecutive
// one bits using Elias-gamma codes: a run of z zeros followed by a one is
// emitted as gamma(z+1). A final gamma code covers trailing zeros (the
// decoder knows the total bit length, so no terminator is needed). This is
// simple enough for hardware (a priority encoder plus a shifter) and
// matches the paper's observation that signatures compress very well.

// bitWriter accumulates a bit stream MSB-first within each byte.
type bitWriter struct {
	buf  []byte
	nbit int
}

func (w *bitWriter) writeBit(b uint) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0) //bulklint:allow noalloc amortized growth; hot paths pass a warmed reusable buffer
	}
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << uint(7-w.nbit%8)
	}
	w.nbit++
}

// writeGamma emits the Elias-gamma code of n (n >= 1):
// floor(log2 n) zero bits, then the binary representation of n.
func (w *bitWriter) writeGamma(n uint64) {
	if n == 0 {
		panic("sig: gamma code undefined for 0") //bulklint:invariant run lengths are offset to be >= 1 before encoding
	}
	k := bits.Len64(n) - 1
	for i := 0; i < k; i++ {
		w.writeBit(0)
	}
	for i := k; i >= 0; i-- {
		w.writeBit(uint(n>>uint(i)) & 1)
	}
}

type bitReader struct {
	buf  []byte
	nbit int
}

func (r *bitReader) readBit() (uint, error) {
	if r.nbit >= len(r.buf)*8 {
		return 0, errors.New("sig: RLE stream truncated") //bulklint:allow noalloc failure path for malformed input
	}
	b := (r.buf[r.nbit/8] >> uint(7-r.nbit%8)) & 1
	r.nbit++
	return uint(b), nil
}

func (r *bitReader) readGamma() (uint64, error) {
	k := 0
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		k++
		if k > 63 {
			return 0, errors.New("sig: malformed gamma code") //bulklint:allow noalloc failure path for malformed input
		}
	}
	n := uint64(1)
	for i := 0; i < k; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		n = n<<1 | uint64(b)
	}
	return n, nil
}

// gammaLen returns the bit length of the gamma code of n.
func gammaLen(n uint64) int { return 2*(bits.Len64(n)-1) + 1 }

// RLEncode compresses the signature's bit vector. The result, together with
// the signature's configuration, suffices to reconstruct the signature.
func RLEncode(s *Signature) []byte {
	w := &bitWriter{}
	encodeRuns(s, w)
	return w.buf
}

// encodeRuns walks the signature's zero runs and emits their gamma codes.
// Signatures are sparse (tens of ones in thousands of bits), so instead of
// testing every bit it jumps from one bit to the next with TrailingZeros64,
// skipping all-zero words wholesale — the same priority-encoder shortcut
// the hardware RLE unit would use. For a one at bit b following a one at
// bit p, the zero run between them has length b-p-1, so gamma(b-p) is
// emitted; the virtual "one" at position -1 makes the first run uniform.
func encodeRuns(s *Signature, w *bitWriter) {
	prev := -1
	for wi, word := range s.bits {
		for word != 0 {
			b := wi<<6 + bits.TrailingZeros64(word)
			w.writeGamma(uint64(b - prev))
			prev = b
			word &= word - 1
		}
	}
	if total := s.cfg.totalBits; prev+1 < total {
		w.writeGamma(uint64(total - prev)) // trailing zeros
	}
}

// RLEncodedBits returns the exact size in bits of RLEncode's output stream
// (before byte padding). This is the number Table 8 reports as the average
// compressed size, and the commit-packet payload size used by the bandwidth
// model (Figures 13 and 14).
//
//bulklint:noalloc
func RLEncodedBits(s *Signature) int {
	n := 0
	prev := -1
	for wi, word := range s.bits {
		for word != 0 {
			b := wi<<6 + bits.TrailingZeros64(word)
			n += gammaLen(uint64(b - prev))
			prev = b
			word &= word - 1
		}
	}
	if total := s.cfg.totalBits; prev+1 < total {
		n += gammaLen(uint64(total - prev))
	}
	return n
}

// RLEncodeAppend appends RLEncode's stream to dst and returns the extended
// slice. It is the zero-allocation form for hot commit paths: pass a
// reusable buffer truncated to zero length.
//
//bulklint:noalloc
func RLEncodeAppend(dst []byte, s *Signature) []byte {
	w := &bitWriter{buf: dst} //bulklint:allow noalloc header stays on the stack (encodeRuns does not retain it)
	encodeRuns(s, w)
	return w.buf
}

// RLDecode reconstructs a signature from an RLEncode stream under cfg.
func RLDecode(cfg *Config, data []byte) (*Signature, error) {
	s := cfg.NewSignature()
	if err := RLDecodeInto(s, data); err != nil {
		return nil, err
	}
	return s, nil
}

// RLDecodeInto reconstructs a signature from an RLEncode stream into dst,
// overwriting its previous contents. The zero-allocation counterpart of
// RLDecode for receivers that reuse a scratch signature.
//
//bulklint:noalloc
func RLDecodeInto(dst *Signature, data []byte) error {
	dst.Clear()
	r := &bitReader{buf: data} //bulklint:allow noalloc header stays on the stack (readers do not retain it)
	pos := 0
	total := dst.cfg.totalBits
	for pos < total {
		g, err := r.readGamma()
		if err != nil {
			return err
		}
		// Bound the run before converting it: a gamma value of 2^63+2 or
		// more would wrap int negative and index before the signature.
		if g-1 > uint64(total-pos) {
			return errors.New("sig: RLE run overflows signature") //bulklint:allow noalloc failure path for malformed input
		}
		pos += int(g - 1)
		if pos == total {
			break // trailing-zero run
		}
		dst.bits[pos>>6] |= 1 << uint(pos&63)
		pos++
	}
	return nil
}
