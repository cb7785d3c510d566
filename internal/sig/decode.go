package sig

import (
	"fmt"
	"math/bits"
)

// IndexSpec identifies which original-address bits form a cache set index:
// bits [LowBit, LowBit+Bits) of the address at signature granularity. For
// example, with word-granularity signatures, 64-byte lines, 4-byte words and
// 64 cache sets, the set index is word-address bits [4, 10).
type IndexSpec struct {
	LowBit int
	Bits   int
}

// NumSets returns the number of cache sets the spec addresses.
func (ix IndexSpec) NumSets() int { return 1 << ix.Bits }

// SetMask is a bitmask over cache sets, the output of the δ decode
// operation (Table 1) and the contents of the BDM's δ(W_run) and
// OR(δ(W_pre)) registers (Figure 7).
type SetMask []uint64

// NewSetMask returns an all-zero mask covering numSets sets.
func NewSetMask(numSets int) SetMask {
	return make(SetMask, (numSets+63)/64)
}

// Set marks cache set i.
//
//bulklint:noalloc
func (m SetMask) Set(i int) { m[i>>6] |= 1 << uint(i&63) }

// ClearSet unmarks cache set i.
//
//bulklint:noalloc
func (m SetMask) ClearSet(i int) { m[i>>6] &^= 1 << uint(i&63) }

// Has reports whether cache set i is marked.
//
//bulklint:noalloc
func (m SetMask) Has(i int) bool { return m[i>>6]&(1<<uint(i&63)) != 0 }

// Clear zeroes the mask.
//
//bulklint:noalloc
func (m SetMask) Clear() {
	for i := range m {
		m[i] = 0
	}
}

// OrWith ORs other into m.
//
//bulklint:noalloc
func (m SetMask) OrWith(other SetMask) {
	for i := range m {
		m[i] |= other[i]
	}
}

// Count returns the number of marked sets.
//
//bulklint:noalloc
func (m SetMask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// Sets appends the marked set indices to dst in ascending order. This is the
// finite state machine of Figure 4 that feeds set indices to the cache
// during signature expansion.
func (m SetMask) Sets(dst []int) []int {
	for wi, w := range m {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*64+b)
			w &= w - 1
		}
	}
	return dst
}

// chunkOf returns, for a permuted bit position, the chunk index and the bit
// offset within that chunk, or (-1, -1) if the position is not consumed by
// any chunk.
func (c *Config) chunkOf(pos int) (chunk, bitInChunk int) {
	acc := 0
	for i, ch := range c.chunks {
		if pos < acc+ch {
			return i, pos - acc
		}
		acc += ch
	}
	return -1, -1
}

// permutedPos returns the permuted position of original address bit src, or
// -1 if the bit does not appear among the consumed positions.
func (c *Config) permutedPos(src int) int {
	for pos, s := range c.permPos {
		if s == src {
			return pos
		}
	}
	return -1
}

// DecodePlan precomputes how to project a signature onto a cache-set index.
// Building the plan is the hardware design step; executing it (Decode) is
// the runtime δ operation.
type DecodePlan struct {
	cfg *Config
	idx IndexSpec
	// field is the one signature field that holds every index bit, and
	// index bit b is bit chunkBits[b] of its value.
	field     int
	chunkBits []int
	// run is set when the index bits are chunk bits [lo, lo+Bits) in
	// order, as under both paper permutations: δ then maps field value v
	// to set (v>>lo) & (sets-1).
	run bool
	lo  uint
}

// NewDecodePlan validates that every index bit is consumed by one and the
// same chunk and records the projection. Each added address sets exactly
// one bit per field, so projecting that one field's values gives exactly
// the set indices of the encoded addresses. Index bits spread over several
// chunks could only be decoded as a cross-product over-approximation,
// which the Set Restriction correctness argument of Section 4.3 does not
// allow, so such a spec is refused.
func NewDecodePlan(cfg *Config, idx IndexSpec) (*DecodePlan, error) {
	if idx.Bits <= 0 || idx.Bits > 30 {
		return nil, fmt.Errorf("sig: index spec has invalid width %d", idx.Bits)
	}
	if cfg.hashed {
		// A hashed field mixes every address bit into every index bit;
		// the cache-set index cannot be recovered, so δ is impossible —
		// the architectural reason Bulk selects bits instead of hashing.
		return nil, fmt.Errorf("sig: hashed configuration %s cannot decode cache sets", cfg.Name())
	}
	p := &DecodePlan{cfg: cfg, idx: idx, chunkBits: make([]int, idx.Bits)}
	for b := range p.chunkBits {
		src := idx.LowBit + b
		pos := cfg.permutedPos(src)
		if pos < 0 {
			return nil, fmt.Errorf("sig: index bit %d (address bit %d) is not encoded by %s",
				b, src, cfg.Name())
		}
		chunk, bitInChunk := cfg.chunkOf(pos)
		if b == 0 {
			p.field = chunk
		} else if chunk != p.field {
			return nil, fmt.Errorf("sig: index bits [%d, %d) span chunks %d and %d of %s; "+
				"δ would not decode cache sets exactly, so bulk invalidation would be unsafe (Section 4.3)",
				idx.LowBit, idx.LowBit+idx.Bits, p.field, chunk, cfg.Name())
		}
		p.chunkBits[b] = bitInChunk
	}
	p.run, p.lo = true, uint(p.chunkBits[0])
	for j, b := range p.chunkBits {
		p.run = p.run && b == p.chunkBits[0]+j
	}
	return p, nil
}

// Index returns the spec the plan was built for.
func (p *DecodePlan) Index() IndexSpec { return p.idx }

// SetIndexOf returns the cache set index of an address, per the spec.
func (p *DecodePlan) SetIndexOf(a Addr) int {
	return int(a>>uint(p.idx.LowBit)) & (p.idx.NumSets() - 1)
}

// Decode is the δ operation: it projects the signature onto the cache-set
// index space and returns the resulting set bitmask: exactly the set
// indices of the addresses that were added (aliasing within a set does not
// matter: the set index bits of an added address are preserved verbatim
// by the one-hot chunk encoding).
func (p *DecodePlan) Decode(s *Signature) SetMask {
	mask := NewSetMask(p.idx.NumSets())
	p.DecodeInto(s, mask)
	return mask
}

// DecodeInto is Decode writing into an existing mask (which is cleared).
// Every one bit of the plan's field scatters directly into the mask
// (SetMask.Set is idempotent, so no dedup pass is needed). A run plan maps
// each bit with one shift and mask; other plans move the index bits one at
// a time.
//
//bulklint:noalloc
func (p *DecodePlan) DecodeInto(s *Signature, mask SetMask) {
	if !s.cfg.Compatible(p.cfg) {
		panic("sig: decode plan applied to signature with different configuration") //bulklint:invariant plans are built per-config at system setup
	}
	mask.Clear()
	off := p.cfg.fields[p.field].off
	n := 1 << p.cfg.chunks[p.field]
	sets := uint32(p.idx.NumSets() - 1)
	for i := 0; i < n; {
		w := (off + i) >> 6
		shift := uint((off + i) & 63)
		take := 64 - int(shift)
		if take > n-i {
			take = n - i
		}
		var m uint64
		if take == 64 {
			m = ^uint64(0)
		} else {
			m = ((1 << uint(take)) - 1) << shift
		}
		word := s.bits[w] & m
		for word != 0 {
			v := uint32(i + bits.TrailingZeros64(word) - int(shift))
			word &= word - 1
			if p.run {
				mask.Set(int(v >> p.lo & sets))
				continue
			}
			var pat uint32
			for b, cb := range p.chunkBits {
				pat |= ((v >> uint(cb)) & 1) << uint(b)
			}
			mask.Set(int(pat))
		}
		i += take
	}
}

// WordMaskPlan is the Updated Word Bitmask unit of Section 4.4 (Figure 6):
// given a word-granularity signature and a line address, the bitmask of
// the line's words the signature may contain. Bit w is set iff
// Contains(line*wordsPerLine + w), bit for bit, so the mask is exact with
// respect to membership and conservative with respect to the writes.
//
// For bit-selected configurations the unit costs one permutation per line.
// Every field-value bit comes from exactly one address bit, so chunk i of
// the word address line*W | w is chunk_i(line*W) | chunk_i(w): the
// line's chunk plus a contribution that depends on w and the layout
// only. NewWordMaskPlan records which word-offset bits each chunk holds
// and sorts the chunks into three kinds:
//
//   - a chunk that holds no word-offset bit contributes nothing, so it is
//     one bit test for all W words (DefaultTLS's chunk 1);
//   - a chunk that holds them all in order at its low bits contributes w
//     itself, so its W bits are one aligned window of the field (when the
//     field starts W-aligned; DefaultTLS's chunk 0);
//   - any other chunk tests its W bits one by one, walking the words in
//     Gray-code order so each step adds or removes one word bit's
//     contribution (both chunks of WordTM, which hold word bits 0..2 at
//     chunk bits 7..9 and word bit 3 at chunk bit 0).
//
// Hashed configurations mix every address bit into every field, so they
// keep the per-word Contains loop.
type WordMaskPlan struct {
	cfg          *Config
	wordsPerLine int
	all          uint64 // the low wordsPerLine bits
	kind         [MaxChunks]uint8
	// Word-offset bit j lands at bit pos[j] of chunk holder[j] (-1: of
	// no chunk). Fixed arrays keep building a plan one allocation.
	holder [maxWordBits]int8
	pos    [maxWordBits]uint8
}

// Chunk kinds of a WordMaskPlan.
const (
	wordsNone   = iota // holds no word-offset bit: one bit test
	wordsWindow        // holds them in order at its low bits: one window
	wordsWalk          // otherwise: a Gray-code walk over the words
)

// maxWordBits is log2 of the largest wordsPerLine.
const maxWordBits = 6

// NewWordMaskPlan builds the Updated Word Bitmask functional unit for
// signatures over word addresses where the low log2(wordsPerLine) bits of
// the address select the word within a line. wordsPerLine must be a power
// of two and at most 64.
func NewWordMaskPlan(cfg *Config, wordsPerLine int) (*WordMaskPlan, error) {
	if wordsPerLine <= 0 || wordsPerLine > 64 || wordsPerLine&(wordsPerLine-1) != 0 {
		return nil, fmt.Errorf("sig: wordsPerLine %d must be a power of two in 1..64", wordsPerLine)
	}
	p := &WordMaskPlan{cfg: cfg, wordsPerLine: wordsPerLine, all: ^uint64(0) >> uint(64-wordsPerLine)}
	if cfg.hashed {
		return p, nil
	}
	k := bits.TrailingZeros(uint(wordsPerLine))
	for j := range p.holder {
		p.holder[j] = -1
	}
	off := 0
	for i, ch := range cfg.chunks {
		held, inOrder := 0, cfg.fields[i].off%wordsPerLine == 0
		for b := 0; b < ch; b++ {
			if src := cfg.permPos[off+b]; src >= 0 && src < k {
				p.holder[src], p.pos[src] = int8(i), uint8(b)
				held++
				inOrder = inOrder && src == b
			}
		}
		off += ch
		switch {
		case held == 0:
			p.kind[i] = wordsNone
		case held == k && inOrder:
			p.kind[i] = wordsWindow
		default:
			p.kind[i] = wordsWalk
		}
	}
	return p, nil
}

// Mask returns the per-word update bitmask for line (a line address at
// line granularity): bit w is set iff word address line*wordsPerLine + w
// may be in the signature. It panics when s uses a configuration the plan
// was not built for.
//
//bulklint:noalloc
func (p *WordMaskPlan) Mask(s *Signature, line Addr) uint64 {
	if s.cfg != p.cfg && !s.cfg.Compatible(p.cfg) {
		panic("sig: word mask plan applied to signature with different configuration") //bulklint:invariant plans are built per-config at system setup
	}
	base := Addr(uint64(line) * uint64(p.wordsPerLine))
	if p.cfg.hashed {
		var m uint64
		for w := 0; w < p.wordsPerLine; w++ {
			if s.Contains(base + Addr(w)) {
				m |= 1 << uint(w)
			}
		}
		return m
	}
	// base's word-offset bits are zero, so chunk_i(base) | chunk_i(w) is
	// chunk_i(base) + chunk_i(w).
	perm := p.cfg.permute(base)
	m := p.all
	for i := range p.cfg.fields {
		bit := p.cfg.fields[i].off + p.cfg.fieldValue(i, base, perm)
		switch p.kind[i] {
		case wordsNone:
			if s.bits[bit>>6]&(1<<uint(bit&63)) == 0 {
				return 0
			}
		case wordsWindow:
			m &= s.bits[bit>>6] >> uint(bit&63)
		default:
			// Word g = n^(n>>1) differs from the previous word in bit
			// TrailingZeros(n) alone, and c tracks chunk_i(g).
			var t uint64
			var c uint32
			for n := 0; n < p.wordsPerLine; n++ {
				if n > 0 {
					if j := bits.TrailingZeros(uint(n)); p.holder[j] == int8(i) {
						c ^= 1 << p.pos[j]
					}
				}
				b := bit + int(c)
				t |= (s.bits[b>>6] >> uint(b&63) & 1) << uint(n^n>>1)
			}
			m &= t
		}
	}
	return m
}
