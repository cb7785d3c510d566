// Package sig implements address signatures and the primitive bulk
// operations on them, as described in Sections 3 and 6.1 of
// "Bulk Disambiguation of Speculative Threads in Multiprocessors"
// (Ceze, Tuck, Caşcaval, Torrellas — ISCA 2006).
//
// A signature is a fixed-size, Bloom-filter-style hash encoding of a set of
// addresses. Addresses are first permuted (a fixed bit permutation chosen at
// design time), then split into consecutive bit chunks C1..Cn starting at
// the least significant bit. Each chunk Ci is decoded into a one-hot value
// that is OR'ed into the corresponding Vi bit-field of the signature
// (Figure 2 of the paper). The result is a superset representation: decoding
// can only over-approximate the original address set, never lose members,
// so bulk operations built on signatures are inexact but always correct.
//
// The permutation is wiring fixed at design time, so the model keeps it as
// a table per address byte, built once per (permutation, address width)
// and shared by every configuration with both: the OR of one entry per
// byte is the whole permuted address, at most 62 bits, and each chunk is
// a shift and mask of it. Add and Contains cost four lookups for the
// paper's 26- and 30-bit addresses, then one bit per field.
//
// The primitive operations of Table 1 are provided: intersection, union,
// emptiness, membership, and the exact decode δ into a cache-set bitmask
// (package file decode.go). Run-length encoding of signatures for commit
// broadcast (Section 6.1) lives in rle.go, and the standard configurations
// of Table 8 in configs.go.
package sig

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// Addr is a memory address at the granularity the signature encodes
// (line address or word address, depending on the configuration's use).
type Addr uint64

// Config describes a signature layout: the chunk sizes C1..Cn, the bit
// permutation applied to addresses before encoding, and the number of
// meaningful address bits. Configs are immutable after construction and
// safe for concurrent use.
type Config struct {
	name     string
	chunks   []int
	perm     []int // perm[i] = original bit index that lands at position i
	addrBits int

	totalBits int     // sum of 2^Ci
	fields    []field // where each chunk sits in the permuted address and the signature
	words     int     // number of uint64 words backing a signature
	permPos   []int   // for consumed positions 0..sum(Ci)-1: source bit index
	// tab[k][v] is the permuted address bits that address byte k holding v
	// contributes. It depends on (perm, addrBits) alone, so configurations
	// that share both share one table.
	tab [][256]uint64

	// Hashed variant (see hashed.go): fields indexed by multiply-shift
	// hashes of the whole address instead of bit selection.
	hashed  bool
	hashMul []uint64
}

// field places chunk Ci: its value is bits [shift, shift+Ci) of the
// permuted address, and its field Vi starts at signature bit off.
type field struct {
	shift uint // sum(C1..Ci-1); a chunk past bit 63 reads zero
	mask  uint64
	off   int
}

// NewConfig builds a signature configuration.
//
// chunks are the C1..Cn chunk sizes in bits; chunk i consumes permuted
// address bits [sum(C1..Ci-1), sum(C1..Ci)). perm lists, for each permuted
// bit position starting at 0, the original address bit that moves there;
// positions beyond len(perm) keep their original bit (paper, Table 5
// caption). perm may be nil for the identity permutation. addrBits is the
// number of meaningful low-order address bits (26 for line addresses in the
// paper's TM setup, 30 for word addresses in TLS).
func NewConfig(name string, chunks []int, perm []int, addrBits int) (*Config, error) {
	return newConfig(name, chunks, perm, addrBits, nil)
}

// newConfig is NewConfig over tab, the permutation table of (perm,
// addrBits), building the table when tab is nil.
func newConfig(name string, chunks []int, perm []int, addrBits int, tab [][256]uint64) (*Config, error) {
	if len(chunks) == 0 {
		return nil, errors.New("sig: config needs at least one chunk")
	}
	if len(chunks) > MaxChunks {
		return nil, fmt.Errorf("sig: %d chunks exceeds the supported maximum of %d", len(chunks), MaxChunks)
	}
	if addrBits <= 0 || addrBits > 62 {
		return nil, fmt.Errorf("sig: addrBits %d out of range (1..62)", addrBits)
	}
	total := 0
	consumed := 0
	for i, c := range chunks {
		if c <= 0 || c > 24 {
			return nil, fmt.Errorf("sig: chunk %d has invalid size %d (1..24)", i, c)
		}
		total += 1 << c
		consumed += c
	}
	// Chunks may consume more bits than the address has (e.g. S23's 32
	// chunk bits over 26-bit line addresses); the missing high bits read
	// as zero, exactly as a hardware decoder wired past the address width
	// would see.
	if err := checkPerm(perm, addrBits); err != nil {
		return nil, err
	}
	if tab == nil {
		tab = permTable(perm, addrBits)
	}
	cfg := &Config{
		name:      name,
		chunks:    append([]int(nil), chunks...),
		perm:      append([]int(nil), perm...),
		addrBits:  addrBits,
		totalBits: total,
		words:     (total + 63) / 64,
		tab:       tab,
	}
	cfg.fields = make([]field, len(chunks))
	off, shift := 0, 0
	for i, c := range chunks {
		cfg.fields[i] = field{shift: uint(shift), mask: 1<<uint(c) - 1, off: off}
		off += 1 << c
		shift += c
	}
	cfg.permPos = make([]int, consumed)
	for i := 0; i < consumed; i++ {
		switch {
		case i < len(perm):
			cfg.permPos[i] = perm[i]
		case i < addrBits:
			cfg.permPos[i] = i
		default:
			cfg.permPos[i] = -1 // beyond the address: reads as zero
		}
	}
	return cfg, nil
}

// permTable builds the per-byte permutation table of (perm, addrBits). This
// is the hardware analogy made explicit: the permute-and-split network of
// Figure 2 is wiring chosen at design time, so the per-access work is one
// lookup per address byte. Each entry is its value with the lowest set bit
// cleared, plus that bit's permuted position: 256 ORs per byte.
func permTable(perm []int, addrBits int) [][256]uint64 {
	var to [64]uint // to[b] = the permuted position of address bit b
	for b := range addrBits {
		to[b] = uint(b)
	}
	for pos, b := range perm {
		to[b] = uint(pos)
	}
	tab := make([][256]uint64, (addrBits+7)/8)
	for k := range tab {
		for v := 1; v < 256; v++ {
			var bit uint64
			if b := 8*k + bits.TrailingZeros(uint(v)); b < addrBits {
				bit = 1 << to[b]
			}
			tab[k][v] = tab[k][v&(v-1)] | bit
		}
	}
	return tab
}

// MustConfig is NewConfig that panics on error; for static tables.
func MustConfig(name string, chunks []int, perm []int, addrBits int) *Config {
	c, err := NewConfig(name, chunks, perm, addrBits)
	if err != nil {
		panic(err)
	}
	return c
}

func checkPerm(perm []int, addrBits int) error {
	if len(perm) > addrBits {
		return fmt.Errorf("sig: permutation has %d entries but address has %d bits", len(perm), addrBits)
	}
	seen := make(map[int]bool, len(perm))
	for i, p := range perm {
		if p < 0 || p >= addrBits {
			return fmt.Errorf("sig: permutation entry %d out of range: %d", i, p)
		}
		if seen[p] {
			return fmt.Errorf("sig: permutation repeats bit %d", p)
		}
		seen[p] = true
	}
	// Positions beyond len(perm) implicitly map to themselves; they must
	// not collide with explicitly mapped sources.
	for i := len(perm); i < addrBits; i++ {
		if seen[i] {
			// Original bit i was moved into the permuted region, yet
			// position i also claims it. The paper's permutations are
			// written so that all displaced bits live inside the listed
			// prefix; enforce that.
			return fmt.Errorf("sig: bit %d is both permuted and implicitly fixed", i)
		}
	}
	return nil
}

// Name returns the configuration's identifier (e.g. "S14").
func (c *Config) Name() string { return c.name }

// Chunks returns a copy of the chunk sizes C1..Cn.
func (c *Config) Chunks() []int { return append([]int(nil), c.chunks...) }

// AddrBits returns the number of meaningful address bits.
func (c *Config) AddrBits() int { return c.addrBits }

// TotalBits returns the signature size in bits (sum of 2^Ci); this is the
// "Full Size" column of Table 8.
func (c *Config) TotalBits() int { return c.totalBits }

// WithPerm returns a copy of the configuration using a different bit
// permutation. Used by the permutation exploration of Figure 15.
func (c *Config) WithPerm(perm []int) (*Config, error) {
	return NewConfig(c.name, c.chunks, perm, c.addrBits)
}

// String describes the configuration like the paper's Table 8 rows.
func (c *Config) String() string {
	if c.hashed {
		return c.describeHashed()
	}
	parts := make([]string, len(c.chunks))
	for i, ch := range c.chunks {
		parts[i] = fmt.Sprintf("%d", ch)
	}
	return fmt.Sprintf("%s(%s; %d bits)", c.name, strings.Join(parts, ","), c.totalBits)
}

// MaxChunks bounds the number of chunks a configuration may have:
// WordMaskPlan keeps a fixed-size per-chunk array of this length, and
// NewConfig rejects anything larger so it can never truncate.
const MaxChunks = 16

// permute returns a's permuted address P: bit i of P is address bit
// permPos[i], for every position i below addrBits. Address bits at or
// above addrBits are ignored. It costs one table lookup per address byte,
// four for the paper's 26- and 30-bit addresses.
//
//bulklint:noalloc
func (c *Config) permute(a Addr) uint64 {
	var p uint64
	for k := range c.tab {
		p |= c.tab[k][uint8(a>>(8*k))]
	}
	return p
}

// fieldValue returns the value of chunk Ci for address a, whose permuted
// address is p: the bit of field Vi that Add sets. Bit-selected configs
// shift and mask p; hashed configs multiply-shift a.
//
//bulklint:noalloc
func (c *Config) fieldValue(i int, a Addr, p uint64) int {
	if c.hashed {
		return int(c.hashFieldValue(i, a))
	}
	return int(p >> c.fields[i].shift & c.fields[i].mask)
}

// Signature is a set-of-addresses encoding under a particular Config.
// The zero value is not usable; obtain signatures from Config.NewSignature.
// Signatures are not safe for concurrent mutation.
type Signature struct {
	cfg  *Config
	bits []uint64
}

// NewSignature returns an empty signature laid out per the configuration.
func (c *Config) NewSignature() *Signature {
	return &Signature{cfg: c, bits: make([]uint64, c.words)}
}

// Config returns the signature's configuration.
func (s *Signature) Config() *Config { return s.cfg }

// Add inserts an address into the signature (Figure 2: permute, split into
// chunks, decode each chunk, OR into the fields).
//
//bulklint:noalloc
func (s *Signature) Add(a Addr) {
	c := s.cfg
	p := c.permute(a)
	for i := range c.fields {
		bit := c.fields[i].off + c.fieldValue(i, a, p)
		s.bits[bit>>6] |= 1 << uint(bit&63)
	}
}

// Contains reports whether address a may be in the signature (the ∈
// membership operation of Table 1). False means a was definitely never
// added; true may be a false positive.
//
//bulklint:noalloc
func (s *Signature) Contains(a Addr) bool {
	c := s.cfg
	p := c.permute(a)
	for i := range c.fields {
		bit := c.fields[i].off + c.fieldValue(i, a, p)
		if s.bits[bit>>6]&(1<<uint(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// Empty reports whether the signature encodes the empty set: at least one
// Vi bit-field is all zeros (paper, Section 3.2). A signature into which at
// least one address was added is never empty.
//
//bulklint:noalloc
func (s *Signature) Empty() bool {
	for i, ch := range s.cfg.chunks {
		if s.fieldZero(s.cfg.fields[i].off, 1<<ch) {
			return true
		}
	}
	return false
}

// fieldZero reports whether the field at [off, off+n) bits is all zero.
func (s *Signature) fieldZero(off, n int) bool {
	for n > 0 {
		w := off >> 6
		shift := uint(off & 63)
		take := 64 - int(shift)
		if take > n {
			take = n
		}
		var mask uint64
		if take == 64 {
			mask = ^uint64(0)
		} else {
			mask = ((1 << uint(take)) - 1) << shift
		}
		if s.bits[w]&mask != 0 {
			return false
		}
		off += take
		n -= take
	}
	return true
}

// Zero reports whether every bit of the signature is zero (i.e. nothing was
// ever added). Zero implies Empty; the converse does not hold for
// intersections.
//
//bulklint:noalloc
func (s *Signature) Zero() bool {
	for _, w := range s.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear resets the signature to the empty set. Committing a thread in Bulk
// is exactly this operation (Table 2: "Commit by clearing a signature").
//
//bulklint:noalloc
func (s *Signature) Clear() {
	for i := range s.bits {
		s.bits[i] = 0
	}
}

// Clone returns an independent copy of the signature.
func (s *Signature) Clone() *Signature {
	n := &Signature{cfg: s.cfg, bits: make([]uint64, len(s.bits))}
	copy(n.bits, s.bits)
	return n
}

// CopyFrom overwrites s with the contents of other (same config required).
//
//bulklint:noalloc
func (s *Signature) CopyFrom(other *Signature) {
	s.mustMatch(other)
	copy(s.bits, other.bits)
}

func (s *Signature) mustMatch(other *Signature) {
	if !s.cfg.Compatible(other.cfg) {
		panic("sig: operation on signatures with different configurations")
	}
}

// Compatible reports whether two configurations produce interoperable
// signatures: identical chunk layout and bit permutation. Distinct Config
// values with the same parameters (e.g. two calls to StandardConfig with
// the same arguments) are compatible.
func (c *Config) Compatible(other *Config) bool {
	if c == other {
		return true
	}
	if c == nil || other == nil || c.addrBits != other.addrBits ||
		c.hashed != other.hashed ||
		len(c.chunks) != len(other.chunks) || len(c.permPos) != len(other.permPos) {
		return false
	}
	for i := range c.chunks {
		if c.chunks[i] != other.chunks[i] {
			return false
		}
	}
	if c.hashed {
		for i := range c.hashMul {
			if c.hashMul[i] != other.hashMul[i] {
				return false
			}
		}
		return true
	}
	for i := range c.permPos {
		if c.permPos[i] != other.permPos[i] {
			return false
		}
	}
	return true
}

// Intersect returns a new signature representing the intersection (bitwise
// AND, Table 1 ∩). The result is a superset of the intersection of the
// original address sets.
func (s *Signature) Intersect(other *Signature) *Signature {
	s.mustMatch(other)
	n := s.Clone()
	for i := range n.bits {
		n.bits[i] &= other.bits[i]
	}
	return n
}

// IntersectWith ANDs other into s in place.
//
//bulklint:noalloc
func (s *Signature) IntersectWith(other *Signature) {
	s.mustMatch(other)
	for i := range s.bits {
		s.bits[i] &= other.bits[i]
	}
}

// Union returns a new signature representing the union (bitwise OR,
// Table 1 ∪). Used e.g. to combine the write signatures of nested
// transaction sections at outer commit (Section 6.2.1).
func (s *Signature) Union(other *Signature) *Signature {
	s.mustMatch(other)
	n := s.Clone()
	for i := range n.bits {
		n.bits[i] |= other.bits[i]
	}
	return n
}

// UnionWith ORs other into s in place.
//
//bulklint:noalloc
func (s *Signature) UnionWith(other *Signature) {
	s.mustMatch(other)
	for i := range s.bits {
		s.bits[i] |= other.bits[i]
	}
}

// Intersects reports whether s ∩ other is non-empty, without allocating.
// This is the core of bulk address disambiguation (Equation 1).
//
//bulklint:noalloc
func (s *Signature) Intersects(other *Signature) bool {
	s.mustMatch(other)
	for i, ch := range s.cfg.chunks {
		if s.fieldAndZero(other, s.cfg.fields[i].off, 1<<ch) {
			return false
		}
	}
	return true
}

// fieldAndZero reports whether (s AND other) restricted to the field at
// [off, off+n) is all zero.
func (s *Signature) fieldAndZero(other *Signature, off, n int) bool {
	for n > 0 {
		w := off >> 6
		shift := uint(off & 63)
		take := 64 - int(shift)
		if take > n {
			take = n
		}
		var mask uint64
		if take == 64 {
			mask = ^uint64(0)
		} else {
			mask = ((1 << uint(take)) - 1) << shift
		}
		if s.bits[w]&other.bits[w]&mask != 0 {
			return false
		}
		off += take
		n -= take
	}
	return true
}

// Equal reports whether two signatures have identical bit patterns.
func (s *Signature) Equal(other *Signature) bool {
	if !s.cfg.Compatible(other.cfg) {
		return false
	}
	for i := range s.bits {
		if s.bits[i] != other.bits[i] {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits in the signature; a rough
// occupancy measure used by tests and the RLE size model.
func (s *Signature) PopCount() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Bits returns the backing words (read-only view; callers must not modify).
// The signature occupies the low TotalBits() bits.
func (s *Signature) Bits() []uint64 { return s.bits }

// fieldOnes appends the set-bit indices of field i to dst.
func (s *Signature) fieldOnes(field int, dst []uint32) []uint32 {
	off := s.cfg.fields[field].off
	n := 1 << s.cfg.chunks[field]
	for i := 0; i < n; {
		w := (off + i) >> 6
		shift := uint((off + i) & 63)
		take := 64 - int(shift)
		if take > n-i {
			take = n - i
		}
		var mask uint64
		if take == 64 {
			mask = ^uint64(0)
		} else {
			mask = ((1 << uint(take)) - 1) << shift
		}
		word := s.bits[w] & mask
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, uint32(i+b-int(shift)))
			word &= word - 1
		}
		i += take
	}
	return dst
}
