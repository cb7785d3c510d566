package sig

import (
	"fmt"
	"strconv"
	"strings"
)

// The 23 signature configurations evaluated in Table 8 of the paper. The
// Description column of the table gives the chunk sizes; the Full Size
// column is the sum of 2^Ci. (S16 is listed in the paper as "10, 10, 7, 5"
// with a full size of 2336 bits, which only matches chunks 10,10,8,5; we
// use the chunk set consistent with the stated size.)
var standardChunkSets = []struct {
	name   string
	chunks []int
}{
	{"S1", []int{7, 7, 7, 7}},
	{"S2", []int{8, 7, 6, 5, 5}},
	{"S3", []int{5, 5, 6, 7, 8}},
	{"S4", []int{8, 8, 8, 8}},
	{"S5", []int{9, 8, 7, 7}},
	{"S6", []int{5, 8, 8, 8}},
	{"S7", []int{8, 5, 8, 8}},
	{"S8", []int{8, 8, 5, 8}},
	{"S9", []int{5, 8, 8, 5}},
	{"S10", []int{9, 9, 8, 6}},
	{"S11", []int{9, 10, 8, 5}},
	{"S12", []int{10, 9, 6}},
	{"S13", []int{10, 9, 7}},
	{"S14", []int{10, 10}},
	{"S15", []int{10, 9, 9}},
	{"S16", []int{10, 10, 8, 5}},
	{"S17", []int{10, 10, 10}},
	{"S18", []int{11, 10, 10}},
	{"S19", []int{11, 11}},
	{"S20", []int{12}},
	{"S21", []int{11, 11, 4}},
	{"S22", []int{11, 11, 10}},
	{"S23", []int{13, 13, 6}},
}

// Address widths used in the paper's evaluation (Table 5 caption): line
// addresses are 26 bits in the TM experiments, word addresses 30 bits in
// the TLS experiments.
const (
	TMAddrBits  = 26
	TLSAddrBits = 30
)

// ParsePermRanges parses the compact permutation notation of Table 5, e.g.
// "0-6, 9, 11, 17, 7-8, 10, 12, 13, 15-16, 18-20, 14". Entry i of the
// result is the original bit index that moves to permuted position i.
func ParsePermRanges(spec string) ([]int, error) {
	var perm []int
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(tok, "-"); ok {
			a, err := strconv.Atoi(strings.TrimSpace(lo))
			if err != nil {
				return nil, fmt.Errorf("sig: bad permutation range %q: %v", tok, err)
			}
			b, err := strconv.Atoi(strings.TrimSpace(hi))
			if err != nil {
				return nil, fmt.Errorf("sig: bad permutation range %q: %v", tok, err)
			}
			if b < a {
				return nil, fmt.Errorf("sig: inverted permutation range %q", tok)
			}
			for v := a; v <= b; v++ {
				perm = append(perm, v)
			}
		} else {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("sig: bad permutation entry %q: %v", tok, err)
			}
			perm = append(perm, v)
		}
	}
	return perm, nil
}

func mustPerm(spec string) []int {
	p, err := ParsePermRanges(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// TMPermutation and TLSPermutation are the bit permutations of Table 5.
// TMPermutation applies to 26-bit line addresses; TLSPermutation to 30-bit
// word addresses. High-order bits not listed stay in place.
var (
	TMPermutation  = mustPerm("0-6, 9, 11, 17, 7-8, 10, 12, 13, 15-16, 18-20, 14")
	TLSPermutation = mustPerm("0-9, 11-19, 21, 10, 20, 22")
)

// StandardConfig returns the Table 8 configuration with the given name
// ("S1".."S23") over addrBits-bit addresses with the given permutation
// (nil for identity).
func StandardConfig(name string, perm []int, addrBits int) (*Config, error) {
	for _, sc := range standardChunkSets {
		if sc.name == name {
			return NewConfig(sc.name, sc.chunks, perm, addrBits)
		}
	}
	return nil, fmt.Errorf("sig: unknown standard configuration %q", name)
}

// StandardConfigs returns all 23 Table 8 configurations in order. They
// share one permutation table.
func StandardConfigs(perm []int, addrBits int) ([]*Config, error) {
	out := make([]*Config, 0, len(standardChunkSets))
	var tab [][256]uint64
	for _, sc := range standardChunkSets {
		c, err := newConfig(sc.name, sc.chunks, perm, addrBits, tab)
		if err != nil {
			return nil, fmt.Errorf("sig: building %s: %v", sc.name, err)
		}
		tab = c.tab
		out = append(out, c)
	}
	return out, nil
}

// StandardConfigNames returns the names S1..S23 in Table 8 order.
func StandardConfigNames() []string {
	names := make([]string, len(standardChunkSets))
	for i, sc := range standardChunkSets {
		names[i] = sc.name
	}
	return names
}

// DefaultTM returns the paper's default signature for the TM experiments:
// S14 (2 Kbit) over 26-bit line addresses with the TM permutation. Every
// call returns the same immutable Config.
func DefaultTM() *Config { return defaultTM }

// DefaultTLS returns the paper's default signature for the TLS experiments:
// S14 (2 Kbit) over 30-bit word addresses with the TLS permutation. Every
// call returns the same immutable Config.
func DefaultTLS() *Config { return defaultTLS }

// WordTM returns the signature of word-granularity TM: S14 over 30-bit
// word addresses of 16-word lines. The TM cache's 128-set index lives in
// word-address bits 4..10, so the permutation brings those bits (plus
// word-offset bits 0..2) into the first chunk, keeping the δ decode exact;
// word-offset bit 3 leads the second chunk. Every call returns the same
// immutable Config.
func WordTM() *Config { return wordTM }

var (
	defaultTM  = MustConfig("S14", []int{10, 10}, TMPermutation, TMAddrBits)
	defaultTLS = MustConfig("S14", []int{10, 10}, TLSPermutation, TLSAddrBits)
	wordTM     = MustConfig("S14w", []int{10, 10},
		[]int{4, 5, 6, 7, 8, 9, 10, 0, 1, 2, 3, 11, 12, 13, 14, 15, 16, 17, 18, 19}, TLSAddrBits)
)
