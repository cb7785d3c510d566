package sig

import (
	"fmt"
)

// Hashed signature variant.
//
// The paper builds signatures by bit-selection: each Vi field is indexed
// directly by a chunk of (permuted) address bits. The classic alternative
// from the Bloom-filter literature the paper cites ([3]; later explored
// for signatures by LogTM-SE–style designs) hashes the whole address into
// each field with an independent hash function. Hashing extracts entropy
// from *all* address bits, so it is far less sensitive to address-layout
// structure and needs no tuned permutation — but the hash destroys the
// property Bulk's cache integration depends on: δ can no longer recover
// the exact cache-set indices of the encoded lines, so hashed signatures
// cannot drive bulk invalidation safely (Section 4.3's argument). The
// ablation-hash experiment quantifies the accuracy side of this trade-off.

// NewHashedConfig builds a configuration whose fields are indexed by
// independent multiply-shift hash functions of the full address instead of
// by bit selection. chunks gives each field's index width as in NewConfig;
// seed derives the hash multipliers.
func NewHashedConfig(name string, chunks []int, addrBits int, seed uint64) (*Config, error) {
	// Hashed fields read no permuted address, so the table stays empty.
	cfg, err := newConfig(name, chunks, nil, addrBits, [][256]uint64{})
	if err != nil {
		return nil, err
	}
	cfg.hashed = true
	cfg.hashMul = make([]uint64, len(chunks))
	x := seed ^ 0x9e3779b97f4a7c15
	for i := range cfg.hashMul {
		// splitmix64 steps; force odd multipliers (multiply-shift needs
		// odd multipliers to be universal enough for this purpose).
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		cfg.hashMul[i] = (z ^ (z >> 31)) | 1
	}
	return cfg, nil
}

// MustHashedConfig is NewHashedConfig that panics on error.
func MustHashedConfig(name string, chunks []int, addrBits int, seed uint64) *Config {
	c, err := NewHashedConfig(name, chunks, addrBits, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// Hashed reports whether the configuration indexes its fields by hashing
// rather than bit selection.
func (c *Config) Hashed() bool { return c.hashed }

// hashFieldValue computes field i's index for an address: the top bits of
// a multiply-shift hash.
func (c *Config) hashFieldValue(i int, a Addr) uint32 {
	h := uint64(a) * c.hashMul[i]
	return uint32(h >> (64 - uint(c.chunks[i])))
}

func (c *Config) describeHashed() string {
	return fmt.Sprintf("%s(hashed; %d bits)", c.name, c.totalBits)
}
