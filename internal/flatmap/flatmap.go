// Package flatmap provides a deterministic open-addressed hash table from
// uint64 keys to arbitrary values, tuned for the simulator's hot state:
// the committed-memory image, the speculative write buffers, and the
// overflow areas. Compared to Go's built-in map it allocates nothing on
// lookup or update (past capacity growth), keeps entries in two flat
// arrays that probe with unit stride (cache-friendly linear probing), and
// its storage layout is a pure function of the operation sequence — no
// per-process seed, so a deterministic simulation stays deterministic.
//
// Deletion uses backward-shift compaction instead of tombstones: the probe
// chain after the removed slot is shifted up, so long-lived tables that
// churn (write buffers reset every transaction) never degrade.
//
// Iteration order over the storage (Range) follows the probe layout. It is
// reproducible run to run for a deterministic program, but it is not the
// key order and must never reach simulator-visible state; use SortedKeys
// where order can escape (the same discipline bulklint enforces for
// built-in maps).
package flatmap

import (
	"math/bits"
	"slices"
)

// minCap is the initial slot count of a map that has seen its first Put.
const minCap = 16

// Map is an open-addressed uint64→V hash table. The zero value is an empty
// map ready for use. Not safe for concurrent use.
type Map[V any] struct {
	keys  []uint64
	vals  []V
	used  []uint64 // occupancy bitmap, one bit per slot
	mask  uint64   // len(keys)-1; len(keys) is a power of two
	shift uint8    // 64 - log2(len(keys)); maps the hash to a slot
	n     int
}

// fibMult is 2^64/φ, the multiplicative-hashing constant: one multiply
// spreads consecutive line/word addresses across the table, and the slot
// comes from the high bits (the well-mixed ones) via the per-capacity
// shift. No per-process seed — determinism is the point.
const fibMult = 0x9E3779B97F4A7C15

// slot maps a key to its home position.
func (m *Map[V]) slot(k uint64) uint64 { return (k * fibMult) >> m.shift }

func (m *Map[V]) isUsed(i uint64) bool { return m.used[i>>6]&(1<<(i&63)) != 0 }
func (m *Map[V]) setUsed(i uint64)     { m.used[i>>6] |= 1 << (i & 63) }
func (m *Map[V]) clearUsed(i uint64)   { m.used[i>>6] &^= 1 << (i & 63) }

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

// Get returns the value stored under k and whether it is present.
//
//bulklint:noalloc
func (m *Map[V]) Get(k uint64) (V, bool) {
	if p := m.Lookup(k); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Has reports whether k is present.
//
//bulklint:noalloc
func (m *Map[V]) Has(k uint64) bool {
	_, ok := m.Get(k)
	return ok
}

// Lookup returns a pointer to the value stored under k, or nil when k is
// absent, so a caller updates an entry in place. The pointer is valid
// until the next insertion or deletion.
//
//bulklint:noalloc
func (m *Map[V]) Lookup(k uint64) *V {
	if m.n != 0 {
		for i := m.slot(k); m.isUsed(i); i = (i + 1) & m.mask {
			if m.keys[i] == k {
				return &m.vals[i]
			}
		}
	}
	return nil
}

// Put stores v under k, replacing any previous value.
//
//bulklint:noalloc
func (m *Map[V]) Put(k uint64, v V) { *m.Upsert(k) = v }

// Upsert returns a pointer to the value stored under k, first inserting
// the zero value when k is absent: a read-modify-write of an entry costs
// one probe, where Get and Put cost two. The pointer is valid until the
// next insertion or deletion.
//
//bulklint:noalloc
func (m *Map[V]) Upsert(k uint64) *V {
	if 4*(m.n+1) > 3*len(m.keys) {
		m.grow() //bulklint:allow noalloc amortized growth; simulators pre-size hot tables
	}
	i := m.slot(k)
	for m.isUsed(i) {
		if m.keys[i] == k {
			return &m.vals[i]
		}
		i = (i + 1) & m.mask
	}
	// A free slot holds the zero value: Delete and Reset clear what they
	// free.
	m.keys[i] = k
	m.setUsed(i)
	m.n++
	return &m.vals[i]
}

// grow doubles the capacity (or allocates the first table) and reinserts
// every live entry.
func (m *Map[V]) grow() {
	newCap := 2 * len(m.keys)
	if newCap == 0 {
		newCap = minCap
	}
	oldKeys, oldVals, oldUsed := m.keys, m.vals, m.used
	m.keys = make([]uint64, newCap)
	m.vals = make([]V, newCap)
	m.used = make([]uint64, (newCap+63)/64)
	m.mask = uint64(newCap - 1)
	m.shift = uint8(bits.LeadingZeros64(uint64(newCap)) + 1) // 64 - log2(newCap)
	m.n = 0
	for wi, w := range oldUsed {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			slot := wi*64 + b
			m.Put(oldKeys[slot], oldVals[slot])
			w &= w - 1
		}
	}
}

// Delete removes k, reporting whether it was present. The probe chain
// following the removed slot is backshifted, so the table never
// accumulates tombstones.
//
//bulklint:noalloc
func (m *Map[V]) Delete(k uint64) bool {
	if m.n == 0 {
		return false
	}
	i := m.slot(k)
	for {
		if !m.isUsed(i) {
			return false
		}
		if m.keys[i] == k {
			break
		}
		i = (i + 1) & m.mask
	}
	m.n--
	var zero V
	// Close the hole at i: find the next chain entry whose home position
	// permits moving it up (its home is cyclically at or before the
	// hole), move it, and repeat with the new hole until a gap.
	for {
		m.clearUsed(i)
		m.vals[i] = zero // drop the reference for GC
		next := i
		for {
			next = (next + 1) & m.mask
			if !m.isUsed(next) {
				return true
			}
			home := m.slot(m.keys[next])
			if (next-home)&m.mask >= (next-i)&m.mask {
				break
			}
		}
		m.keys[i] = m.keys[next]
		m.vals[i] = m.vals[next]
		m.setUsed(i)
		i = next
	}
}

// Reset empties the map, keeping the allocated capacity for reuse (the
// write buffers clear on every transaction restart).
//
//bulklint:noalloc
func (m *Map[V]) Reset() {
	if len(m.keys) == 0 {
		return
	}
	clear(m.vals) // drop references for GC
	clear(m.used)
	m.n = 0
}

// Range calls fn for every entry in storage order, stopping early if fn
// returns false. Storage order is deterministic for a deterministic
// operation sequence but is not key order — callers must use it only for
// order-independent work (reductions, building other keyed structures) and
// go through SortedKeys when order can reach simulator state.
func (m *Map[V]) Range(fn func(k uint64, v V) bool) {
	for wi, w := range m.used {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			slot := wi*64 + b
			if !fn(m.keys[slot], m.vals[slot]) {
				return
			}
			w &= w - 1
		}
	}
}

// SortedKeys appends every key to dst in ascending order and returns the
// extended slice. Only the appended portion is sorted, so callers can pass
// a scratch buffer truncated with dst[:0].
//
//bulklint:noalloc
func (m *Map[V]) SortedKeys(dst []uint64) []uint64 {
	start := len(dst)
	for wi, w := range m.used {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, m.keys[wi*64+b]) //bulklint:allow noalloc amortized growth; callers pass a warmed scratch buffer
			w &= w - 1
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// Set is an open-addressed set of uint64 keys with the same determinism and
// capacity-reuse properties as Map: the model checker's fingerprint and
// visited-schedule sets. The zero value is an empty set.
type Set struct {
	m Map[struct{}]
}

// Len returns the number of members.
func (s *Set) Len() int { return s.m.Len() }

// Has reports whether k is a member.
//
//bulklint:noalloc
func (s *Set) Has(k uint64) bool { return s.m.Has(k) }

// Add inserts k.
//
//bulklint:noalloc
func (s *Set) Add(k uint64) { s.m.Put(k, struct{}{}) }

// Reset empties the set, keeping capacity for reuse.
//
//bulklint:noalloc
func (s *Set) Reset() { s.m.Reset() }

// SortedKeys appends every member to dst in ascending order and returns
// the extended slice.
//
//bulklint:noalloc
func (s *Set) SortedKeys(dst []uint64) []uint64 { return s.m.SortedKeys(dst) }
