package check

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Checkpoint is a resumable snapshot of an exploration taken at a clean
// budget stop: the schedules counted so far, the outcome-fingerprint set
// behind Distinct, the prefix-hash dedup set, and the unexplored frontier
// in canonical order. Feeding it back through ExploreFrom with a larger
// budget continues the sweep exactly where it stopped — the combined
// report is identical to an uninterrupted run, because the explorer's
// best-first order makes the executed-schedule sequence a pure function of
// the schedule space, independent of where budget boundaries fall.
//
// The binary encoding is deterministic: sets are serialized sorted and the
// frontier in canonical order, so the same exploration state always
// produces the same bytes regardless of worker count or insert order.
type Checkpoint struct {
	// Target names the exploration target; resume requires it to match.
	Target string
	// Depth is the decision depth the frontier was built under; resume
	// requires the budget depth to match, since prefixes explored at one
	// depth do not cover the schedule space of another.
	Depth int
	// Schedules is the number of schedules counted so far.
	Schedules int
	// Fingerprints is the sorted outcome-fingerprint set (Distinct is its
	// length).
	Fingerprints []uint64
	// Seen is the sorted prefix-hash dedup set.
	Seen []uint64
	// Frontier is every pending prefix in canonical (shortlex) order.
	Frontier [][]int
}

// Done reports whether the schedule space was exhausted: resuming a done
// checkpoint returns the same report without executing anything.
func (c *Checkpoint) Done() bool { return len(c.Frontier) == 0 }

// checkpointMagic versions the binary format.
var checkpointMagic = []byte("BLKCKPT1")

// Encode serializes the checkpoint. The layout is the magic, then a
// uvarint-framed payload (name, depth, schedules, the two sorted sets as
// fixed 64-bit little-endian words, the frontier as uvarint-length choice
// runs), then a 64-bit FNV-1a checksum of everything before it.
func (c *Checkpoint) Encode() []byte {
	buf := append([]byte{}, checkpointMagic...)
	var tmp [binary.MaxVarintLen64]byte
	uv := func(v uint64) { buf = append(buf, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }

	uv(uint64(len(c.Target)))
	buf = append(buf, c.Target...)
	uv(uint64(c.Depth))
	uv(uint64(c.Schedules))
	uv(uint64(len(c.Fingerprints)))
	for _, f := range c.Fingerprints {
		u64(f)
	}
	uv(uint64(len(c.Seen)))
	for _, s := range c.Seen {
		u64(s)
	}
	uv(uint64(len(c.Frontier)))
	for _, p := range c.Frontier {
		uv(uint64(len(p)))
		for _, ch := range p {
			uv(uint64(ch))
		}
	}
	u64(checksum(buf))
	return buf
}

// checksum is the FNV-1a hash Encode appends after the payload.
func checksum(b []byte) uint64 {
	sum := uint64(fnvOffset)
	for _, c := range b {
		sum ^= uint64(c)
		sum *= fnvPrime
	}
	return sum
}

// DecodeCheckpoint parses an Encode'd snapshot, verifying the magic and
// checksum and bounds-checking every count against the remaining input so
// a truncated or corrupted file fails loudly instead of resuming a
// half-read sweep.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(checkpointMagic)+8 || string(data[:len(checkpointMagic)]) != string(checkpointMagic) {
		return nil, fmt.Errorf("check: not a checkpoint file (bad magic)")
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	if binary.LittleEndian.Uint64(tail) != checksum(body) {
		return nil, fmt.Errorf("check: checkpoint checksum mismatch (file corrupted or truncated)")
	}
	r := body[len(checkpointMagic):]
	fail := func() (*Checkpoint, error) {
		return nil, fmt.Errorf("check: checkpoint payload truncated")
	}
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(r)
		if n <= 0 {
			return 0, false
		}
		r = r[n:]
		return v, true
	}
	u64s := func(n uint64) ([]uint64, bool) {
		if n > uint64(len(r))/8 { // not len(r) < 8*n, which wraps for n >= 2^61
			return nil, false
		}
		out := make([]uint64, n)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(r[8*i:])
		}
		r = r[8*n:]
		return out, true
	}

	c := &Checkpoint{}
	nameLen, ok := uv()
	if !ok || uint64(len(r)) < nameLen {
		return fail()
	}
	c.Target = string(r[:nameLen])
	r = r[nameLen:]
	depth, ok := uv()
	if !ok || depth > maxChoiceByte {
		return fail()
	}
	c.Depth = int(depth)
	sched, ok := uv()
	if !ok {
		return fail()
	}
	if sched > math.MaxInt {
		return nil, fmt.Errorf("check: checkpoint schedule count %d is out of range", sched)
	}
	c.Schedules = int(sched)
	nf, ok := uv()
	if !ok {
		return fail()
	}
	if c.Fingerprints, ok = u64s(nf); !ok {
		return fail()
	}
	ns, ok := uv()
	if !ok {
		return fail()
	}
	if c.Seen, ok = u64s(ns); !ok {
		return fail()
	}
	np, ok := uv()
	if !ok || np > uint64(len(r)) { // each entry consumes at least one byte
		return fail()
	}
	c.Frontier = make([][]int, 0, np)
	for i := uint64(0); i < np; i++ {
		pl, ok := uv()
		if !ok || pl > depth || pl > uint64(len(r)) {
			return fail()
		}
		p := make([]int, pl)
		for j := range p {
			ch, ok := uv()
			if !ok || ch > maxChoiceByte {
				return fail()
			}
			p[j] = int(ch)
		}
		c.Frontier = append(c.Frontier, p)
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("check: %d trailing bytes after checkpoint payload", len(r))
	}
	return c, nil
}
