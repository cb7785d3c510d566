package check

import (
	"bytes"
	"fmt"
	"sort"
)

// Schedule hashing. Walk remembers the canonical schedules it has run by a
// 64-bit FNV-1a fingerprint of their (trailing-defaults-trimmed) choice
// sequences, so a repeat draw is counted as a duplicate instead of being
// judged again (a 64-bit collision could only miscount a new draw as a
// repeat). The systematic explorer needs no such set: every prefix has one
// parent, so its tree never emits a prefix twice (see expandChildren).

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashStep extends a prefix hash by one canonical choice, mixing the
// choice exactly like the outcome fingerprint accumulator mixes a uint64
// (one byte at a time, little-endian).
//
//bulklint:noalloc
func hashStep(h uint64, c int) uint64 {
	v := uint64(c)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// hashSchedule fingerprints a canonical choice sequence. hashSchedule(nil)
// is the hash of the empty (default) schedule.
//
//bulklint:noalloc
func hashSchedule(s []int) uint64 {
	h := uint64(fnvOffset)
	for _, c := range s {
		h = hashStep(h, c)
	}
	return h
}

// frontier is the explorer's set of pending schedule prefixes, bucketed by
// canonical length. Prefixes are stored as raw choice bytes at a fixed
// stride per bucket (every pending prefix of length L occupies exactly L
// consecutive bytes), so a hundred-thousand-entry frontier is two flat
// allocations per live length rather than a slice header and backing
// array per prefix.
//
// The length bucketing is what makes parallel exploration deterministic:
// canonical (shortlex) order sorts first by length, every child of a
// length-L prefix is strictly longer than L, and the minimum pending
// length never decreases — so draining the minimum-length bucket in
// lexicographic order, wave by wave, visits prefixes in exactly the order
// a serial best-first explorer would, while leaving each wave free to
// execute on any number of workers.
type frontier struct {
	buckets [][]byte // buckets[L] holds counts[L] prefixes of L bytes each
	counts  []int
	total   int
}

// MaxDepth is the deepest budget the explorer accepts, and the largest
// canonical choice it can record: a frontier row stores its length and
// each choice in one byte. Stock budgets stop at depth 18, and decision
// arity is the number of runnable processors or branch alternatives —
// single digits in every workload — but a silent truncation here would
// turn one prefix into another, which then runs twice, so bulkcheck
// rejects a deeper -depth up front.
const MaxDepth = 255

// newFrontier builds a frontier for prefixes up to depth choices long.
func newFrontier(depth int) *frontier {
	if depth > MaxDepth {
		panic("check: budget depth exceeds one-byte prefix encoding") //bulklint:invariant bulkcheck rejects -depth above MaxDepth; stock budgets stop at 18
	}
	return &frontier{
		buckets: make([][]byte, depth+1),
		counts:  make([]int, depth+1),
	}
}

// empty reports whether no prefixes are pending.
func (f *frontier) empty() bool { return f.total == 0 }

// add enqueues one canonical prefix given as ints (the initial empty
// prefix).
func (f *frontier) add(p []int) {
	if len(p) >= len(f.buckets) {
		panic(fmt.Sprintf("check: frontier prefix of length %d exceeds depth %d", len(p), len(f.buckets)-1)) //bulklint:invariant the explorer adds only the empty prefix; expandChildren rows go through addRows
	}
	b := f.buckets[len(p)]
	for _, c := range p {
		b = append(b, byte(c))
	}
	f.buckets[len(p)] = b
	f.counts[len(p)]++
	f.total++
}

// addRows enqueues a batch of length-prefixed rows as emitted by
// expandChildren: each row is one byte of length L followed by L choice
// bytes.
func (f *frontier) addRows(rows []byte) {
	for off := 0; off < len(rows); {
		l := int(rows[off])
		off++
		f.buckets[l] = append(f.buckets[l], rows[off:off+l]...)
		f.counts[l]++
		f.total++
		off += l
	}
}

// takeMin removes and returns the entire minimum-length bucket — the next
// contiguous run of best-first order — sorted lexicographically. The
// returned buffer holds n prefixes of length bytes each (n == 1 and a nil
// buffer for the empty prefix).
func (f *frontier) takeMin() (length int, rows []byte, n int) {
	for l := 0; l < len(f.buckets); l++ {
		if f.counts[l] == 0 {
			continue
		}
		rows, n = f.buckets[l], f.counts[l]
		f.buckets[l] = nil
		f.total -= n
		f.counts[l] = 0
		if l > 0 {
			sortRows(rows, l)
		}
		return l, rows, n
	}
	return 0, nil, 0
}

// putBack returns the unexecuted tail of a taken bucket (rows from index
// from onward) when the schedule budget clipped a wave. Children of the
// executed head are strictly longer, so the bucket is guaranteed empty and
// the tail re-enters at the front of best-first order.
func (f *frontier) putBack(rows []byte, length, from, n int) {
	if from >= n {
		return
	}
	if length == 0 {
		f.add(nil)
		return
	}
	f.buckets[length] = append(f.buckets[length], rows[from*length:n*length]...)
	f.counts[length] += n - from
	f.total += n - from
}

// decodeRow expands row k of a fixed-stride buffer into ints, reusing dst.
func decodeRow(rows []byte, length, k int, dst []int) []int {
	dst = dst[:0]
	for _, b := range rows[k*length : (k+1)*length] {
		dst = append(dst, int(b))
	}
	return dst
}

// sortRows orders the fixed-stride rows of buf lexicographically. Rows are
// distinct (every prefix has one parent, which runs once), so the order is
// total and identical no matter which worker emitted which row.
func sortRows(buf []byte, stride int) {
	if len(buf) <= stride {
		return
	}
	sort.Sort(&rowSorter{buf: buf, stride: stride, tmp: make([]byte, stride)})
}

type rowSorter struct {
	buf    []byte
	stride int
	tmp    []byte
}

func (r *rowSorter) Len() int { return len(r.buf) / r.stride }

func (r *rowSorter) Less(i, j int) bool {
	return bytes.Compare(r.row(i), r.row(j)) < 0
}

func (r *rowSorter) Swap(i, j int) {
	copy(r.tmp, r.row(i))
	copy(r.row(i), r.row(j))
	copy(r.row(j), r.tmp)
}

func (r *rowSorter) row(i int) []byte {
	return r.buf[i*r.stride : (i+1)*r.stride]
}
