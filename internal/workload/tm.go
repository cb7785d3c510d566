package workload

import (
	"bulk/internal/rng"
	"bulk/internal/trace"
)

// TMProfile parameterizes the synthetic stand-in for one of the paper's TM
// applications (Table 4). The footprint targets come from Table 7; the
// contention structure is chosen so the squash behaviour and the Eager/Lazy
// contrast (Figure 11, Figure 12) have the paper's shape.
type TMProfile struct {
	Name    string
	Threads int
	// TxnsPerThread is the number of transactions each thread executes.
	TxnsPerThread int
	// ReadLines/WriteLines are the target mean distinct read and write
	// footprints per transaction, in cache lines (Table 7).
	ReadLines  int
	WriteLines int
	// SharedLines is the size of the shared region (in lines) that
	// transactions contend on.
	SharedLines int
	// SharedReads/SharedWrites are how many of a transaction's distinct
	// lines fall in the shared region.
	SharedReads  int
	SharedWrites int
	// HotRMW is the number of read-modify-write accesses each transaction
	// performs on a tiny HotLines-sized region. This is the pattern of
	// Figure 12(a) that starves Eager schemes; sjbb2k has it, the Java
	// Grande kernels mostly do not.
	HotRMW   int
	HotLines int
	// DepFrac is the fraction of writes that are WriteDep (flow-dependent
	// on the last read), threading read values into memory.
	DepFrac float64
	// NonTxnOps is the length of the non-transactional stretch between
	// transactions (the paper's TM model supports non-transactional code).
	NonTxnOps int
	// NonTxnSharedFrac is the fraction of non-transactional accesses that
	// touch the shared region.
	NonTxnSharedFrac float64
	// NestProb is the probability a transaction is a closed nest of 2–3
	// sections (Section 6.2.1).
	NestProb float64
	// ThinkBase/ThinkSpread shape per-op compute time.
	ThinkBase, ThinkSpread int
	// ReuseProb is the probability a private line is reused from the
	// thread's recent working set rather than freshly allocated.
	ReuseProb float64
}

// TMProfiles returns the seven application profiles of Table 4, calibrated
// to the Table 7 footprints:
//
//	app      RdSet(L) WrSet(L)
//	cb         73.6     26.9
//	jgrt       67.1     22.1
//	lu         81.7     27.3
//	mc         51.6     17.6
//	moldyn     70.2     25.1
//	series     86.9     25.9
//	sjbb2k     41.6     11.2
func TMProfiles() []TMProfile {
	base := TMProfile{
		Threads:       8,
		TxnsPerThread: 30,
		// The Java Grande kernels are data-parallel and conflict rarely;
		// most shared accesses hit disjoint portions of a large shared
		// structure. sjbb2k overrides this with its hot RMW records.
		SharedLines:  768,
		SharedReads:  5,
		SharedWrites: 2,
		DepFrac:      0.3,
		NonTxnOps:    24,
		ThinkBase:    1,
		ThinkSpread:  3,
		ReuseProb:    0.5,
	}
	mk := func(name string, rd, wr int, f func(*TMProfile)) TMProfile {
		p := base
		p.Name = name
		p.ReadLines = rd
		p.WriteLines = wr
		if f != nil {
			f(&p)
		}
		return p
	}
	return []TMProfile{
		mk("cb", 74, 27, func(p *TMProfile) { p.SharedReads = 7; p.SharedWrites = 3 }),
		mk("jgrt", 67, 22, func(p *TMProfile) { p.SharedReads = 6; p.SharedWrites = 2 }),
		mk("lu", 82, 27, func(p *TMProfile) { p.SharedReads = 5; p.SharedWrites = 2; p.NestProb = 0.2 }),
		mk("mc", 52, 18, func(p *TMProfile) { p.SharedReads = 4; p.SharedWrites = 2; p.NonTxnOps = 48 }),
		mk("moldyn", 70, 25, func(p *TMProfile) { p.SharedReads = 5; p.SharedWrites = 2; p.NestProb = 0.15 }),
		mk("series", 87, 26, func(p *TMProfile) { p.SharedReads = 4; p.SharedWrites = 2 }),
		mk("sjbb2k", 42, 11, func(p *TMProfile) {
			p.SharedReads = 4
			p.SharedWrites = 2
			p.HotRMW = 2
			p.HotLines = 6
			p.NonTxnOps = 36
			p.NestProb = 0.1
		}),
	}
}

// TMProfileByName returns the named profile.
func TMProfileByName(name string) (TMProfile, bool) {
	for _, p := range TMProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	return TMProfile{}, false
}

// Address-space layout (word addresses, within the 26-bit line space of
// Table 5):
//
//	lines [0, HotLines)                    tiny RMW-contended region
//	lines [hotBase, hotBase+SharedLines)   shared region
//	lines [privBase + t*privHeap, ...)     per-thread private heaps
//
// The private heaps are deliberately wide (2^18 lines per thread): real
// Java heaps spread entropy across many address bits, and the signature
// chunks C2..Cn rely on that entropy — a dense heap would make distinct
// addresses alias in the high chunks and inflate false positives far beyond
// what the paper's applications see.
// The layout packs all entropy into address bits 0..20 — the bits the
// paper's TM permutation actually feeds into S14's chunks (C1 reads bits
// {0-6,9,11,17}, C2 reads {7,8,10,12,13,15,16,18,19,20}; bits 21..25 are
// not consumed). Private lines carry a discriminator in each chunk — bit 9
// (C1) and bit 20 (C2) set, both clear in shared lines — and the thread id
// in bits 17..19 (split across the chunks). Consequently private↔shared
// pairs are disjoint in V1, private↔private pairs of different threads are
// disjoint in V1 or V2, and only shared↔shared pairs can alias. This is
// the address-space/permutation co-design the paper describes as "good
// permutations group together bits that vary more"; without it any
// Bloom-style signature would alias far beyond what the paper's
// applications see.
const (
	tmHotBase  = 64
	tmPrivBase = 1 << 20 // bit 20: private marker seen by chunk C2
	tmPrivMark = 1 << 9  // bit 9: private marker seen by chunk C1
)

type tmGen struct {
	p   TMProfile
	tid int
	r   *rng.Rand
	// recent private lines for working-set reuse
	recent []uint64
	// readLines and writeLines are the transaction's distinct lines,
	// scratch that every transaction of the thread reuses.
	readLines, writeLines []uint64
}

// TMPrivateHeapLine packs a thread-private heap line: bits 0..8 and 10..16
// carry the 16 bits of heap entropy, bit 9 and bit 20 are the private
// markers, bits 17..19 the thread id.
func TMPrivateHeapLine(tid int, entropy uint64) uint64 {
	entropy &= (1 << 16) - 1
	return tmPrivBase + tmPrivMark +
		uint64(tid&7)<<17 +
		(entropy>>9)<<10 +
		(entropy & 0x1ff)
}

// TMSharedObjectLine returns shared object i's line: heap-scattered with
// entropy in bits 0..8, 10..16 and 17..19, private marker bits clear.
func TMSharedObjectLine(i int) uint64 {
	s := Scatter(i, 1<<19)
	return (s & 0x1ff) | (s>>9&0x7f)<<10 | (s >> 16 << 17)
}

func (g *tmGen) privateLine() uint64 {
	if len(g.recent) > 8 && g.r.Bool(g.p.ReuseProb) {
		return g.recent[g.r.Intn(len(g.recent))]
	}
	l := TMPrivateHeapLine(g.tid, g.r.Uint64n(1<<16))
	g.recent = append(g.recent, l)
	if len(g.recent) > 256 {
		g.recent = g.recent[len(g.recent)-256:]
	}
	return l
}

// sharedLine picks one of the SharedLines shared objects.
func (g *tmGen) sharedLine() uint64 {
	return TMSharedObjectLine(g.r.Intn(g.p.SharedLines))
}

func (g *tmGen) hotLine() uint64 {
	return uint64(g.r.Intn(g.p.HotLines))
}

func (g *tmGen) wordIn(line uint64) uint64 {
	return line*WordsPerLine + uint64(g.r.Intn(WordsPerLine))
}

func (g *tmGen) think() uint16 {
	t := g.p.ThinkBase
	if g.p.ThinkSpread > 0 {
		t += g.r.Intn(g.p.ThinkSpread)
	}
	return uint16(t)
}

// transaction builds one transaction's op stream.
func (g *tmGen) transaction() TMSegment {
	p := g.p
	nR := g.r.NormalishInt(p.ReadLines, p.ReadLines/4, 1)
	nW := g.r.NormalishInt(p.WriteLines, p.WriteLines/4, 1)

	// Choose the distinct lines.
	g.readLines, g.writeLines = g.readLines[:0], g.writeLines[:0]
	for i := 0; i < nR; i++ {
		if i < p.SharedReads {
			g.readLines = append(g.readLines, g.sharedLine())
		} else {
			g.readLines = append(g.readLines, g.privateLine())
		}
	}
	for i := 0; i < nW; i++ {
		if i < p.SharedWrites {
			g.writeLines = append(g.writeLines, g.sharedLine())
		} else {
			g.writeLines = append(g.writeLines, g.privateLine())
		}
	}

	// Emit ops: reads weighted toward the front (transactions read their
	// inputs, compute, write results), writes toward the back, lightly
	// shuffled.
	ops := make([]trace.Op, 0, 2*p.HotRMW+nR+nW)
	emitRead := func(line uint64) {
		ops = append(ops, trace.Op{Kind: trace.Read, Addr: g.wordIn(line), Think: g.think()})
	}
	emitWrite := func(line uint64) {
		k := trace.Write
		if g.r.Bool(p.DepFrac) {
			k = trace.WriteDep
		}
		ops = append(ops, trace.Op{Kind: k, Addr: g.wordIn(line), Think: g.think()})
	}

	// Hot read-modify-writes first (lock-like counters at txn entry).
	for i := 0; i < p.HotRMW; i++ {
		l := g.hotLine()
		w := g.wordIn(l)
		ops = append(ops, trace.Op{Kind: trace.Read, Addr: w, Think: g.think()})
		ops = append(ops, trace.Op{Kind: trace.WriteDep, Addr: w, Think: g.think()})
	}

	ri, wi := 0, 0
	for ri < nR || wi < nW {
		// Probability of issuing a read next, proportional to remaining.
		remR := nR - ri
		remW := nW - wi
		if remW == 0 || (remR > 0 && g.r.Intn(remR+remW) < remR) {
			emitRead(g.readLines[ri])
			ri++
		} else {
			emitWrite(g.writeLines[wi])
			wi++
		}
	}
	return TMSegment{Txn: true, Ops: ops, Sections: g.sections(len(ops))}
}

// sections returns a transaction's section starts: []int{0} for a flat
// transaction, or with probability NestProb a closed nest of 2–3 sections
// split at distinct random interior boundaries, in ascending order.
func (g *tmGen) sections(nOps int) []int {
	if g.p.NestProb <= 0 || !g.r.Bool(g.p.NestProb) || nOps < 9 {
		return []int{0}
	}
	n := 2 + g.r.Intn(2)
	b := 1 + g.r.Intn(nOps-1)
	if n == 2 {
		return []int{0, b}
	}
	c := b
	for c == b {
		c = 1 + g.r.Intn(nOps-1)
	}
	return []int{0, min(b, c), max(b, c)}
}

// nonTxn builds the non-transactional stretch between transactions.
// Non-transactional code uses only plain reads and writes (no WriteDep):
// its accesses are unordered with respect to concurrent commits, so
// flow-dependent values would make the serializability oracle ambiguous.
func (g *tmGen) nonTxn() TMSegment {
	p := g.p
	n := g.r.NormalishInt(p.NonTxnOps, p.NonTxnOps/3, 0)
	ops := make([]trace.Op, 0, n)
	for i := 0; i < n; i++ {
		var line uint64
		if g.r.Bool(p.NonTxnSharedFrac) {
			line = g.sharedLine()
		} else {
			line = g.privateLine()
		}
		k := trace.Read
		// Non-transactional stretches are read-mostly: the lock-based
		// originals did their updates inside the critical sections that
		// became transactions. Heavy non-transactional writing would also
		// litter the cache with non-speculative dirty lines and inflate
		// the Set Restriction's safe writebacks far beyond Table 7.
		if g.r.Bool(0.1) {
			k = trace.Write
		}
		ops = append(ops, trace.Op{Kind: k, Addr: g.wordIn(line), Think: g.think()})
	}
	return TMSegment{Txn: false, Ops: ops}
}

// GenerateTM builds the workload for a profile. The same (profile, seed)
// always yields the same workload.
func GenerateTM(p TMProfile, seed uint64) *TMWorkload {
	root := rng.New(seed ^ hashName(p.Name))
	w := &TMWorkload{Name: p.Name, Threads: make([]TMThread, p.Threads)}
	for t := 0; t < p.Threads; t++ {
		g := &tmGen{p: p, tid: t, r: root.Fork()}
		segs := make([]TMSegment, 0, 2*p.TxnsPerThread)
		for i := 0; i < p.TxnsPerThread; i++ {
			if p.NonTxnOps > 0 {
				segs = append(segs, g.nonTxn())
			}
			segs = append(segs, g.transaction())
		}
		w.Threads[t].Segments = segs
	}
	return w
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
