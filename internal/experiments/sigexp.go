package experiments

import (
	"fmt"
	"io"
	"strings"

	"bulk/internal/flatmap"
	"bulk/internal/par"
	"bulk/internal/rng"
	"bulk/internal/sig"
	"bulk/internal/stats"
	"bulk/internal/workload"
)

// addrSampler draws line addresses with the TM workloads' structure: a
// shared hot region plus per-thread private heaps, so the bit-distribution
// seen by the signatures matches what the simulator produces. Its scratch
// state (dedup set, set slices) is reused across samples, so the sampling
// loop allocates nothing after warm-up.
type addrSampler struct {
	r          *rng.Rand
	seen       flatmap.Set
	wc, rd, wr []sig.Addr
}

func newAddrSampler(seed uint64) *addrSampler {
	return &addrSampler{r: rng.New(seed)}
}

func (s *addrSampler) line(tid int) sig.Addr {
	if s.r.Bool(0.15) {
		// Shared objects, laid out exactly like the TM workload's.
		return sig.Addr(workload.TMSharedObjectLine(s.r.Intn(768)))
	}
	return sig.Addr(workload.TMPrivateHeapLine(tid, s.r.Uint64n(1<<16)))
}

// sampleSets draws a committer write set and a receiver read and write set
// that are guaranteed mutually disjoint (the "no dependence" ground truth
// of the Figure 15 methodology). The returned slices are owned by the
// sampler and overwritten by the next call.
func (s *addrSampler) sampleSets(nW, nR, nW2 int) (wc, rd, wr []sig.Addr) {
	s.seen.Reset()
	draw := func(tid, n int, dst []sig.Addr) []sig.Addr {
		for len(dst) < n {
			a := s.line(tid)
			if !s.seen.Has(uint64(a)) {
				s.seen.Add(uint64(a))
				dst = append(dst, a)
			}
		}
		return dst
	}
	s.wc = draw(0, nW, s.wc[:0])
	s.rd = draw(1, nR, s.rd[:0])
	s.wr = draw(1, nW2, s.wr[:0])
	return s.wc, s.rd, s.wr
}

// falsePositiveRate measures the fraction of disjoint-set disambiguations
// that a configuration flags as dependent (Equation 1 on aliased bits).
// It is a pure function of (cfg, samples, seed) — the property the
// parallel sweeps below rely on — and reuses its three signatures across
// samples, so the hot loop is allocation-free.
func falsePositiveRate(cfg *sig.Config, samples int, seed uint64) float64 {
	s := newAddrSampler(seed)
	wc := cfg.NewSignature()
	// Receiver sets split like the runtime does: reads into R, writes
	// into W; Equation 1 checks both.
	r := cfg.NewSignature()
	w := cfg.NewSignature()
	fp := 0
	for i := 0; i < samples; i++ {
		wcSet, rdSet, wrSet := s.sampleSets(22, 68, 22)
		wc.Clear()
		r.Clear()
		w.Clear()
		for _, a := range wcSet {
			wc.Add(a)
		}
		for _, a := range rdSet {
			r.Add(a)
		}
		for _, a := range wrSet {
			w.Add(a)
		}
		if wc.Intersects(r) || wc.Intersects(w) {
			fp++
		}
	}
	return 100 * float64(fp) / float64(samples)
}

// Table8Row describes one signature configuration.
type Table8Row struct {
	ID             string
	FullBits       int
	CompressedBits float64 // average RLE size over sampled write sets
	Chunks         string
}

// Table8Result reproduces Table 8.
type Table8Result struct {
	Rows []Table8Row
}

// Table8 builds the 23 standard configurations and measures their average
// RLE-compressed size over TM-sized write sets (22 lines), using the
// paper's TM permutation.
func Table8(c Config) (*Table8Result, error) {
	cfgs, err := sig.StandardConfigs(sig.TMPermutation, sig.TMAddrBits)
	if err != nil {
		return nil, err
	}
	const trials, setLines = 200, 22
	// All 23 configurations consume one shared sampler stream, so the write
	// sets are pre-drawn serially in the exact order the sequential loop
	// used — the printed averages are unchanged — and only the encode work
	// (signature build + RLE size) fans out per configuration. The sets
	// lie back to back in one array: configuration i's trial t is the
	// setLines addresses at (i*trials+t)*setLines.
	sets := make([]sig.Addr, 0, len(cfgs)*trials*setLines)
	s := newAddrSampler(c.Seed)
	for range len(cfgs) * trials {
		wset, _, _ := s.sampleSets(setLines, 0, 0)
		sets = append(sets, wset...)
	}
	res := &Table8Result{Rows: make([]Table8Row, len(cfgs))}
	err = par.ForEach(len(cfgs), func(i int) error {
		cfg := cfgs[i]
		w := cfg.NewSignature()
		total := 0
		mine := sets[i*trials*setLines : (i+1)*trials*setLines]
		for t := 0; t < trials; t++ {
			w.Clear()
			for _, a := range mine[t*setLines : (t+1)*setLines] {
				w.Add(a)
			}
			total += sig.RLEncodedBits(w)
		}
		chunks := make([]string, 0, 8)
		for _, ch := range cfg.Chunks() {
			chunks = append(chunks, fmt.Sprintf("%d", ch))
		}
		res.Rows[i] = Table8Row{
			ID:             cfg.Name(),
			FullBits:       cfg.TotalBits(),
			CompressedBits: float64(total) / trials,
			Chunks:         strings.Join(chunks, ","),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders Table 8.
func (r *Table8Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 8: Signature configurations (22-line write sets, TM permutation)")
	t := stats.NewTable("ID", "Full (bits)", "Compressed avg (bits)", "Chunks")
	for _, row := range r.Rows {
		t.Row(row.ID, row.FullBits, row.CompressedBits, row.Chunks)
	}
	t.Render(w)
}

// HashRow compares bit-selected and hashed field indexing at one size,
// under two address regimes.
type HashRow struct {
	Size string
	Bits int
	// Structured regime: the TM heap layout (thread-partitioned heaps,
	// scattered shared objects), which the paper's permutation exploits.
	StructBitSel, StructHashed float64
	// Clustered regime: dense same-offset blocks in different memory
	// segments, differing only in address bits the bit-select chunks do
	// not consume — bit selection's blind spot.
	ClusterBitSel, ClusterHashed float64
	// Decode capability: whether the configuration supports the exact δ
	// decode Bulk's cache invalidation requires (never true for hashed).
	BitSelDecodes, HashedDecodes bool
}

// HashResult is the bit-select vs hashed-indexing ablation. The two
// regimes make the design trade-off concrete: bit selection with a tuned
// permutation exploits address structure and wins on real heap layouts,
// but is blind to bits outside its chunks; hashing is insensitive to
// layout in both directions. And only bit selection can recover cache-set
// indices, which Section 4.3's invalidation correctness requires — the
// architectural reason Bulk selects bits.
type HashResult struct {
	Rows []HashRow
}

// clusteredFalsePositiveRate measures disjoint dense blocks whose
// addresses differ only in bits 21+ — which the TM permutation's chunks
// never consume.
func clusteredFalsePositiveRate(cfg *sig.Config, samples int, seed uint64) float64 {
	r := rng.New(seed ^ 0xc1)
	wc := cfg.NewSignature()
	rr := cfg.NewSignature()
	fp := 0
	for i := 0; i < samples; i++ {
		base := sig.Addr(r.Intn(1 << 12))
		wc.Clear()
		rr.Clear()
		for k := 0; k < 22; k++ {
			wc.Add(base + sig.Addr(r.Intn(1<<9)))
		}
		for k := 0; k < 90; k++ {
			rr.Add(base + 1<<22 + sig.Addr(r.Intn(1<<9)))
		}
		if wc.Intersects(rr) {
			fp++
		}
	}
	return 100 * float64(fp) / float64(samples)
}

// AblationHash measures false-positive rates for both indexing schemes in
// both regimes.
func AblationHash(c Config) (*HashResult, error) {
	samples := c.fig15Samples()
	sizes := [][]int{{8, 8}, {9, 9}, {10, 10}, {11, 11}}
	res := &HashResult{Rows: make([]HashRow, len(sizes))}
	// Each row's rates are pure functions of (chunks, c.Seed), so the four
	// sizes fan out independently and land by index.
	err := par.ForEach(len(sizes), func(i int) error {
		chunks := sizes[i]
		name := fmt.Sprintf("2x%d", chunks[0])
		bitSel, err := sig.NewConfig(name, chunks, sig.TMPermutation, sig.TMAddrBits)
		if err != nil {
			return err
		}
		hashed, err := sig.NewHashedConfig(name, chunks, sig.TMAddrBits, c.Seed)
		if err != nil {
			return err
		}
		row := HashRow{
			Size:          name,
			Bits:          bitSel.TotalBits(),
			StructBitSel:  falsePositiveRate(bitSel, samples, c.Seed),
			StructHashed:  falsePositiveRate(hashed, samples, c.Seed),
			ClusterBitSel: clusteredFalsePositiveRate(bitSel, samples, c.Seed),
			ClusterHashed: clusteredFalsePositiveRate(hashed, samples, c.Seed),
		}
		_, errB := sig.NewDecodePlan(bitSel, sig.IndexSpec{LowBit: 0, Bits: 7})
		_, errH := sig.NewDecodePlan(hashed, sig.IndexSpec{LowBit: 0, Bits: 7})
		row.BitSelDecodes = errB == nil
		row.HashedDecodes = errH == nil
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders the hashing ablation.
func (r *HashResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation: bit-selected vs hashed signature indexing (FP%)")
	t := stats.NewTable("Fields", "Bits",
		"heap bit-sel", "heap hashed", "clustered bit-sel", "clustered hashed", "δ decode")
	for _, row := range r.Rows {
		t.Row(row.Size, row.Bits,
			row.StructBitSel, row.StructHashed,
			row.ClusterBitSel, row.ClusterHashed,
			fmt.Sprintf("%v / %v", row.BitSelDecodes, row.HashedDecodes))
	}
	t.Render(w)
	fmt.Fprintln(w, "Bit selection + a tuned permutation exploits heap structure but is blind")
	fmt.Fprintln(w, "to unconsumed bits; hashing is layout-insensitive both ways. Only")
	fmt.Fprintln(w, "bit selection supports the exact δ decode Bulk's invalidation needs.")
}

// Figure15Row is one configuration's bar plus its permutation error bar.
type Figure15Row struct {
	ID       string
	FullBits int
	// NoPerm is the false-positive rate without any bit permutation (the
	// bar in Figure 15).
	NoPerm float64
	// BestPerm/WorstPerm bound the rates across sampled permutations (the
	// error segment).
	BestPerm, WorstPerm float64
	// PaperPerm is the rate under the paper's TM permutation.
	PaperPerm float64
}

// Figure15Result reproduces Figure 15.
type Figure15Result struct {
	Rows    []Figure15Row
	Samples int
}

// Figure15 measures false-positive rates for all 23 configurations, with
// identity, random, and paper permutations.
func Figure15(c Config) (*Figure15Result, error) {
	samples := c.fig15Samples()
	nPerms := c.fig15Perms()
	names := sig.StandardConfigNames()
	// The random permutations come from one shared stream, so they are
	// pre-drawn serially in the sequential loop's order (outer: config,
	// inner: perm) — identical perms land at identical rows — and the
	// expensive sampling sweeps fan out per configuration. This is the
	// engine's heaviest exhibit: 23 configs x (nPerms+2) sweeps.
	permRand := rng.New(c.Seed ^ 0xf15)
	perms := make([][][]int, len(names))
	for i := range names {
		perms[i] = make([][]int, nPerms)
		for k := 0; k < nPerms; k++ {
			perms[i][k] = permRand.Perm(sig.TMAddrBits)
		}
	}
	res := &Figure15Result{Samples: samples, Rows: make([]Figure15Row, len(names))}
	err := par.ForEach(len(names), func(i int) error {
		name := names[i]
		base, err := sig.StandardConfig(name, nil, sig.TMAddrBits)
		if err != nil {
			return err
		}
		row := Figure15Row{ID: name, FullBits: base.TotalBits()}
		row.NoPerm = falsePositiveRate(base, samples, c.Seed)
		row.BestPerm, row.WorstPerm = row.NoPerm, row.NoPerm
		for _, perm := range perms[i] {
			cfg, err := base.WithPerm(perm)
			if err != nil {
				return err
			}
			rate := falsePositiveRate(cfg, samples, c.Seed)
			if rate < row.BestPerm {
				row.BestPerm = rate
			}
			if rate > row.WorstPerm {
				row.WorstPerm = rate
			}
		}
		paper, err := sig.StandardConfig(name, sig.TMPermutation, sig.TMAddrBits)
		if err != nil {
			return err
		}
		row.PaperPerm = falsePositiveRate(paper, samples, c.Seed)
		if row.PaperPerm < row.BestPerm {
			row.BestPerm = row.PaperPerm
		}
		if row.PaperPerm > row.WorstPerm {
			row.WorstPerm = row.PaperPerm
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders Figure 15.
func (r *Figure15Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 15: False positives in independent disambiguations (%d samples each)\n", r.Samples)
	t := stats.NewTable("ID", "Bits", "FP% (no perm)", "FP% best perm", "FP% worst perm", "FP% paper perm")
	for _, row := range r.Rows {
		t.Row(row.ID, row.FullBits, row.NoPerm, row.BestPerm, row.WorstPerm, row.PaperPerm)
	}
	t.Render(w)
}
