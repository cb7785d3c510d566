// Command sigexplore explores the signature design space of Section 6.1:
// for a chunk layout and address mix it reports signature size, RLE
// compressibility, and false-positive rates under different bit
// permutations — the raw material behind Table 8 and Figure 15.
//
// Usage:
//
//	sigexplore                          # all 23 standard configurations
//	sigexplore -chunks 10,10           # one custom layout
//	sigexplore -chunks 10,9,7 -perms 32 -samples 5000
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bulk/internal/rng"
	"bulk/internal/sig"
	"bulk/internal/stats"
	"bulk/internal/workload"
)

func main() {
	var (
		chunksFlag = flag.String("chunks", "", "comma-separated chunk sizes (empty: all standard configs)")
		samples    = flag.Int("samples", 2000, "independent disambiguations sampled per variant")
		perms      = flag.Int("perms", 8, "random permutations tried per configuration")
		seed       = flag.Uint64("seed", 2006, "sampling seed")
		writeSet   = flag.Int("wset", 22, "committer write-set size (lines)")
		readSet    = flag.Int("rset", 68, "receiver read-set size (lines)")
	)
	flag.Parse()

	if err := validateFlags(*samples, *perms, *writeSet, *readSet); err != nil {
		fmt.Fprintf(os.Stderr, "sigexplore: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	var cfgs []*sig.Config
	if *chunksFlag == "" {
		all, err := sig.StandardConfigs(nil, sig.TMAddrBits)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sigexplore:", err)
			os.Exit(1)
		}
		cfgs = all
	} else {
		var chunks []int
		for _, tok := range strings.Split(*chunksFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fmt.Fprintf(os.Stderr, "sigexplore: bad chunk %q\n", tok)
				os.Exit(2)
			}
			chunks = append(chunks, v)
		}
		c, err := sig.NewConfig("custom", chunks, nil, sig.TMAddrBits)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sigexplore:", err)
			os.Exit(1)
		}
		cfgs = []*sig.Config{c}
	}

	t := stats.NewTable("Config", "Bits", "RLE avg", "FP% id", "FP% best", "FP% worst", "FP% paper")
	pr := rng.New(*seed ^ 0xeaf)
	for _, base := range cfgs {
		fpID := measure(base, *samples, *seed, *writeSet, *readSet)
		best, worst := fpID, fpID
		for i := 0; i < *perms; i++ {
			p, err := base.WithPerm(pr.Perm(base.AddrBits()))
			if err != nil {
				fmt.Fprintln(os.Stderr, "sigexplore:", err)
				os.Exit(1)
			}
			fp := measure(p, *samples, *seed, *writeSet, *readSet)
			if fp < best {
				best = fp
			}
			if fp > worst {
				worst = fp
			}
		}
		paperCfg, err := base.WithPerm(sig.TMPermutation)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sigexplore:", err)
			os.Exit(1)
		}
		fpPaper := measure(paperCfg, *samples, *seed, *writeSet, *readSet)
		t.Row(base.Name(), base.TotalBits(), rleAvg(base, *seed, *writeSet), fpID, best, worst, fpPaper)
	}
	t.Render(os.Stdout)
}

// maxSetLines bounds -wset and -rset. draw takes distinct lines from a
// pool of 768 shared plus 2^16 private lines per thread, so a set larger
// than the pool would never finish.
const maxSetLines = 1 << 16

// validateFlags rejects out-of-domain flag values before any sampling
// starts, so a typo'd invocation dies with usage (exit 2, like the flag
// package's own parse errors) instead of printing NaN or empty rows, or
// never finishing.
func validateFlags(samples, perms, wset, rset int) error {
	if samples < 1 {
		return fmt.Errorf("-samples %d must be at least 1", samples)
	}
	if perms < 0 {
		return fmt.Errorf("-perms %d is negative", perms)
	}
	if wset < 1 || wset > maxSetLines {
		return fmt.Errorf("-wset %d is outside [1, %d]", wset, maxSetLines)
	}
	if rset < 1 || rset > maxSetLines {
		return fmt.Errorf("-rset %d is outside [1, %d]", rset, maxSetLines)
	}
	return nil
}

// measure samples disjoint committer/receiver sets and reports the
// Equation-1 false positive percentage.
func measure(cfg *sig.Config, samples int, seed uint64, wset, rset int) float64 {
	r := rng.New(seed)
	fp := 0
	for i := 0; i < samples; i++ {
		seen := map[sig.Addr]bool{}
		draw := func(tid, n int, s *sig.Signature) {
			for k := 0; k < n; {
				var a sig.Addr
				if r.Bool(0.15) {
					a = sig.Addr(workload.TMSharedObjectLine(r.Intn(768)))
				} else {
					a = sig.Addr(workload.TMPrivateHeapLine(tid, r.Uint64n(1<<16)))
				}
				if !seen[a] {
					seen[a] = true
					s.Add(a)
					k++
				}
			}
		}
		wc := cfg.NewSignature()
		rr := cfg.NewSignature()
		draw(0, wset, wc)
		draw(1, rset, rr)
		if wc.Intersects(rr) {
			fp++
		}
	}
	return 100 * float64(fp) / float64(samples)
}

// rleAvg reports the mean RLE-compressed bits over sampled write sets.
func rleAvg(cfg *sig.Config, seed uint64, wset int) float64 {
	r := rng.New(seed ^ 0x51e)
	const trials = 100
	total := 0
	for i := 0; i < trials; i++ {
		s := cfg.NewSignature()
		for k := 0; k < wset; k++ {
			s.Add(sig.Addr(1<<20 + r.Intn(1<<21)))
		}
		total += sig.RLEncodedBits(s)
	}
	return float64(total) / trials
}
