// Command bulktrace inspects the synthetic workloads: per-application
// footprint statistics (the Table 6/7 calibration targets), sharing
// structure, and estimated signature pressure for a chosen configuration.
//
// Usage:
//
//	bulktrace -kind tm                 # all TM profiles
//	bulktrace -kind tls -app crafty    # one TLS profile
//	bulktrace -kind tm -sig S14        # include signature occupancy
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"bulk/internal/sig"
	"bulk/internal/stats"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

func main() {
	var (
		kind    = flag.String("kind", "tm", "tm or tls")
		app     = flag.String("app", "", "application name (empty: all)")
		seed    = flag.Uint64("seed", 2006, "generation seed")
		sigName = flag.String("sig", "S14", "signature configuration for occupancy estimates")
	)
	flag.Parse()

	if err := validateFlags(*kind, *app, *sigName); err != nil {
		fmt.Fprintln(os.Stderr, "bulktrace:", err)
		flag.Usage()
		os.Exit(2)
	}
	switch *kind {
	case "tm":
		cfg, err := sig.StandardConfig(*sigName, sig.TMPermutation, sig.TMAddrBits)
		if err != nil {
			fatal(err)
		}
		t := stats.NewTable("App", "Txns", "Rd lines", "Wr lines", "Ops/txn", "Shared rd", "Shared wr", "W-sig bits set")
		for _, p := range workload.TMProfiles() {
			if *app != "" && p.Name != *app {
				continue
			}
			row := tmRow(p, *seed, cfg)
			t.Row(row...)
		}
		t.Render(os.Stdout)
	case "tls":
		cfg, err := sig.StandardConfig(*sigName, sig.TLSPermutation, sig.TLSAddrBits)
		if err != nil {
			fatal(err)
		}
		t := stats.NewTable("App", "Tasks", "Rd words", "Wr words", "Ops/task", "Spawn idx", "W-sig bits set")
		for _, p := range workload.TLSProfiles() {
			if *app != "" && p.Name != *app {
				continue
			}
			row := tlsRow(p, *seed, cfg)
			t.Row(row...)
		}
		t.Render(os.Stdout)
	}
}

// validateFlags rejects an unknown kind, application or signature
// configuration before any workload is generated, so a typo'd invocation
// dies with usage (exit 2, like the flag package's own parse errors)
// instead of printing a table with no rows.
func validateFlags(kind, app, sigName string) error {
	var known bool
	switch kind {
	case "tm":
		_, known = workload.TMProfileByName(app)
	case "tls":
		_, known = workload.TLSProfileByName(app)
	default:
		return fmt.Errorf("unknown -kind %q (want tm or tls)", kind)
	}
	if app != "" && !known {
		return fmt.Errorf("-app %q is not a %s profile", app, kind)
	}
	if !slices.Contains(sig.StandardConfigNames(), sigName) {
		return fmt.Errorf("unknown -sig %q (want one of S1..S23)", sigName)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bulktrace:", err)
	os.Exit(1)
}

// tmRow summarizes one TM profile's generated workload.
func tmRow(p workload.TMProfile, seed uint64, cfg *sig.Config) []any {
	w := workload.GenerateTM(p, seed)
	var txns, rd, wr, ops, shRd, shWr, bits float64
	for _, th := range w.Threads {
		for _, seg := range th.Segments {
			if !seg.Txn {
				continue
			}
			txns++
			fp := trace.FootprintOf(seg.Ops, workload.WordsPerLine)
			rd += float64(fp.ReadLines)
			wr += float64(fp.WriteLines)
			ops += float64(len(seg.Ops))
			ws := cfg.NewSignature()
			for _, op := range seg.Ops {
				line := workload.LineOf(op.Addr)
				shared := line < 1<<20 && line >= 64
				switch op.Kind {
				case trace.Read:
					if shared {
						shRd++
					}
				default:
					if shared {
						shWr++
					}
					ws.Add(sig.Addr(line))
				}
			}
			bits += float64(ws.PopCount())
		}
	}
	return []any{p.Name, int(txns), rd / txns, wr / txns, ops / txns, shRd / txns, shWr / txns, bits / txns}
}

// tlsRow summarizes one TLS profile's generated workload.
func tlsRow(p workload.TLSProfile, seed uint64, cfg *sig.Config) []any {
	w := workload.GenerateTLS(p, seed)
	var rd, wr, ops, spawn, bits float64
	for _, task := range w.Tasks {
		fp := trace.FootprintOf(task.Ops, workload.WordsPerLine)
		rd += float64(fp.ReadWords)
		wr += float64(fp.WriteWords)
		ops += float64(len(task.Ops))
		spawn += float64(task.SpawnIndex)
		ws := cfg.NewSignature()
		for _, op := range task.Ops {
			if op.Kind != trace.Read {
				ws.Add(sig.Addr(op.Addr))
			}
		}
		bits += float64(ws.PopCount())
	}
	n := float64(len(w.Tasks))
	return []any{p.Name, len(w.Tasks), rd / n, wr / n, ops / n, spawn / n, bits / n}
}
