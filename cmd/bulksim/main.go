// Command bulksim regenerates the tables and figures of "Bulk
// Disambiguation of Speculative Threads in Multiprocessors" (ISCA 2006)
// from the simulator in this repository.
//
// Usage:
//
//	bulksim -exp fig10          # one experiment
//	bulksim -exp all            # everything, paper order
//	bulksim -list               # list experiment ids
//	bulksim -exp fig15 -quick   # scaled-down run
//
// Flags -seed, -tasks and -txns override workload generation; -noverify
// skips the end-to-end correctness oracle (faster).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"bulk/internal/bus"
	"bulk/internal/experiments"
	"bulk/internal/serve"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		seed     = flag.Uint64("seed", 2006, "workload generation seed")
		tasks    = flag.Int("tasks", 0, "override TLS tasks per application (0 = default)")
		txns     = flag.Int("txns", 0, "override TM transactions per thread (0 = default)")
		samples  = flag.Int("samples", 0, "override Figure 15 samples per configuration")
		perms    = flag.Int("perms", 0, "override Figure 15 permutations per configuration")
		quick    = flag.Bool("quick", false, "use the scaled-down test configuration")
		noverify = flag.Bool("noverify", false, "skip end-to-end correctness verification")
		parallel = flag.Bool("parallel", false, "run experiments concurrently (outputs stay ordered)")
		notime   = flag.Bool("notime", false, "omit wall time from trailers (deterministic output, matches bulkd responses)")
	)
	flag.Parse()

	if err := validateFlags(*exp, *tasks, *txns, *samples, *perms); err != nil {
		fmt.Fprintf(os.Stderr, "bulksim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-22s %s\n", r.ID, r.Description)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	if *tasks > 0 {
		cfg.TLSTasks = *tasks
	}
	if *txns > 0 {
		cfg.TMTxns = *txns
	}
	if *samples > 0 {
		cfg.Fig15Samples = *samples
	}
	if *perms > 0 {
		cfg.Fig15Perms = *perms
	}
	cfg.Verify = !*noverify
	// One meter shared by every simulation this invocation runs — in
	// parallel mode it is fed from many goroutines; the totals are
	// order-independent sums, so the summary line stays deterministic.
	meter := &bus.Meter{}
	cfg.Meter = meter

	runners := experiments.All()
	if *exp != "all" {
		r, _ := experiments.ByID(*exp)
		runners = []experiments.Runner{r}
	}

	if !*parallel {
		for i, r := range runners {
			if i > 0 {
				fmt.Println()
			}
			start := time.Now()
			p, err := r.Run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bulksim: %s: %v\n", r.ID, err)
				os.Exit(1)
			}
			p.Print(os.Stdout)
			secs := time.Since(start).Seconds()
			if *notime {
				secs = -1
			}
			fmt.Print(serve.ExhibitTrailer(r.ID, secs, cfg.Verify))
		}
		printMeter(meter)
		return
	}

	// Parallel mode: every experiment is deterministic and independent
	// (each builds its own workloads from the seed), so they can run
	// concurrently; outputs are buffered and printed in registry order.
	type outcome struct {
		buf bytes.Buffer
		err error
	}
	outs := make([]outcome, len(runners))
	var wg sync.WaitGroup
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r experiments.Runner) {
			defer wg.Done()
			start := time.Now()
			p, err := r.Run(cfg)
			if err != nil {
				outs[i].err = err
				return
			}
			p.Print(&outs[i].buf)
			secs := time.Since(start).Seconds()
			if *notime {
				secs = -1
			}
			outs[i].buf.WriteString(serve.ExhibitTrailer(r.ID, secs, cfg.Verify))
		}(i, r)
	}
	wg.Wait()
	for i, o := range outs {
		if i > 0 {
			fmt.Println()
		}
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "bulksim: %s: %v\n", runners[i].ID, o.err)
			os.Exit(1)
		}
		if _, err := os.Stdout.Write(o.buf.Bytes()); err != nil {
			fmt.Fprintf(os.Stderr, "bulksim: %v\n", err)
			os.Exit(1)
		}
	}
	printMeter(meter)
}

// validateFlags rejects an unknown experiment and negative size overrides
// before any simulation starts, so a typo'd invocation dies with usage
// (exit 2, like the flag package's own parse errors) instead of running
// at the default size.
func validateFlags(exp string, tasks, txns, samples, perms int) error {
	if _, ok := experiments.ByID(exp); exp != "all" && !ok {
		return fmt.Errorf("unknown experiment %q (try -list)", exp)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"tasks", tasks}, {"txns", txns}, {"samples", samples}, {"perms", perms}} {
		if f.v < 0 {
			return fmt.Errorf("-%s %d is negative (0 means the default)", f.name, f.v)
		}
	}
	return nil
}

// printMeter summarizes the bus traffic of every simulation this
// invocation ran (sums are independent of run interleaving).
func printMeter(m *bus.Meter) {
	total, runs := m.Snapshot()
	fmt.Print(serve.MeterSummary(total, runs))
}
