// Command bulkd serves the simulator over HTTP+JSON: sweep, exhibit and
// check jobs enter a bounded FIFO queue, execute on a bounded worker
// pool, and stream per-job progress as newline-delimited JSON. Results
// are byte-identical to the one-shot CLIs (`bulksim -notime`,
// `bulkcheck`): both paths render through internal/serve.
//
// Usage:
//
//	bulkd -addr :8080 -workers 4 -queue 64 -cache-mib 128
//
// Endpoints (see README "Serving" and DESIGN.md §17):
//
//	POST   /jobs              submit  {"kind":"exhibit","exhibit":"fig10","quick":true}
//	GET    /jobs/{id}/stream  follow progress frames
//	GET    /jobs/{id}/result  fetch the result bytes
//	POST   /run               submit and wait in one request
//	GET    /metrics           queue, cache, meter and latency metrics
//
// SIGTERM or SIGINT starts a graceful drain: new submissions get 503,
// queued and in-flight jobs finish (up to -drain-timeout), then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bulk/internal/serve"
)

// options are bulkd's flag values.
type options struct {
	workers, queue, checkWorkers         int
	cacheMiB                             int64
	jobTimeout, maxTimeout, drainTimeout time.Duration
}

func main() {
	var o options
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	flag.IntVar(&o.workers, "workers", 2, "concurrent job executors")
	flag.IntVar(&o.queue, "queue", 32, "job queue depth (full queue returns 429 + Retry-After)")
	flag.Int64Var(&o.cacheMiB, "cache-mib", 64, "result cache budget in MiB (0 disables)")
	flag.DurationVar(&o.jobTimeout, "job-timeout", 5*time.Minute, "default per-job execution budget")
	flag.DurationVar(&o.maxTimeout, "max-job-timeout", 30*time.Minute, "cap on client-requested timeout_ms")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long a shutdown waits for in-flight jobs")
	flag.IntVar(&o.checkWorkers, "check-workers", 1, "explorer workers per check cell (reports are identical at every count)")
	flag.Parse()

	if err := validateFlags(o); err != nil {
		fmt.Fprintf(os.Stderr, "bulkd: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	cacheBytes := o.cacheMiB << 20
	if o.cacheMiB == 0 {
		cacheBytes = -1
	}
	s := serve.New(serve.Config{
		Workers:       o.workers,
		QueueDepth:    o.queue,
		CacheBytes:    cacheBytes,
		JobTimeout:    o.jobTimeout,
		MaxJobTimeout: o.maxTimeout,
		CheckWorkers:  o.checkWorkers,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bulkd: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("bulkd: listening on %s (workers=%d queue=%d cache=%dMiB)\n",
		ln.Addr(), o.workers, o.queue, o.cacheMiB)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "bulkd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight work finish, then
	// close the listener. Draining the job pool before the HTTP server
	// keeps streams alive until their jobs reach a terminal state.
	fmt.Println("bulkd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	drainErr := s.Drain(dctx)
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "bulkd: shutdown: %v\n", err)
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "bulkd: drain: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Println("bulkd: drained cleanly")
}

// maxCacheMiB is the largest -cache-mib whose byte count fits an int64.
const maxCacheMiB = math.MaxInt64 >> 20

// validateFlags rejects out-of-domain flag values before the daemon
// starts, so a typo'd invocation dies with usage (exit 2, like the flag
// package's own parse errors) instead of serving with settings other than
// the ones asked for: a count below 1 or a non-positive timeout would fall
// back to its default, and a negative cache budget or one whose byte count
// wraps would disable the cache or fall back to the default.
func validateFlags(o options) error {
	switch {
	case o.workers < 1:
		return fmt.Errorf("-workers %d is below 1", o.workers)
	case o.queue < 1:
		return fmt.Errorf("-queue %d is below 1", o.queue)
	case o.checkWorkers < 1:
		return fmt.Errorf("-check-workers %d is below 1", o.checkWorkers)
	case o.jobTimeout <= 0:
		return fmt.Errorf("-job-timeout %v is not positive", o.jobTimeout)
	case o.maxTimeout <= 0:
		return fmt.Errorf("-max-job-timeout %v is not positive", o.maxTimeout)
	case o.drainTimeout <= 0:
		return fmt.Errorf("-drain-timeout %v is not positive", o.drainTimeout)
	case o.cacheMiB < 0 || o.cacheMiB > maxCacheMiB:
		return fmt.Errorf("-cache-mib %d is outside [0, %d] (0 disables the cache)", o.cacheMiB, int64(maxCacheMiB))
	}
	return nil
}
