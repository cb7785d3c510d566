package main

import (
	"context"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	ok := options{workers: 2, queue: 32, checkWorkers: 1, cacheMiB: 64,
		jobTimeout: time.Minute, maxTimeout: time.Hour, drainTimeout: time.Second}
	for _, tc := range []struct {
		cacheMiB int64
		ok       bool
	}{
		{0, true}, // disables the cache
		{64, true},
		{maxCacheMiB, true},
		{-1, false},
		{maxCacheMiB + 1, false},
		{1 << 43, false}, // << 20 wraps to math.MinInt64
		{1 << 44, false}, // << 20 wraps to 0, which would mean the default
	} {
		o := ok
		o.cacheMiB = tc.cacheMiB
		err := validateFlags(o)
		if tc.ok && err != nil {
			t.Errorf("-cache-mib %d: unexpected error %v", tc.cacheMiB, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "-cache-mib")) {
			t.Errorf("-cache-mib %d: error %v, want one naming -cache-mib", tc.cacheMiB, err)
		}
		if tc.ok && tc.cacheMiB > 0 && tc.cacheMiB<<20 <= 0 {
			t.Errorf("-cache-mib %d accepted but its byte count wraps", tc.cacheMiB)
		}
	}
	// Each count below 1 and each non-positive timeout would otherwise
	// fall back to its default while the banner printed the bad value.
	for _, tc := range []struct {
		flag string
		mut  func(*options)
	}{
		{"-workers", func(o *options) { o.workers = 0 }},
		{"-workers", func(o *options) { o.workers = -3 }},
		{"-queue", func(o *options) { o.queue = 0 }},
		{"-check-workers", func(o *options) { o.checkWorkers = -1 }},
		{"-job-timeout", func(o *options) { o.jobTimeout = 0 }},
		{"-max-job-timeout", func(o *options) { o.maxTimeout = -time.Second }},
		{"-drain-timeout", func(o *options) { o.drainTimeout = 0 }},
	} {
		o := ok
		tc.mut(&o)
		if err := validateFlags(o); err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%+v: error %v, want one naming %s", o, err, tc.flag)
		}
	}
	if err := validateFlags(options{workers: 1, queue: 1, checkWorkers: 1,
		jobTimeout: 1, maxTimeout: 1, drainTimeout: 1}); err != nil {
		t.Errorf("the smallest valid values were rejected: %v", err)
	}
}

// TestCLIRejectsBadFlags re-executes the test binary as bulkd's main: an
// out-of-domain flag exits 2 with usage, naming the flag, before anything
// listens. A daemon that accepted the flag would serve until the timeout
// kills it.
func TestCLIRejectsBadFlags(t *testing.T) {
	if os.Getenv("BULKD_BE_MAIN") == "1" {
		os.Args = append([]string{"bulkd"}, strings.Fields(os.Getenv("BULKD_ARGS"))...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"-cache-mib -1",
		"-cache-mib 8796093022208",
		"-cache-mib 17592186044416",
		"-workers -3",
		"-queue 0",
		"-check-workers 0",
		"-job-timeout 0s",
		"-max-job-timeout -1m",
		"-drain-timeout 0s",
	} {
		t.Run(args, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run", "TestCLIRejectsBadFlags")
			cmd.Env = append(os.Environ(), "BULKD_BE_MAIN=1", "BULKD_ARGS="+args+" -addr 127.0.0.1:0")
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error from %q, got err=%v output=%q", args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("%q: exit code %d, want 2; output:\n%s", args, code, out)
			}
			if !strings.Contains(string(out), "bulkd: "+strings.Fields(args)[0]+" ") || strings.Contains(string(out), "listening") {
				t.Errorf("%q: want the usage error before any listen; output:\n%s", args, out)
			}
		})
	}
}
