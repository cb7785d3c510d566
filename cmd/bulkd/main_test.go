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
		err := validateFlags(tc.cacheMiB)
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
}

// TestCLIRejectsBadFlags re-executes the test binary as bulkd's main: an
// out-of-domain -cache-mib exits 2 with usage before anything listens. A
// daemon that accepted the flag would serve until the timeout kills it.
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
			if !strings.Contains(string(out), "-cache-mib") || strings.Contains(string(out), "listening") {
				t.Errorf("%q: want the usage error before any listen; output:\n%s", args, out)
			}
		})
	}
}
