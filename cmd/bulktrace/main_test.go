package main

import (
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name, kind, app, sig string
		wantErr              string // substring; "" means valid
	}{
		{"defaults", "tm", "", "S14", ""},
		{"one tm profile", "tm", "lu", "S1", ""},
		{"one tls profile", "tls", "crafty", "S23", ""},
		{"unknown kind", "htm", "", "S14", "-kind"},
		{"unknown app", "tm", "nosuch", "S14", "-app"},
		{"tm profile under tls", "tls", "lu", "S14", "-app"},
		{"tls profile under tm", "tm", "crafty", "S14", "-app"},
		{"unknown sig", "tm", "", "S24", "-sig"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.kind, tc.app, tc.sig)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags: unexpected error %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateFlags: error %v, want one naming %s", err, tc.wantErr)
			}
		})
	}
}

// TestCLIRejectsBadFlags re-executes the test binary as bulktrace's main:
// an unknown kind, application or signature configuration exits 2 with
// usage and no table. An application outside the kind would otherwise
// print a header-only table and exit 0.
func TestCLIRejectsBadFlags(t *testing.T) {
	if os.Getenv("BULKTRACE_BE_MAIN") == "1" {
		os.Args = append([]string{"bulktrace"}, strings.Fields(os.Getenv("BULKTRACE_ARGS"))...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"-kind tm -app nosuch",
		"-kind tls -app lu",
		"-kind htm",
		"-sig S24",
	} {
		t.Run(args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "TestCLIRejectsBadFlags")
			cmd.Env = append(os.Environ(), "BULKTRACE_BE_MAIN=1", "BULKTRACE_ARGS="+args)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error from %q, got err=%v output=%q", args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("%q: exit code %d, want 2; output:\n%s", args, code, out)
			}
			if !strings.Contains(string(out), "Usage") || strings.Contains(string(out), "W-sig bits set") {
				t.Errorf("%q: want usage and no table; output:\n%s", args, out)
			}
		})
	}
}
