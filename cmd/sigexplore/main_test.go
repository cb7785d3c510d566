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
		name                       string
		samples, perms, wset, rset int
		wantErr                    string // substring; "" means valid
	}{
		{"defaults", 2000, 8, 22, 68, ""},
		{"smallest", 1, 0, 1, 1, ""},
		{"largest sets", 1, 0, maxSetLines, maxSetLines, ""},
		{"zero samples", 0, 8, 22, 68, "-samples"},
		{"negative perms", 2000, -1, 22, 68, "-perms"},
		{"negative wset", 2000, 8, -5, 68, "-wset"},
		{"zero wset", 2000, 8, 0, 68, "-wset"},
		{"wset beyond the pool", 2000, 8, 70000, 68, "-wset"},
		{"zero rset", 2000, 8, 22, 0, "-rset"},
		{"rset beyond the pool", 2000, 8, 22, maxSetLines + 1, "-rset"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.samples, tc.perms, tc.wset, tc.rset)
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

// TestCLIRejectsBadFlags re-executes the test binary as sigexplore's main:
// an out-of-domain flag exits 2 with usage before any row is printed.
// Before validation, -samples 0 printed a NaN row and -wset 70000 never
// finished.
func TestCLIRejectsBadFlags(t *testing.T) {
	if os.Getenv("SIGEXPLORE_BE_MAIN") == "1" {
		os.Args = append([]string{"sigexplore"}, strings.Fields(os.Getenv("SIGEXPLORE_ARGS"))...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	for _, args := range []string{"-samples 0", "-wset -5", "-wset 70000"} {
		t.Run(args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "TestCLIRejectsBadFlags")
			cmd.Env = append(os.Environ(), "SIGEXPLORE_BE_MAIN=1", "SIGEXPLORE_ARGS="+args)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error from %q, got err=%v output=%q", args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("%q: exit code %d, want 2; output:\n%s", args, code, out)
			}
			if !strings.Contains(string(out), "Usage") || strings.Contains(string(out), "Config") {
				t.Errorf("%q: want usage and no table; output:\n%s", args, out)
			}
		})
	}
}
