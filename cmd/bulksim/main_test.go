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
		name                        string
		exp                         string
		tasks, txns, samples, perms int
		wantErr                     string // substring; "" means valid
	}{
		{"defaults", "all", 0, 0, 0, 0, ""},
		{"one exhibit with overrides", "fig15", 40, 12, 100, 2, ""},
		{"unknown experiment", "fig99", 0, 0, 0, 0, "fig99"},
		{"negative tasks", "all", -5, 0, 0, 0, "-tasks"},
		{"negative txns", "all", 0, -1, 0, 0, "-txns"},
		{"negative samples", "all", 0, 0, -1, 0, "-samples"},
		{"negative perms", "all", 0, 0, 0, -1, "-perms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.exp, tc.tasks, tc.txns, tc.samples, tc.perms)
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

// TestCLIRejectsBadFlags re-executes the test binary as bulksim's main: an
// unknown experiment or a negative size override exits 2 with usage before
// any exhibit runs. A negative override would otherwise run the exhibit at
// its default size.
func TestCLIRejectsBadFlags(t *testing.T) {
	if os.Getenv("BULKSIM_BE_MAIN") == "1" {
		os.Args = append([]string{"bulksim"}, strings.Fields(os.Getenv("BULKSIM_ARGS"))...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"-exp fig99",
		"-exp table8 -quick -tasks -5",
		"-exp table8 -quick -txns -1",
		"-exp fig15 -quick -samples -1",
		"-exp fig15 -quick -perms -1",
	} {
		t.Run(args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "TestCLIRejectsBadFlags")
			cmd.Env = append(os.Environ(), "BULKSIM_BE_MAIN=1", "BULKSIM_ARGS="+args)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error from %q, got err=%v output=%q", args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("%q: exit code %d, want 2; output:\n%s", args, code, out)
			}
			if !strings.Contains(string(out), "Usage") || strings.Contains(string(out), "verified=") {
				t.Errorf("%q: want usage and no exhibit; output:\n%s", args, out)
			}
		})
	}
}
