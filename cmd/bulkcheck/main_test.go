package main

import (
	"flag"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	type args struct {
		workers, schedules, depth int
		deviate                   float64
		budget                    string
	}
	ok := args{workers: 0, schedules: 0, depth: 0, deviate: 0.3, budget: "medium"}
	cases := []struct {
		name    string
		mut     func(*args)
		wantErr string // substring; "" means valid
	}{
		{name: "defaults", mut: func(*args) {}},
		{name: "explicit values", mut: func(a *args) {
			a.workers, a.schedules, a.depth, a.deviate = 8, 5000, 12, 1
		}},
		{name: "negative workers", mut: func(a *args) { a.workers = -1 }, wantErr: "-workers"},
		{name: "negative schedules", mut: func(a *args) { a.schedules = -5 }, wantErr: "-schedules"},
		{name: "negative depth", mut: func(a *args) { a.depth = -2 }, wantErr: "-depth"},
		{name: "deviate above one", mut: func(a *args) { a.deviate = 1.5 }, wantErr: "-deviate"},
		{name: "deviate negative", mut: func(a *args) { a.deviate = -0.1 }, wantErr: "-deviate"},
		{name: "deviate NaN", mut: func(a *args) { a.deviate = math.NaN() }, wantErr: "-deviate"},
		{name: "unknown budget", mut: func(a *args) { a.budget = "tiny" }, wantErr: "budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := ok
			tc.mut(&a)
			err := validateFlags(a.workers, a.schedules, a.depth, a.deviate, a.budget)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags accepted %+v", a)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name the offending flag %q", err, tc.wantErr)
			}
		})
	}
}

// TestCLIRejectsBadFlags re-executes the test binary as bulkcheck's main and
// pins the CLI contract: an out-of-domain or unknown flag exits 2 (the flag
// package's usage-error code, distinct from exit 1 = oracle failure) and
// prints the usage text. -snapmem no longer exists (every sweep runs on the
// snapshot engine), so old invocations must be refused, not ignored.
func TestCLIRejectsBadFlags(t *testing.T) {
	if os.Getenv("BULKCHECK_BE_MAIN") == "1" {
		os.Args = append([]string{"bulkcheck"}, strings.Fields(os.Getenv("BULKCHECK_ARGS"))...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	cases := []string{
		"-workers -1",
		"-schedules -5",
		"-depth -1",
		"-snapmem -2",
		"-deviate 1.5",
		"-deviate NaN",
		"-budget tiny",
	}
	for _, args := range cases {
		t.Run(args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "TestCLIRejectsBadFlags")
			cmd.Env = append(os.Environ(), "BULKCHECK_BE_MAIN=1", "BULKCHECK_ARGS="+args)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error from %q, got err=%v output=%q", args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("%q: exit code %d, want 2; output:\n%s", args, code, out)
			}
			if !strings.Contains(string(out), "Usage") && !strings.Contains(string(out), "-workers") {
				t.Errorf("%q: output carries no usage text:\n%s", args, out)
			}
		})
	}
}
