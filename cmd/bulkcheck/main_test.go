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
	ok := options{protocol: "all", mode: "dfs", budget: "medium", deviate: 0.3}
	cases := []struct {
		name    string
		mut     func(*options)
		wantErr string // substring; "" means valid
	}{
		{name: "defaults", mut: func(*options) {}},
		{name: "explicit values", mut: func(o *options) {
			o.workers, o.schedules, o.depth, o.deviate = 8, 5000, 12, 1
		}},
		{name: "negative workers", mut: func(o *options) { o.workers = -1 }, wantErr: "-workers"},
		{name: "negative schedules", mut: func(o *options) { o.schedules = -5 }, wantErr: "-schedules"},
		{name: "negative depth", mut: func(o *options) { o.depth = -2 }, wantErr: "-depth"},
		{name: "deepest depth", mut: func(o *options) { o.depth = 255 }},
		{name: "depth past the prefix encoding", mut: func(o *options) { o.depth = 256 }, wantErr: "-depth"},
		{name: "deviate above one", mut: func(o *options) { o.deviate = 1.5 }, wantErr: "-deviate"},
		{name: "deviate negative", mut: func(o *options) { o.deviate = -0.1 }, wantErr: "-deviate"},
		{name: "deviate NaN", mut: func(o *options) { o.deviate = math.NaN() }, wantErr: "-deviate"},
		{name: "unknown budget", mut: func(o *options) { o.budget = "tiny" }, wantErr: "budget"},
		{name: "walk mode", mut: func(o *options) { o.mode = "walk" }},
		{name: "unknown mode", mut: func(o *options) { o.mode = "bogus" }, wantErr: "mode"},
		{name: "one protocol", mut: func(o *options) { o.protocol = "tls" }},
		{name: "unknown protocol", mut: func(o *options) { o.protocol = "bogus" }, wantErr: "protocol"},
		{name: "named mutations", mut: func(o *options) { o.mutations = "drop-wr-term, skip-word-merge" }},
		{name: "unknown mutation", mut: func(o *options) { o.mutations = "drop-wr-term,bogus" }, wantErr: "mutation"},
		{name: "unknown target", mut: func(o *options) { o.target = "bogus" }, wantErr: "target"},
		{name: "replay under a named mutation", mut: func(o *options) {
			o.target, o.replay, o.mutations = "tm-word-merge", "1,1", "skip-word-merge"
		}},
		{name: "replay without target", mut: func(o *options) { o.replay = "1,1" }, wantErr: "-target"},
		{name: "malformed replay", mut: func(o *options) {
			o.target, o.replay = "tm-sweep", "0x10"
		}, wantErr: "-replay"},
		{name: "replay under all mutations", mut: func(o *options) {
			o.target, o.replay, o.mutations = "tm-word-merge", "1,1", "all"
		}, wantErr: "-mutations all"},
		{name: "walk with mutations", mut: func(o *options) { o.mode, o.mutations = "walk", "all" }, wantErr: "-mutations"},
		{name: "walk with replay", mut: func(o *options) {
			o.mode, o.target, o.replay = "walk", "tm-sweep", "0,1"
		}, wantErr: "-replay"},
		{name: "seed in walk", mut: func(o *options) { o.mode, o.set = "walk", setFlags("seed", "deviate") }},
		{name: "seed outside walk", mut: func(o *options) { o.set = setFlags("seed") }, wantErr: "-seed"},
		{name: "deviate outside walk", mut: func(o *options) { o.set = setFlags("deviate") }, wantErr: "-deviate"},
		{name: "workers on a sweep", mut: func(o *options) { o.set = setFlags("workers") }},
		{name: "workers on the audit", mut: func(o *options) { o.mutations, o.set = "all", setFlags("workers") }},
		{name: "workers in walk", mut: func(o *options) { o.mode, o.set = "walk", setFlags("workers") }, wantErr: "-workers"},
		{name: "workers on a replay", mut: func(o *options) {
			o.target, o.replay, o.set = "tm-sweep", "0,1", setFlags("workers")
		}, wantErr: "-workers"},
		{name: "audit with target", mut: func(o *options) {
			o.mutations, o.target, o.set = "all", "tm-sweep", setFlags("target")
		}, wantErr: "-target"},
		{name: "audit with protocol", mut: func(o *options) { o.mutations, o.set = "all", setFlags("protocol") }, wantErr: "-protocol"},
		{name: "audit with budget", mut: func(o *options) { o.mutations, o.set = "all", setFlags("budget") }, wantErr: "-budget"},
		{name: "audit with schedules", mut: func(o *options) { o.mutations, o.set = "all", setFlags("schedules") }, wantErr: "-schedules"},
		{name: "audit with depth", mut: func(o *options) { o.mutations, o.set = "drop-wr-term", setFlags("depth") }, wantErr: "-depth"},
		{name: "replay under a mutation with depth", mut: func(o *options) {
			o.target, o.replay, o.mutations, o.set = "tm-word-merge", "1,1", "skip-word-merge", setFlags("target", "depth")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := ok
			tc.mut(&o)
			err := validateFlags(o)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags accepted %+v", o)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name the offending flag %q", err, tc.wantErr)
			}
		})
	}
}

// setFlags is the set of flag names a command line gave.
func setFlags(names ...string) map[string]bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return set
}

// TestCLIRejectsBadFlags re-executes the test binary as bulkcheck's main and
// pins the CLI contract: an out-of-domain or unknown flag, or a combination
// bulkcheck would misread, exits 2 (the flag package's usage-error code,
// distinct from exit 1 = oracle failure) and prints the usage text.
// -snapmem and -checkpoint no longer exist (every sweep runs on pooled
// runners, and no sweep writes a resumable frontier), so old invocations
// must be refused, not ignored. A replay under -mutations all would run
// the schedule unmutated and print a false ok, and so would a malformed
// schedule read only up to its first non-digit. A -depth past the
// one-byte prefix encoding would panic mid-sweep, and -mode walk with
// -mutations would run the systematic explorer instead of the walk asked
// for. A flag the chosen mode ignores — -seed or -deviate outside the
// walk, -workers on the walk or a replay, -mode walk on a replay, or a
// target or budget flag on the mutation audit — would be dropped without
// a word.
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
		"-mode bogus",
		"-protocol bogus",
		"-mutations bogus",
		"-target bogus",
		"-target tm-word-merge -replay 1,1 -mutations all",
		"-target tm-sweep -replay 0x10",
		"-depth 300",
		"-mode walk -target tm-sweep -checkpoint cp.bin",
		"-mode walk -mutations all",
		"-budget small -protocol tm -seed 7 -deviate 0.9",
		"-budget small -deviate 0.5",
		"-mode walk -target tm-sweep -replay 0,1",
		"-mode walk -budget small -workers 2",
		"-target tm-sweep -replay 0,1 -workers 2",
		"-mutations all -target tm-sweep",
		"-mutations all -protocol tm",
		"-mutations all -budget small",
		"-mutations all -schedules 10",
		"-mutations drop-wr-term -depth 4",
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
