package ckpt

import (
	"slices"
	"strings"
	"testing"

	"bulk/internal/trace"
)

// TestVerifyRejectsMalformedLogs: Verify judges the commit log a runtime
// hands it, so every malformed log must come back as an error that names
// the fault, never as a panic. Each case edits the valid log of one run: a
// unit naming a processor, unit or op the workload lacks, a plain unit
// that names a read, an episode logged as a plain write or a plain run as
// an episode, and an episode or plain write logged twice or never.
func TestVerifyRejectsMalformedLogs(t *testing.T) {
	w := &Workload{Name: "verify-log", Procs: []ProcStream{{Units: []Unit{
		{Plain: []trace.Op{op(trace.Write, scnPriv0, 0)}},
		{Episode: &Episode{MissAddr: scnShared, PredictOK: true, Ops: []trace.Op{
			op(trace.Read, scnShared2, 0),
			op(trace.WriteDep, scnPriv0+1, 0),
		}}},
		{Plain: []trace.Op{op(trace.Read, scnPriv1, 0), op(trace.Write, scnPriv1+1, 0)}},
	}}}}
	r := runAndVerify(t, w, NewOptions(Bulk))
	plain, ep, last := CommitUnit{0, 0, 0}, CommitUnit{0, 1, -1}, CommitUnit{0, 2, 1}
	if want := []CommitUnit{plain, ep, last}; !slices.Equal(r.Log, want) {
		t.Fatalf("log %v, want %v", r.Log, want)
	}
	cases := []struct {
		name, want string
		log        []CommitUnit
	}{
		{"bad proc", "bad proc", []CommitUnit{{1, 0, 0}, ep, last}},
		{"negative proc", "bad proc", []CommitUnit{{-1, 0, 0}, ep, last}},
		{"bad unit", "bad unit", []CommitUnit{{0, 3, 0}, ep, last}},
		{"negative unit", "bad unit", []CommitUnit{{0, -1, 0}, ep, last}},
		{"op past the unit", "bad plain-write unit", []CommitUnit{{0, 0, 5}, ep, last}},
		{"op one past the unit", "bad plain-write unit", []CommitUnit{{0, 0, 1}, ep, last}},
		{"op below the episode marker", "bad op", []CommitUnit{{0, 0, -2}, ep, last}},
		{"read as a plain unit", "is a read", []CommitUnit{plain, ep, {0, 2, 0}, last}},
		{"episode as a plain write", "bad plain-write unit", []CommitUnit{plain, {0, 1, 0}, last}},
		{"plain run as an episode", "has no episode", []CommitUnit{{0, 0, -1}, ep, last}},
		{"episode twice", "committed 2 times", []CommitUnit{plain, ep, ep, last}},
		{"episode never", "committed 0 times", []CommitUnit{plain, last}},
		{"plain write twice", "logged 2 times", []CommitUnit{plain, plain, ep, last}},
		{"plain write never", "logged 0 times", []CommitUnit{ep, last}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := *r
			bad.Log = c.log
			err := Verify(w, &bad)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Verify = %v, want an error containing %q", err, c.want)
			}
		})
	}
}
