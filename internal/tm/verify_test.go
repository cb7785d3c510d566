package tm

import (
	"slices"
	"strings"
	"testing"

	"bulk/internal/trace"
	"bulk/internal/workload"
)

// TestVerifyRejectsMalformedLogs: Verify judges the commit log a runtime
// hands it, so every malformed log must come back as an error that names
// the fault, never as a panic that takes the checker's worker down with it.
// Each case edits the valid log of one run: a unit naming a thread,
// segment or op the workload lacks, a plain unit that spans more than one
// op or names a read, a transactional unit that does not span its
// segment, and a transaction or plain write logged twice or never.
func TestVerifyRejectsMalformedLogs(t *testing.T) {
	w := &workload.TMWorkload{Name: "verify-log", Threads: []workload.TMThread{{Segments: []workload.TMSegment{
		{Ops: []trace.Op{{Kind: trace.Write, Addr: 1}}},
		txnSeg(trace.Op{Kind: trace.Read, Addr: 2}, trace.Op{Kind: trace.Write, Addr: 3}),
		{Ops: []trace.Op{{Kind: trace.Read, Addr: 4}, {Kind: trace.Write, Addr: 5}}},
	}}}}
	r := runAndVerify(t, w, NewOptions(Bulk))
	plain, txn, last := CommitUnit{0, 0, 0, 1}, CommitUnit{0, 1, 0, 2}, CommitUnit{0, 2, 1, 2}
	if want := []CommitUnit{plain, txn, last}; !slices.Equal(r.Log, want) {
		t.Fatalf("log %v, want %v", r.Log, want)
	}
	cases := []struct {
		name, want string
		log        []CommitUnit
	}{
		{"bad thread", "bad thread", []CommitUnit{{1, 0, 0, 1}, txn, last}},
		{"negative thread", "bad thread", []CommitUnit{{-1, 0, 0, 1}, txn, last}},
		{"bad segment", "bad segment", []CommitUnit{{0, 3, 0, 1}, txn, last}},
		{"negative segment", "bad segment", []CommitUnit{{0, -1, 0, 1}, txn, last}},
		{"plain unit of two ops", "single op", []CommitUnit{plain, txn, {0, 2, 0, 2}}},
		{"op past the segment", "names no op", []CommitUnit{{0, 0, 5, 6}, txn, last}},
		{"op before the segment", "names no op", []CommitUnit{{0, 0, -1, 0}, txn, last}},
		{"op one past the segment", "names no op", []CommitUnit{{0, 0, 1, 2}, txn, last}},
		{"read as a plain unit", "is a read", []CommitUnit{plain, txn, {0, 2, 0, 1}, last}},
		{"transaction cut short", "does not span", []CommitUnit{plain, {0, 1, 0, 1}, last}},
		{"transaction past its segment", "does not span", []CommitUnit{plain, {0, 1, 0, 3}, last}},
		{"transaction twice", "committed 2 times", []CommitUnit{plain, txn, txn, last}},
		{"transaction never", "committed 0 times", []CommitUnit{plain, last}},
		{"plain write twice", "logged 2 times", []CommitUnit{plain, plain, txn, last}},
		{"plain write never", "logged 0 times", []CommitUnit{txn, last}},
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
