package tls

import (
	"strings"
	"testing"

	"bulk/internal/trace"
	"bulk/internal/workload"
)

// TestVerifyRejectsBadCommitCounts: TLS logs no units, only its commit
// count, so the count is what Verify checks before memory: a run that
// committed a task fewer or more times than the workload holds is an
// error, even when its final memory matches.
func TestVerifyRejectsBadCommitCounts(t *testing.T) {
	w := &workload.TLSWorkload{Name: "verify-commits", Tasks: []workload.TLSTask{
		{Ops: []trace.Op{{Kind: trace.Write, Addr: 1}}},
		{Ops: []trace.Op{{Kind: trace.Read, Addr: 1}, {Kind: trace.Write, Addr: 2}}},
	}}
	r := runAndVerify(t, w, NewOptions(Bulk))
	for _, commits := range []uint64{0, 1, 3} {
		bad := *r
		bad.Stats.Commits = commits
		err := Verify(w, &bad)
		if err == nil || !strings.Contains(err.Error(), "commits for 2 tasks") {
			t.Errorf("%d commits: Verify = %v, want a commit-count error", commits, err)
		}
	}
}
