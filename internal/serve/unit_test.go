package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bulk/internal/bus"
	"bulk/internal/check"
)

// --- lruCache ---

func entry(n int) cellResult { return cellResult{out: bytes.Repeat([]byte{'x'}, n)} }

func TestLRUCacheEvictsColdEntriesWithinBudget(t *testing.T) {
	// Each entry costs len(out)+256; budget fits two 300-byte entries.
	c := newLRUCache(2 * (300 + 256))
	c.put("a", entry(300))
	c.put("b", entry(300))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before overflow")
	}
	// a was just touched, so inserting c must evict b (the cold end).
	c.put("c", entry(300))
	if _, ok := c.get("b"); ok {
		t.Error("cold entry b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently used entry a was evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("fresh entry c missing")
	}
	st := c.snapshot()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("want 1 eviction and 2 entries, got %+v", st)
	}
	if st.Bytes > st.Capacity {
		t.Errorf("cache bytes %d exceed capacity %d", st.Bytes, st.Capacity)
	}
}

func TestLRUCacheUpdateReplacesInPlace(t *testing.T) {
	c := newLRUCache(1 << 20)
	c.put("k", entry(10))
	c.put("k", entry(20))
	res, ok := c.get("k")
	if !ok || len(res.out) != 20 {
		t.Fatalf("update lost: ok=%v len=%d", ok, len(res.out))
	}
	st := c.snapshot()
	if st.Entries != 1 || st.Puts != 1 {
		t.Errorf("update created a second entry: %+v", st)
	}
	if st.Bytes != int64(20+256) {
		t.Errorf("byte accounting after update: %d", st.Bytes)
	}
}

func TestLRUCacheOversizedAndDisabled(t *testing.T) {
	c := newLRUCache(100)
	c.put("huge", entry(10_000)) // bigger than the whole budget
	if _, ok := c.get("huge"); ok {
		t.Error("oversized entry was cached")
	}
	off := newLRUCache(-1)
	off.put("k", entry(1))
	if _, ok := off.get("k"); ok {
		t.Error("disabled cache returned a hit")
	}
}

// TestLRUCacheSnapshotConcurrentWithUse runs put and get on one goroutine
// and snapshot on another, as a bulkd worker and the /metrics handler do.
// Under -race a snapshot that reads the cache without its lock is a
// reported race. The user goroutine stays alive until the snapshots are
// done, so the detector can still recover the stack of its accesses.
func TestLRUCacheSnapshotConcurrentWithUse(t *testing.T) {
	c := newLRUCache(4 << 10)
	used, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go func() {
		for i := 0; i < 200; i++ {
			key := fmt.Sprint("k", i%16)
			c.put(key, entry(300))
			c.get(key)
		}
		close(used)
		<-release
	}()
	for i := 0; i < 200; i++ {
		if st := c.snapshot(); st.Bytes > st.Capacity {
			t.Fatalf("snapshot %d: %d bytes exceed capacity %d", i, st.Bytes, st.Capacity)
		}
	}
	<-used
	if st := c.snapshot(); st.Hits != 200 || st.Bytes != int64(st.Entries)*(300+256) {
		t.Errorf("final accounting: %+v", st)
	}
}

// --- flightGroup ---

func TestFlightCoalescesConcurrentCallers(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	var executions int
	var mu sync.Mutex

	const n = 4
	results := make([]cellResult, n)
	coalesced := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, co, err := g.do(context.Background(), "k", func() (cellResult, error) {
				<-gate
				mu.Lock()
				executions++
				mu.Unlock()
				return cellResult{out: []byte("payload")}, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = res
			coalesced[i] = co
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.waiterCount("k") < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers parked", g.waiterCount("k"))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if executions != 1 {
		t.Fatalf("fn executed %d times, want 1", executions)
	}
	riders := 0
	for i := 0; i < n; i++ {
		if string(results[i].out) != "payload" {
			t.Errorf("caller %d got %q", i, results[i].out)
		}
		if coalesced[i] {
			riders++
		}
	}
	if riders != n-1 {
		t.Errorf("%d callers coalesced, want %d", riders, n-1)
	}
}

func TestFlightFollowerHonorsOwnContext(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	go func() {
		_, _, _ = g.do(context.Background(), "k", func() (cellResult, error) {
			close(started)
			<-gate
			return cellResult{}, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errClientGone)
	_, co, err := g.do(ctx, "k", func() (cellResult, error) {
		t.Error("canceled follower executed the cell")
		return cellResult{}, nil
	})
	if !co || !errors.Is(err, errClientGone) {
		t.Errorf("follower: coalesced=%v err=%v, want coalesced + its own cancellation cause", co, err)
	}
}

func TestFlightFollowerRetriesAfterLeaderCancellation(t *testing.T) {
	g := newFlightGroup()
	leaderStarted := make(chan struct{})
	leaderGate := make(chan struct{})
	go func() {
		_, _, _ = g.do(context.Background(), "k", func() (cellResult, error) {
			close(leaderStarted)
			<-leaderGate
			return cellResult{}, context.Canceled // the leader's job died
		})
	}()
	<-leaderStarted

	followerDone := make(chan struct{})
	var res cellResult
	var err error
	go func() {
		defer close(followerDone)
		res, _, err = g.do(context.Background(), "k", func() (cellResult, error) {
			return cellResult{out: []byte("second try")}, nil
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for g.waiterCount("k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never parked")
		}
		time.Sleep(time.Millisecond)
	}
	close(leaderGate)
	<-followerDone
	if err != nil || string(res.out) != "second try" {
		t.Errorf("follower after canceled leader: res=%q err=%v, want a fresh execution", res.out, err)
	}
}

// --- metrics ---

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	// 100 observations spread evenly at 1ms: p50/p95/p99 all land in the
	// (0.5, 1] bucket.
	for i := 0; i < 100; i++ {
		h.observe(time.Millisecond)
	}
	s := h.snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	for _, q := range []float64{s.P50MS, s.P95MS, s.P99MS} {
		if q <= 0.5 || q > 1.0 {
			t.Errorf("quantile %v outside the 1ms bucket (0.5, 1]", q)
		}
	}
	if s.MeanMS < 0.9 || s.MeanMS > 1.1 {
		t.Errorf("mean %v, want ~1ms", s.MeanMS)
	}
	// A bimodal distribution: p50 in the low mode, p99 in the high one.
	h2 := newHistogram()
	for i := 0; i < 98; i++ {
		h2.observe(time.Millisecond)
	}
	h2.observe(80 * time.Millisecond)
	h2.observe(80 * time.Millisecond)
	s2 := h2.snapshot()
	if s2.P50MS > 1.0 {
		t.Errorf("p50 %v polluted by the tail", s2.P50MS)
	}
	if s2.P99MS < 50 {
		t.Errorf("p99 %v missed the tail", s2.P99MS)
	}
	if empty := newHistogram().snapshot(); empty.Count != 0 || empty.P99MS != 0 {
		t.Errorf("empty histogram snapshot: %+v", empty)
	}
}

func TestRetryAfterSecs(t *testing.T) {
	cases := []struct {
		queued, workers int
		avg             float64
		want            int
	}{
		{0, 2, 1.0, 1},    // empty queue still backs off a floor second
		{10, 2, 1.0, 5},   // 10 jobs, 2 workers, 1s each
		{1000, 1, 60, 60}, // clamped at a minute
		{4, 0, 0.5, 2},    // workers floor at 1
	}
	for _, c := range cases {
		if got := retryAfterSecs(c.queued, c.workers, c.avg); got != c.want {
			t.Errorf("retryAfterSecs(%d, %d, %v) = %d, want %d",
				c.queued, c.workers, c.avg, got, c.want)
		}
	}
}

func TestEWMA(t *testing.T) {
	var e ewma
	e.observe(10)
	if e.value() != 10 {
		t.Fatalf("first observation not adopted: %v", e.value())
	}
	e.observe(0)
	if v := e.value(); v != 8 {
		t.Errorf("ewma after 10,0: %v, want 8", v)
	}
}

// --- renderers ---

func TestExhibitTrailerForms(t *testing.T) {
	if got := ExhibitTrailer("fig10", -1, true); got != "[fig10: verified=true]\n" {
		t.Errorf("deterministic trailer: %q", got)
	}
	if got := ExhibitTrailer("fig10", 1.23, false); got != "[fig10: 1.2s, verified=false]\n" {
		t.Errorf("timed trailer: %q", got)
	}
}

func TestMeterSummaryEmptyWhenNoRuns(t *testing.T) {
	if got := MeterSummary(bus.Bandwidth{}, 0); got != "" {
		t.Errorf("zero-run summary: %q", got)
	}
	if got := MeterSummary(bus.Bandwidth{}, 3); !strings.Contains(got, "across 3 simulations") {
		t.Errorf("summary: %q", got)
	}
}

func TestCheckFailRendersReplayRecipe(t *testing.T) {
	rep := &check.Report{
		Schedules: 42,
		Failure: &check.Failure{
			Schedule: []int{0, 1, 2},
			Reason:   "serializability violated",
			Steps:    []check.Step{{Picked: 1, Arity: 2, Ready: 7}},
		},
	}
	got := CheckFail("tm-sweep", rep)
	for _, want := range []string{
		"FAIL tm-sweep after 42 schedules",
		"reason:   serializability violated",
		"schedule: " + check.FormatSchedule([]int{0, 1, 2}),
		"replay:   bulkcheck -target tm-sweep -replay",
		"step proc 1 of 2",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("CheckFail output missing %q:\n%s", want, got)
		}
	}
	if ok := CheckOK("tm-sweep", &check.Report{Schedules: 9, Distinct: 4}, true); ok != "ok   tm-sweep: 9 schedules, 4 distinct outcomes\n" {
		t.Errorf("verbose ok line: %q", ok)
	}
}

// --- misc plumbing ---

func TestDescribeCause(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{context.DeadlineExceeded, "job timeout exceeded"},
		{errClientGone, "client disconnected"},
		{errCanceled, "canceled by client"},
		{nil, "canceled"},
		{fmt.Errorf("drain deadline exceeded: %w", context.Canceled), "drain deadline exceeded"},
	}
	for _, c := range cases {
		if got := describeCause(c.err); !strings.Contains(got, c.want) {
			t.Errorf("describeCause(%v) = %q, want containing %q", c.err, got, c.want)
		}
	}
}

func TestServerCancelUnknownJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if s.Cancel("job-404") {
		t.Error("canceling an unknown job reported success")
	}
}
