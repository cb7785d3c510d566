package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bulk/internal/check"
	"bulk/internal/experiments"
)

// testServer starts a daemon on an ephemeral port and registers cleanup.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// quickCfg is the configuration the daemon resolves for quick requests.
func quickCfg() experiments.Config {
	cfg := experiments.Quick()
	cfg.Seed = 2006
	cfg.Verify = true
	return cfg
}

// postJSON issues a POST and returns status plus body.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data
}

// getBody issues a GET and returns status plus body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data
}

// submitAndWait pushes a job through POST /jobs and blocks on its stream
// until the terminal frame, returning the job id and every frame.
func submitAndWait(t *testing.T, base, body string) (string, []string) {
	t.Helper()
	code, resp := postJSON(t, base+"/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", code, resp)
	}
	var acc struct {
		ID        string `json:"id"`
		StreamURL string `json:"stream_url"`
	}
	if err := json.Unmarshal(resp, &acc); err != nil {
		t.Fatalf("submit response: %v (%s)", err, resp)
	}
	code, stream := getBody(t, base+acc.StreamURL)
	if code != http.StatusOK {
		t.Fatalf("stream: status %d", code)
	}
	lines := strings.Split(strings.TrimSuffix(string(stream), "\n"), "\n")
	return acc.ID, lines
}

// oneShotSweep renders the reference bytes for a sweep over ids.
func oneShotSweep(t *testing.T, ids []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteOneShot(&buf, ids, quickCfg()); err != nil {
		t.Fatalf("WriteOneShot: %v", err)
	}
	return buf.Bytes()
}

func TestExhibitJobByteIdentity(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	id, _ := submitAndWait(t, ts.URL, `{"kind":"exhibit","exhibit":"table8","quick":true}`)
	code, got := getBody(t, ts.URL+"/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d, body %s", code, got)
	}
	want := oneShotSweep(t, []string{"table8"})
	if !bytes.Equal(got, want) {
		t.Errorf("daemon result differs from one-shot CLI output:\ndaemon:\n%s\ncli:\n%s", got, want)
	}
}

func TestSweepJobByteIdentity(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	id, _ := submitAndWait(t, ts.URL,
		`{"kind":"sweep","exhibits":["table8","fig12"],"quick":true}`)
	code, got := getBody(t, ts.URL+"/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d, body %s", code, got)
	}
	want := oneShotSweep(t, []string{"table8", "fig12"})
	if !bytes.Equal(got, want) {
		t.Errorf("sweep result differs from one-shot output:\ndaemon:\n%s\ncli:\n%s", got, want)
	}
}

func TestCheckJobByteIdentity(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	id, _ := submitAndWait(t, ts.URL,
		`{"kind":"check","protocol":"tls","budget":"small","verbose":true}`)
	code, got := getBody(t, ts.URL+"/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d, body %s", code, got)
	}
	targets, err := check.TargetsByProtocol("tls")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := check.BudgetByName("small")
	var want []byte
	for _, tgt := range targets {
		want = append(want, RenderCheck(tgt, b, s.cfg.CheckWorkers, true)...)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("check result differs from one-shot output:\ndaemon:\n%s\ncli:\n%s", got, want)
	}
}

func TestCacheHitByteIdentity(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	body := `{"kind":"exhibit","exhibit":"ablation-rle","quick":true}`
	code, first := postJSON(t, ts.URL+"/run", body)
	if code != http.StatusOK {
		t.Fatalf("first run: status %d", code)
	}
	code, second := postJSON(t, ts.URL+"/run", body)
	if code != http.StatusOK {
		t.Fatalf("second run: status %d", code)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cache hit is not byte-identical to the fresh run:\nfresh:\n%s\ncached:\n%s", first, second)
	}
	if !bytes.Equal(first, oneShotSweep(t, []string{"ablation-rle"})) {
		t.Errorf("daemon output differs from one-shot CLI output")
	}
	st := s.cache.snapshot()
	if st.Hits == 0 {
		t.Errorf("second identical run did not hit the result cache: %+v", st)
	}
	c := s.metrics.counters.view()
	if c.CellsExecuted != 1 || c.CellsCached != 1 {
		t.Errorf("want 1 executed + 1 cached cell, got executed=%d cached=%d",
			c.CellsExecuted, c.CellsCached)
	}
}

func TestConcurrentDuplicatesCoalesceToOneExecution(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 4})
	started := make(chan string, 8)
	release := make(chan struct{})
	s.testCellStart = func(key string) {
		started <- key
		<-release
	}

	const dup = 3
	body := `{"kind":"exhibit","exhibit":"table8","quick":true}`
	results := make([][]byte, dup)
	codes := make([]int, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], results[i] = postJSON(t, ts.URL+"/run", body)
		}(i)
	}

	// Exactly one leader reaches the cell body; once it is held there,
	// the duplicates can only coalesce onto the same flight.
	var key string
	select {
	case key = <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no cell execution started")
	}
	// Release only after both duplicates are provably parked on the
	// leader's flight, so exactly-once is deterministic, not timing luck.
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.waiterCount(key) < dup-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d duplicates coalesced onto the in-flight cell",
				s.flights.waiterCount(key), dup-1)
		}
		time.Sleep(time.Millisecond)
	}
	if len(started) > 0 {
		t.Fatal("a duplicate cell execution started before release")
	}
	close(release)
	wg.Wait()

	for i := 0; i < dup; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Errorf("request %d result differs from request 0", i)
		}
	}
	c := s.metrics.counters.view()
	if c.CellsExecuted != 1 {
		t.Errorf("identical concurrent requests executed %d times, want exactly 1", c.CellsExecuted)
	}
	if c.CellsCoalesced != dup-1 {
		t.Errorf("want %d coalesced serves, got coalesced=%d cached=%d",
			dup-1, c.CellsCoalesced, c.CellsCached)
	}
	if !bytes.Equal(results[0], oneShotSweep(t, []string{"table8"})) {
		t.Errorf("coalesced result differs from one-shot CLI output")
	}
}

func TestStreamFramesWellFormed(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	_, frames := submitAndWait(t, ts.URL,
		`{"kind":"sweep","exhibits":["table8","ablation-rle"],"quick":true}`)
	if len(frames) < 4 {
		t.Fatalf("want at least queued/running/cell.../done frames, got %d: %v", len(frames), frames)
	}
	events := make([]string, len(frames))
	for i, f := range frames {
		var m map[string]any
		if err := json.Unmarshal([]byte(f), &m); err != nil {
			t.Fatalf("frame %d is not valid JSON: %q (%v)", i, f, err)
		}
		ev, _ := m["event"].(string)
		if ev == "" {
			t.Fatalf("frame %d has no event: %q", i, f)
		}
		events[i] = ev
	}
	if events[0] != "queued" || events[1] != "running" || events[len(events)-1] != "done" {
		t.Errorf("unexpected frame order: %v", events)
	}
	cells := 0
	for _, ev := range events {
		if ev == "cell" {
			cells++
		}
	}
	if cells != 2 {
		t.Errorf("want 2 cell frames, got %d (%v)", cells, events)
	}
}

func TestDeterministicJobIDs(t *testing.T) {
	for round := 0; round < 2; round++ {
		_, ts := testServer(t, Config{Workers: 1})
		for i, want := range []string{"job-000001", "job-000002", "job-000003"} {
			code, resp := postJSON(t, ts.URL+"/jobs", `{"kind":"exhibit","exhibit":"table8","quick":true}`)
			if code != http.StatusAccepted {
				t.Fatalf("submit %d: status %d", i, code)
			}
			var acc struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(resp, &acc); err != nil {
				t.Fatal(err)
			}
			if acc.ID != want {
				t.Errorf("round %d submission %d: id %q, want %q", round, i, acc.ID, want)
			}
		}
	}
}

func TestJobListingAndStatus(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	id, _ := submitAndWait(t, ts.URL, `{"kind":"exhibit","exhibit":"table8","quick":true}`)

	code, list := getBody(t, ts.URL+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var parsed struct {
		Jobs []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(list, &parsed); err != nil {
		t.Fatalf("list is not valid JSON: %v (%s)", err, list)
	}
	if len(parsed.Jobs) != 1 || parsed.Jobs[0].ID != id || parsed.Jobs[0].Status != "done" {
		t.Errorf("unexpected listing: %s", list)
	}

	code, status := getBody(t, ts.URL+"/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	var st struct {
		Status      string `json:"status"`
		CellsDone   int    `json:"cells_done"`
		ResultBytes int    `json:"result_bytes"`
	}
	if err := json.Unmarshal(status, &st); err != nil {
		t.Fatalf("status is not valid JSON: %v (%s)", err, status)
	}
	if st.Status != "done" || st.CellsDone != 1 || st.ResultBytes == 0 {
		t.Errorf("unexpected status: %s", status)
	}
}

func TestInvalidRequestsRejected(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	cases := []string{
		`{"kind":"mystery"}`,
		`{"kind":"exhibit"}`,
		`{"kind":"exhibit","exhibit":"no-such-exhibit"}`,
		`{"kind":"sweep","exhibits":["table8","nope"]}`,
		`{"kind":"check","budget":"colossal"}`,
		`{"kind":"check","target":"no-such-target"}`,
		`{"kind":"check","protocol":"quantum"}`,
		`{"kind":"exhibit","exhibit":"table8","timeout_ms":-5}`,
		`{"kind":"exhibit","exhibit":"table8","timeout_ms":999999999}`,
		// Past MaxInt64/1e6: the millisecond-to-Duration conversion
		// overflows to a negative and to a sub-millisecond timeout.
		`{"kind":"exhibit","exhibit":"table8","timeout_ms":9223372036855}`,
		`{"kind":"exhibit","exhibit":"table8","timeout_ms":18446744073710}`,
		`{"kind":"exhibit","unknown_field":true}`,
		`not json at all`,
	}
	for _, body := range cases {
		code, resp := postJSON(t, ts.URL+"/jobs", body)
		if code != http.StatusBadRequest {
			t.Errorf("body %s: status %d (want 400), resp %s", body, code, resp)
		}
	}
	if c := s.metrics.counters.view(); c.Accepted != 0 {
		t.Errorf("invalid requests were accepted: %+v", c)
	}

	if code, _ := getBody(t, ts.URL+"/jobs/job-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/jobs/job-999999/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result: %d, want 404", code)
	}
}

// TestOversizeRequestRejected: a submission body past maxRequestBytes is
// refused with 413 before the daemon buffers it, and nothing is accepted.
func TestOversizeRequestRejected(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	body := `{"kind":"exhibit","exhibit":"` + strings.Repeat("x", 1<<20) + `"}`
	code, resp := postJSON(t, ts.URL+"/jobs", body)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("1 MiB body: status %d (want 413), resp %.200s", code, resp)
	}
	if c := s.metrics.counters.view(); c.Accepted != 0 {
		t.Errorf("an oversize request was accepted: %+v", c)
	}
}

func TestResultNotReadyConflict(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	release := make(chan struct{})
	s.testCellStart = func(string) { <-release }
	defer close(release)

	code, resp := postJSON(t, ts.URL+"/jobs", `{"kind":"exhibit","exhibit":"table8","quick":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &acc); err != nil {
		t.Fatal(err)
	}
	code, _ = getBody(t, ts.URL+"/jobs/"+acc.ID+"/result")
	if code != http.StatusConflict {
		t.Errorf("result of unfinished job: status %d, want 409", code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	if code, _ := postJSON(t, ts.URL+"/run", `{"kind":"exhibit","exhibit":"fig12","quick":true}`); code != http.StatusOK {
		t.Fatalf("run: status %d", code)
	}
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	var m struct {
		Queue struct {
			Workers  int `json:"workers"`
			Capacity int `json:"capacity"`
		} `json:"queue"`
		Jobs struct {
			Accepted  uint64 `json:"accepted"`
			Completed uint64 `json:"completed"`
		} `json:"jobs"`
		ResultCache struct {
			Puts uint64 `json:"puts"`
		} `json:"result_cache"`
		Bus struct {
			Runs       int   `json:"runs"`
			TotalBytes int64 `json:"total_bytes"`
		} `json:"bus"`
		SimCache struct {
			Runs int `json:"runs"`
		} `json:"sim_cache"`
		Latency map[string]struct {
			Count uint64 `json:"count"`
		} `json:"latency_ms"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics is not valid JSON: %v\n%s", err, body)
	}
	if m.Queue.Workers != 2 || m.Jobs.Accepted != 1 || m.Jobs.Completed != 1 {
		t.Errorf("unexpected queue/jobs metrics: %s", body)
	}
	if m.ResultCache.Puts == 0 {
		t.Errorf("result cache recorded no puts: %s", body)
	}
	// fig12 runs real simulations, so the daemon-lifetime meters must
	// have seen bus traffic and simulated-cache activity.
	if m.Bus.Runs == 0 || m.Bus.TotalBytes == 0 {
		t.Errorf("bus meter saw no traffic: %s", body)
	}
	if m.SimCache.Runs == 0 {
		t.Errorf("sim cache meter saw no runs: %s", body)
	}
	if m.Latency["run"].Count != 1 {
		t.Errorf("run endpoint latency not recorded: %s", body)
	}
	if code, body := getBody(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %s", code, body)
	}
}

func TestCachedMeterSummaryByteIdentity(t *testing.T) {
	// A job served entirely from cache must still print the bus-traffic
	// trailer of a fresh run: cellResult carries the meter snapshots.
	_, ts := testServer(t, Config{Workers: 1})
	body := `{"kind":"exhibit","exhibit":"fig12","quick":true}`
	_, first := postJSON(t, ts.URL+"/run", body)
	_, second := postJSON(t, ts.URL+"/run", body)
	if !bytes.Contains(first, []byte("[bus traffic across ")) {
		t.Fatalf("fresh fig12 run printed no meter summary:\n%s", first)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached replay lost the meter summary:\nfresh:\n%s\ncached:\n%s", first, second)
	}
}

func TestSeedChangesKeyAndOutput(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	_, a := postJSON(t, ts.URL+"/run", `{"kind":"exhibit","exhibit":"fig10","quick":true,"seed":1}`)
	_, b := postJSON(t, ts.URL+"/run", `{"kind":"exhibit","exhibit":"fig10","quick":true,"seed":2}`)
	if bytes.Equal(a, b) {
		t.Errorf("different seeds produced identical output")
	}
	if c := s.metrics.counters.view(); c.CellsExecuted != 2 || c.CellsCached != 0 {
		t.Errorf("different seeds shared a cache cell: %+v", c)
	}
}

func TestRegistryTrimForgetsFinishedJobs(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, MaxJobs: 2})
	for i := 0; i < 4; i++ {
		id, _ := submitAndWait(t, ts.URL, `{"kind":"exhibit","exhibit":"table8","quick":true}`)
		_ = id
	}
	if got := len(s.jobList()); got > 2 {
		t.Errorf("registry holds %d jobs, want at most 2", got)
	}
	// The newest job must survive trimming.
	if _, ok := s.Job(fmt.Sprintf("job-%06d", 4)); !ok {
		t.Errorf("newest job was trimmed")
	}
}

// TestFinishedJobsReleaseTheirContexts: once a job is terminal its context
// is canceled, trimmed from the registry or not, so a long-running daemon
// does not keep one child of its base context per job it ever ran.
func TestFinishedJobsReleaseTheirContexts(t *testing.T) {
	s := New(Config{Workers: 1, MaxJobs: 2})
	defer s.Close()
	var jobs []*Job
	for i := 0; i < 20; i++ {
		j, err := s.Submit(Request{Kind: "exhibit", Exhibit: "table8", Quick: true})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		<-j.done
		jobs = append(jobs, j)
	}
	// Drain returns once every worker has left runJob; the base context
	// stays live, so only the jobs' own cancels can have ended theirs.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s.baseCtx.Err() != nil {
		t.Fatal("the base context was canceled; the test shows nothing")
	}
	for _, j := range jobs {
		if j.ctx.Err() == nil {
			t.Errorf("%s is %s with its context still live", j.ID, j.status)
		}
	}
}
