package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// Handler builds the daemon's HTTP surface. Routes:
//
//	POST   /jobs              submit a job (202 + links; 429 full; 503 draining)
//	GET    /jobs              list jobs in submission order
//	GET    /jobs/{id}         job status
//	GET    /jobs/{id}/stream  ndjson progress frames (?cancel=1 binds disconnect → cancel)
//	GET    /jobs/{id}/result  raw result bytes, exactly the one-shot CLI output
//	DELETE /jobs/{id}         cancel
//	POST   /run               synchronous submit-and-wait; disconnect cancels
//	GET    /metrics           daemon metrics, JSON, fixed field order
//	GET    /healthz           liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.instrument("submit", s.handleSubmit))
	mux.HandleFunc("GET /jobs", s.instrument("list", s.handleList))
	mux.HandleFunc("GET /jobs/{id}", s.instrument("status", s.handleStatus))
	mux.HandleFunc("GET /jobs/{id}/stream", s.instrument("stream", s.handleStream))
	mux.HandleFunc("GET /jobs/{id}/result", s.instrument("result", s.handleResult))
	mux.HandleFunc("DELETE /jobs/{id}", s.instrument("status", s.handleCancel))
	mux.HandleFunc("POST /run", s.instrument("run", s.handleRun))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true}` + "\n"))
	})
	return mux
}

// instrument wraps a handler with the endpoint's latency histogram.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := wallClock()
		h(w, r)
		s.metrics.observe(name, wallClock().Sub(start))
	}
}

// writeError sends a JSON error payload.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = fmt.Fprintf(w, `{"error":%q}`+"\n", msg)
}

// maxRequestBytes bounds a submission body. Real requests are under 200
// bytes; the bound keeps one request from making the daemon buffer an
// arbitrarily large JSON value.
const maxRequestBytes = 4 << 10

// decodeRequest parses a submission body, returning the HTTP status to
// answer with when it is unacceptable: 413 past maxRequestBytes, 400 for
// anything else that does not parse.
func decodeRequest(w http.ResponseWriter, r *http.Request) (Request, int, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return Request{}, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", maxRequestBytes)
		}
		return Request{}, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err)
	}
	return req, 0, nil
}

// submitOrReject runs Submit and translates its failure modes to HTTP
// status codes. Returns nil after writing the error response.
func (s *Server) submitOrReject(w http.ResponseWriter, r *http.Request) *Job {
	req, status, err := decodeRequest(w, r)
	if err != nil {
		writeError(w, status, err.Error())
		return nil
	}
	j, err := s.Submit(req)
	switch {
	case err == nil:
		return j
	case err == errQueueFull:
		s.mu.Lock()
		queued := len(s.queue)
		workers := s.cfg.Workers
		s.mu.Unlock()
		w.Header().Set("Retry-After",
			fmt.Sprintf("%d", retryAfterSecs(queued, workers, s.metrics.jobSecs.value())))
		writeError(w, http.StatusTooManyRequests, err.Error())
		return nil
	case err == errDraining:
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return nil
	default:
		writeError(w, http.StatusBadRequest, err.Error())
		return nil
	}
}

// handleSubmit accepts a job and returns its id plus follow-up links.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j := s.submitOrReject(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_, _ = fmt.Fprintf(w,
		`{"id":%q,"status":"queued","status_url":"/jobs/%s","stream_url":"/jobs/%s/stream","result_url":"/jobs/%s/result"}`+"\n",
		j.ID, j.ID, j.ID, j.ID)
}

// handleRun is the synchronous path: submit, wait, stream back the raw
// result. The client's disconnect cancels the job.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	j := s.submitOrReject(w, r)
	if j == nil {
		return
	}
	// Bind the client's connection to the job: if the request context
	// dies before the job completes, cancel it.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-r.Context().Done():
			j.cancel(errClientGone)
		case <-j.done:
		case <-watchDone:
		}
	}()
	<-j.done

	result, st, errmsg := j.resultBytes()
	switch st {
	case StatusDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(result)
	case StatusCanceled:
		writeError(w, 499, "job canceled: "+errmsg)
	default:
		writeError(w, http.StatusInternalServerError, "job failed: "+errmsg)
	}
}

// handleList returns the registry in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobList()
	var b strings.Builder
	b.WriteString(`{"jobs":[`)
	for i, j := range jobs {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(j.summaryJSON())
	}
	b.WriteString("]}\n")
	w.Header().Set("Content-Type", "application/json")
	_, _ = fmt.Fprint(w, b.String())
}

// lookupJob resolves the {id} path segment, writing 404 on a miss.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return nil
	}
	return j
}

// handleStatus reports a job's current state.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	st, errmsg, done, total, cached, resultLen := j.snapshot()
	w.Header().Set("Content-Type", "application/json")
	if errmsg != "" {
		_, _ = fmt.Fprintf(w,
			`{"id":%q,"kind":%q,"status":%q,"error":%q,"cells_done":%d,"cells_total":%d,"cells_cached":%d}`+"\n",
			j.ID, j.Req.Kind, string(st), errmsg, done, total, cached)
		return
	}
	_, _ = fmt.Fprintf(w,
		`{"id":%q,"kind":%q,"status":%q,"cells_done":%d,"cells_total":%d,"cells_cached":%d,"result_bytes":%d}`+"\n",
		j.ID, j.Req.Kind, string(st), done, total, cached, resultLen)
}

// handleCancel cancels a job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	j.cancel(errCanceled)
	st, _, _, _, _, _ := j.snapshot()
	w.Header().Set("Content-Type", "application/json")
	_, _ = fmt.Fprintf(w, `{"id":%q,"status":%q,"cancel":"requested"}`+"\n", j.ID, string(st))
}

// handleStream replays a job's progress frames as newline-delimited JSON
// and follows live until the job reaches a terminal state. With
// ?cancel=1 the stream owns the job: client disconnect cancels it.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	ownsJob := r.URL.Query().Get("cancel") == "1"
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)

	sent := 0
	for {
		j.mu.Lock()
		frames := j.frames[sent:]
		terminal := j.status.terminal()
		notify := j.notify
		j.mu.Unlock()

		for _, f := range frames {
			if _, err := fmt.Fprintln(w, f); err != nil {
				if ownsJob {
					j.cancel(errClientGone)
				}
				return
			}
		}
		sent += len(frames)
		if len(frames) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			if ownsJob {
				j.cancel(errClientGone)
			}
			return
		}
	}
}

// handleResult returns the raw result bytes of a done job — exactly the
// one-shot CLI output for the same request.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	result, st, errmsg := j.resultBytes()
	switch st {
	case StatusDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(result)
	case StatusFailed:
		writeError(w, http.StatusInternalServerError, "job failed: "+errmsg)
	case StatusCanceled:
		writeError(w, http.StatusGone, "job canceled: "+errmsg)
	default:
		writeError(w, http.StatusConflict,
			fmt.Sprintf("job %s is %s; result not ready", j.ID, string(st)))
	}
}

// handleMetrics renders the daemon metrics as one JSON object with a
// fixed field order, so scrapes diff cleanly.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	busy := s.busyWorkers
	draining := s.draining
	jobs := len(s.jobs)
	s.mu.Unlock()
	c := s.metrics.counters.view()
	cacheStats := s.cache.snapshot()
	bw, busRuns := s.busMeter.Snapshot()
	cs, csRuns := s.simCacheMeter.Snapshot()

	var b strings.Builder
	b.WriteString("{")
	fmt.Fprintf(&b, `"queue":{"depth":%d,"capacity":%d,"workers":%d,"busy_workers":%d,"draining":%v,"jobs_tracked":%d}`,
		s.queueDepth(), s.cfg.QueueDepth, s.cfg.Workers, busy, draining, jobs)
	cj, err := json.Marshal(c)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	fmt.Fprintf(&b, `,"jobs":%s`, cj)
	rj, err := json.Marshal(cacheStats)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	fmt.Fprintf(&b, `,"result_cache":%s`, rj)
	fmt.Fprintf(&b, `,"bus":{"runs":%d,"total_bytes":%d,"commit_bytes":%d}`,
		busRuns, bw.Total(), bw.CommitBytes())
	fmt.Fprintf(&b, `,"sim_cache":{"runs":%d,"hits":%d,"misses":%d,"evictions":%d,"dirty_evicts":%d,"invals":%d}`,
		csRuns, cs.Hits, cs.Misses, cs.Evictions, cs.DirtyEvicts, cs.Invals)
	fmt.Fprintf(&b, `,"latency_ms":%s`, s.metrics.latencyJSON())
	b.WriteString("}\n")
	w.Header().Set("Content-Type", "application/json")
	_, _ = fmt.Fprint(w, b.String())
}
