package serve

import (
	"fmt"
	"sync"
	"time"
)

// wallClock is the single wall-clock read site of the package: latency
// histograms and Retry-After hints are observability, never simulation
// state — job result bytes are a pure function of the request.
func wallClock() time.Time {
	return time.Now() //bulklint:allow randsrc latency metrics and backpressure hints need the wall clock; result bytes never depend on it
}

// histBounds are the latency bucket upper bounds in milliseconds,
// roughly logarithmic from 100µs to 100s; an implicit +Inf bucket
// catches the rest.
var histBounds = []float64{
	0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500,
	1000, 2000, 5000, 10000, 20000, 50000, 100000,
}

// histogram is a fixed-bucket latency histogram with quantile estimation
// by linear interpolation inside the winning bucket.
type histogram struct {
	mu sync.Mutex
	//bulklint:guardedby mu
	counts []uint64
	//bulklint:guardedby mu
	count uint64
	//bulklint:guardedby mu
	sumMS float64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(histBounds)+1)}
}

// observe records one latency.
func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(histBounds) && ms > histBounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sumMS += ms
	h.mu.Unlock()
}

// histSnapshot is one histogram's exported state.
type histSnapshot struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// snapshot computes the summary quantiles.
func (h *histogram) snapshot() histSnapshot {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	count := h.count
	sum := h.sumMS
	h.mu.Unlock()
	s := histSnapshot{Count: count}
	if count == 0 {
		return s
	}
	s.MeanMS = sum / float64(count)
	s.P50MS = quantile(counts, count, 0.50)
	s.P95MS = quantile(counts, count, 0.95)
	s.P99MS = quantile(counts, count, 0.99)
	return s
}

// quantile estimates the q-quantile from bucket counts, interpolating
// linearly within the winning bucket. The overflow bucket reports its
// lower bound (an honest floor when tails escape the range).
func quantile(counts []uint64, total uint64, q float64) float64 {
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = histBounds[i-1]
		}
		if i >= len(histBounds) {
			return histBounds[len(histBounds)-1]
		}
		frac := (rank - prev) / float64(c)
		return lo + frac*(histBounds[i]-lo)
	}
	return histBounds[len(histBounds)-1]
}

// counters are the daemon-lifetime event totals exported on /metrics.
type counters struct {
	mu sync.Mutex
	//bulklint:guardedby mu
	v countersView
}

// countersView is the exported shape of the counters.
type countersView struct {
	Accepted         uint64 `json:"accepted"`
	RejectedQueue    uint64 `json:"rejected_queue_full"`
	RejectedDraining uint64 `json:"rejected_draining"`
	RejectedInvalid  uint64 `json:"rejected_invalid"`
	Completed        uint64 `json:"completed"`
	Failed           uint64 `json:"failed"`
	Canceled         uint64 `json:"canceled"`
	Panics           uint64 `json:"panics_recovered"`
	CellsExecuted    uint64 `json:"cells_executed"`
	CellsCached      uint64 `json:"cells_cached"`
	CellsCoalesced   uint64 `json:"cells_coalesced"`
}

func (c *counters) add(f func(*countersView)) {
	c.mu.Lock()
	f(&c.v)
	c.mu.Unlock()
}

func (c *counters) view() countersView {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// endpointNames fixes the /metrics latency section order (no map
// iteration anywhere near the output path).
var endpointNames = []string{"submit", "run", "status", "stream", "result", "list", "metrics"}

// metricsRegistry aggregates everything /metrics exports.
type metricsRegistry struct {
	counters counters
	latency  map[string]*histogram // fixed keys, created once, read-only after init
	jobSecs  ewma
}

func newMetricsRegistry() *metricsRegistry {
	m := &metricsRegistry{latency: map[string]*histogram{}}
	for _, name := range endpointNames {
		m.latency[name] = newHistogram()
	}
	return m
}

// observe records one endpoint latency; unknown endpoints are ignored.
func (m *metricsRegistry) observe(endpoint string, d time.Duration) {
	if h, ok := m.latency[endpoint]; ok {
		h.observe(d)
	}
}

// ewma tracks a smoothed job duration for Retry-After estimates.
type ewma struct {
	mu sync.Mutex
	//bulklint:guardedby mu
	val float64
	//bulklint:guardedby mu
	init bool
}

func (e *ewma) observe(secs float64) {
	e.mu.Lock()
	if !e.init {
		e.val, e.init = secs, true
	} else {
		e.val = 0.8*e.val + 0.2*secs
	}
	e.mu.Unlock()
}

func (e *ewma) value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.val
}

// retryAfterSecs estimates how long a rejected client should back off:
// the queue's expected drain time at the smoothed job duration, clamped
// to [1, 60] seconds.
func retryAfterSecs(queued, workers int, avgJobSecs float64) int {
	if workers < 1 {
		workers = 1
	}
	est := float64(queued) * avgJobSecs / float64(workers)
	secs := int(est + 0.999)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// latencyJSON renders the per-endpoint histogram section in fixed order.
func (m *metricsRegistry) latencyJSON() string {
	out := "{"
	for i, name := range endpointNames {
		if i > 0 {
			out += ","
		}
		s := m.latency[name].snapshot()
		out += fmt.Sprintf(`%q:{"count":%d,"mean_ms":%.3f,"p50_ms":%.3f,"p95_ms":%.3f,"p99_ms":%.3f}`,
			name, s.Count, s.MeanMS, s.P50MS, s.P95MS, s.P99MS)
	}
	return out + "}"
}
