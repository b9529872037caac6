package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencySamples bounds the latency reservoir: a ring of the most recent
// request latencies from which the percentile snapshot is computed.
const latencySamples = 4096

// ewmaShift is the exponential-moving-average decay for the solve-latency
// estimate driving admission control: new = old + (sample-old)/2^ewmaShift.
const ewmaShift = 3

// metrics is the process-wide serving registry: monotone counters, an EWMA
// of backend solve latency (the admission controller's wait estimator),
// and a bounded reservoir of recent request latencies for percentiles.
// All methods are safe for concurrent use.
type metrics struct {
	requests  atomic.Int64 // /v1/resolve requests accepted for processing
	coalesced atomic.Int64 // followers that shared a leader's in-flight solve
	solves    atomic.Int64 // backend Resolve calls actually issued
	cacheHits atomic.Int64 // requests answered from the backend's answer store
	unsat     atomic.Int64 // definitive unsatisfiable answers
	shed      atomic.Int64 // requests rejected by admission control
	timeouts  atomic.Int64 // requests that exhausted their deadline
	failures  atomic.Int64 // other errors (budget, internal, bad request)
	applies   atomic.Int64 // /v1/apply deltas absorbed
	degraded  atomic.Int64 // last good answers served in degraded mode
	retries   atomic.Int64 // backend solves retried after a transient failure
	panics    atomic.Int64 // panics contained at the serving boundary
	rebuilds  atomic.Int64 // operator rebuilds (POST /v1/rebuild)

	ewmaNs atomic.Int64 // EWMA of backend solve latency, nanoseconds

	mu   sync.Mutex
	lats [latencySamples]int64 // request latency ring, nanoseconds
	pos  int
	n    int
}

// observeSolve folds one completed backend solve into the EWMA wait
// estimator.
func (m *metrics) observeSolve(d time.Duration) {
	m.solves.Add(1)
	for {
		old := m.ewmaNs.Load()
		nw := old + (int64(d)-old)>>ewmaShift
		if old == 0 {
			nw = int64(d)
		}
		if m.ewmaNs.CompareAndSwap(old, nw) {
			return
		}
	}
}

// observeLatency records one finished request's end-to-end latency.
func (m *metrics) observeLatency(d time.Duration) {
	m.mu.Lock()
	m.lats[m.pos] = int64(d)
	m.pos = (m.pos + 1) % latencySamples
	if m.n < latencySamples {
		m.n++
	}
	m.mu.Unlock()
}

// percentiles returns the p50/p90/p99 of the recorded latencies (zeros
// when nothing has been recorded yet).
func (m *metrics) percentiles() (p50, p90, p99 time.Duration) {
	m.mu.Lock()
	n := m.n
	buf := make([]int64, n)
	if n <= m.pos {
		copy(buf, m.lats[m.pos-n:m.pos])
	} else {
		k := copy(buf, m.lats[m.pos+latencySamples-n:])
		copy(buf[k:], m.lats[:m.pos])
	}
	m.mu.Unlock()
	if n == 0 {
		return 0, 0, 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	at := func(p float64) time.Duration {
		i := int(p * float64(n-1))
		return time.Duration(buf[i])
	}
	return at(0.50), at(0.90), at(0.99)
}
