// Package serve is the daemon tier over the resolve API: an HTTP JSON
// surface (POST /v1/resolve, POST /v1/apply, POST /v1/rebuild, GET
// /v1/stats, GET /healthz) fronting one per-universe resolve backend — a
// pool (resolve.PoolResolver) — built for the traffic shape that
// dominates at scale: duplicate requests for the same resolution.
//
// A request whose answer the backend's store holds fresh
// (Backend.LastGood) is answered at once: it takes no solve slot, so it
// can be neither queued nor shed, and its latency never enters the shed
// estimator. Three mechanisms carry the rest of the load:
//
//   - Singleflight coalescing: identical in-flight requests — same
//     canonical shape key (objective + canonicalized roots, see
//     resolve.Request.Key), same conflict budget, same universe epoch —
//     collapse onto one leader solve. Followers block on the leader and
//     share its Result, each receiving its own Picks copy (the ownership
//     contract: a caller may mutate what it is handed) with
//     Stats.Coalesced stamped. Keying by epoch means requests straddling
//     an Apply never share an answer.
//
//   - Admission control and load shedding: leader solves pass through a
//     bounded in-flight semaphore. When the semaphore is contended, a
//     request whose deadline cannot outlast the estimated queue wait
//     (EWMA of solve latency scaled by queue depth) is rejected
//     immediately with 503, and a request beyond the hard queue bound
//     with 429 — a shed request spends microseconds, not its deadline.
//     Followers bypass admission entirely: they consume no solver.
//
//   - Deadlines end to end: every request runs under a per-request
//     timeout (client-chosen, server-clamped) mapped onto the resolver's
//     context machinery, so an expired request interrupts its solve
//     promptly and the backend stays warm and reusable.
//
// Errors map typed: unknown roots 400, proven-unsat 422 (with roots and
// the proving shard), budget exhaustion and shed 503/429, deadline 504.
// When the backend cannot answer, degraded mode serves the shape's last
// good answer from the backend's answer store (Backend.LastGood): a fresh
// one whatever its epoch, a stale one within Options.MaxStaleEpochs. GET
// /v1/stats exposes the process-wide registry — request and coalesce
// counters, answer-store hits, shed and timeout counts,
// p50/p90/p99 latency — and the backend's Snapshot: member health, and
// in the pool section its answer-store hits, supervision and routing
// counters, and per-shard encoder coverage.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/faultpoint"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
	"github.com/paper-repo-growth/go-arxiv/resolve"
)

// Backend is what the daemon serves: the resolve API plus growth,
// supervision and observability. *resolve.PoolResolver implements it.
type Backend interface {
	resolve.Resolver
	// Apply grows the backend's universe by one delta; it may block on the
	// write barrier for the duration of an in-flight broadcast.
	//
	// goarxivlint:blocking cancel=none
	Apply(*resolve.Delta) (resolve.Epoch, error)
	// Epoch is the universe epoch the backend currently serves at; it
	// qualifies the coalescing key.
	Epoch() resolve.Epoch
	// Rebuild is the operator override behind POST /v1/rebuild: it heals
	// every benched member, crashlooping ones included.
	//
	// goarxivlint:blocking cancel=none
	Rebuild() []string
	// Snapshot reports member health and the backend's counters for
	// /v1/stats.
	Snapshot() resolve.Snapshot
	// LastGood returns the shape's last optimal answer and whether it is
	// fresh (still the answer at the current epoch). A fresh answer is
	// served before coalescing and admission; degraded mode serves a
	// fresh or recent stale one when the backend cannot answer.
	LastGood(key string) (res *resolve.Result, fresh, ok bool)
}

// Options tunes a Server. The zero value selects sane defaults.
type Options struct {
	// MaxInflight bounds concurrent backend solves (leader requests past
	// admission). Zero selects GOMAXPROCS.
	MaxInflight int

	// MaxQueue bounds leaders waiting for an in-flight slot; arrivals
	// beyond it are shed with 429. Zero selects 4*MaxInflight; negative
	// disables queueing entirely (full semaphore sheds immediately).
	MaxQueue int

	// DefaultTimeout applies when a request names none. Zero selects 10s.
	DefaultTimeout time.Duration

	// MaxTimeout caps client-requested timeouts. Zero selects 60s.
	MaxTimeout time.Duration

	// MaxRetries bounds how many times a leader solve is retried after a
	// transient backend failure (contained panic, fully-benched backend,
	// injected fault) before the failure surfaces. Zero selects 2;
	// negative disables retries.
	MaxRetries int

	// RetryBackoff is the base of the jittered exponential backoff between
	// retries (base, 2*base, 4*base, ..., each +-50%). Zero selects 5ms.
	// Every sleep is budgeted against the request deadline: a retry whose
	// backoff plus expected solve would overrun it surfaces the failure
	// instead.
	RetryBackoff time.Duration

	// MaxStaleEpochs bounds degraded mode: a stale last good answer
	// (Backend.LastGood) is served only when the epoch it was computed at
	// is within this many epochs of the current universe; a fresh one is
	// served whatever its epoch. Zero selects 64; negative disables
	// degraded mode entirely.
	MaxStaleEpochs int
}

// Server is the HTTP daemon over one backend. Create with New, expose via
// Handler (it is an http.Handler), shut down by shutting down the
// enclosing http.Server — the Server itself holds no connections.
type Server struct {
	backend Backend
	opts    Options
	mux     *http.ServeMux

	flights  group
	sem      chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64
	metrics  metrics
}

// New builds a Server over the backend.
func New(b Backend, opts Options) *Server {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if opts.MaxQueue == 0 {
		opts.MaxQueue = 4 * opts.MaxInflight
	}
	if opts.MaxQueue < 0 {
		opts.MaxQueue = 0
	}
	if opts.DefaultTimeout <= 0 {
		opts.DefaultTimeout = 10 * time.Second
	}
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = 60 * time.Second
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 2
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 5 * time.Millisecond
	}
	if opts.MaxStaleEpochs == 0 {
		opts.MaxStaleEpochs = 64
	}
	s := &Server{
		backend: b,
		opts:    opts,
		sem:     make(chan struct{}, opts.MaxInflight),
	}
	// Count followers the moment they attach: an in-flight storm is then
	// visible in /v1/stats while the leader is still solving.
	s.flights.onJoin = func() { s.metrics.coalesced.Add(1) }
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/resolve", s.handleResolve)
	mux.HandleFunc("POST /v1/apply", s.handleApply)
	mux.HandleFunc("POST /v1/rebuild", s.handleRebuild)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// timeout clamps a request's deadline choice into the server's window.
func (s *Server) timeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		return s.opts.DefaultTimeout
	}
	return min(d, s.opts.MaxTimeout)
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	var wr ResolveRequest
	if err := decodeJSON(r, &wr); err != nil {
		writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Kind: "bad_request"})
		return
	}
	req, err := wr.toRequest()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Kind: "bad_request"})
		return
	}
	s.metrics.requests.Add(1)
	start := time.Now()
	res, degraded, err := s.resolve(r.Context(), req, s.timeout(wr.TimeoutMS))
	s.metrics.observeLatency(time.Since(start))
	if err != nil {
		status, resp := errorStatus(err)
		switch resp.Kind {
		case "shed":
			s.metrics.shed.Add(1)
			// Tell the client when capacity is expected: the estimated
			// queue wait at current depth, rounded up to whole seconds.
			w.Header().Set("Retry-After", retryAfterSeconds(s.estimatedWait(s.queued.Load())))
		case "timeout":
			s.metrics.timeouts.Add(1)
		case "unsat":
			s.metrics.unsat.Add(1)
		default:
			s.metrics.failures.Add(1)
		}
		writeError(w, status, resp)
		return
	}
	picks := make(map[string]string, len(res.Picks))
	for pkg, v := range res.Picks {
		picks[pkg] = v.String()
	}
	writeJSON(w, http.StatusOK, ResolveResponse{
		Picks:     picks,
		Cost:      res.Stats.Cost,
		Optimal:   res.Stats.Optimal,
		Config:    res.Config,
		Epoch:     uint64(res.Stats.Epoch),
		Degraded:  degraded,
		Coalesced: res.Stats.Coalesced,
		Stats: StatsResponse{
			Packages:         res.Stats.Packages,
			SolveCalls:       res.Stats.SolveCalls,
			Improvements:     res.Stats.Improvements,
			Conflicts:        res.Stats.Conflicts,
			Decisions:        res.Stats.Decisions,
			Propagations:     res.Stats.Propagations,
			SolutionCacheHit: res.Stats.SolutionCacheHit,
			Coalesced:        res.Stats.Coalesced,
		},
	})
}

// resolve is the serving pipeline for one request: serve the shape's
// fresh stored answer when the backend holds one; otherwise coalesce onto
// an in-flight identical solve when one exists, or lead — pass admission,
// run the backend under the request deadline with retries — and hand
// every caller its own copy of the shared result. When the pipeline fails
// for a degradable reason (shed, or transient after the retry budget), a
// fresh-enough last good answer for the shape is served instead, reported
// through the degraded flag.
func (s *Server) resolve(ctx context.Context, req resolve.Request, timeout time.Duration) (_ *resolve.Result, degraded bool, _ error) {
	shape := req.Key()
	// A fresh stored answer is the current epoch's answer, whatever the
	// request's budget: the caller gets it (its own copy) without a solve
	// slot or a flight.
	if res, fresh, ok := s.backend.LastGood(shape); ok && fresh {
		s.metrics.cacheHits.Add(1)
		return res, false, nil
	}
	// The follower's wait (and the fast-path shed check) run under the
	// caller's context; the leader's solve runs detached below so a
	// disconnecting leader client cannot kill the answer its followers
	// are waiting on.
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	// The coalescing key: request shape + budget + epoch. Epoch makes the
	// key self-invalidating across Apply — post-delta arrivals start a
	// fresh flight rather than share a pre-delta answer.
	key := fmt.Sprintf("%s\x1e%d\x1e%d", shape, req.MaxConflicts, s.backend.Epoch())
	res, err, coalesced := s.flights.do(ctx, key, func() (*resolve.Result, error) {
		release, err := s.admit(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		// Detach from the leader client's cancellation but keep the
		// timeout: followers share this solve, so only the deadline —
		// which every sharer also enforces on its own wait — may stop it.
		sctx, scancel := context.WithTimeout(context.WithoutCancel(ctx), timeout)
		defer scancel()
		return s.solveBackend(sctx, req)
	})
	if err != nil {
		if stale := s.staleAnswer(shape, err); stale != nil {
			return stale, true, nil
		}
		return nil, false, err
	}
	// Every caller — leader included — gets its own copy; the flight's
	// result stays pristine for concurrent followers (ownership contract:
	// Result.Picks is caller-owned and mutable).
	out := copyResult(res)
	out.Stats.Coalesced = coalesced
	return out, false, nil
}

// solveBackend is one leader's backend conversation: the contained call,
// retried on transient failures with jittered backoff, every sleep
// budgeted against the deadline (a retry that cannot finish in time
// surfaces the failure instead of burning the caller's budget). A retry
// against a fully-benched backend gives the backend's Resolve entry
// another chance to rebuild its members, within the crashloop breaker:
// once every member is sticky, requests fail fast until an operator POST
// /v1/rebuild.
func (s *Server) solveBackend(ctx context.Context, req resolve.Request) (*resolve.Result, error) {
	for attempt := 0; ; attempt++ {
		r, err := s.callBackend(ctx, req)
		if err == nil {
			if r.Stats.SolutionCacheHit {
				s.metrics.cacheHits.Add(1)
			}
			return r, nil
		}
		if attempt >= s.opts.MaxRetries || !transient(err) || ctx.Err() != nil {
			return nil, err
		}
		delay := retryDelay(s.opts.RetryBackoff, attempt)
		if dl, ok := ctx.Deadline(); ok {
			// The retry must fit its backoff plus an expected solve.
			if time.Until(dl) < delay+time.Duration(s.metrics.ewmaNs.Load()) {
				return nil, err
			}
		}
		s.metrics.retries.Add(1)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, err
		}
	}
}

// callBackend issues one backend Resolve with panic containment: a panic
// escaping the backend (beyond the resolver's own containment) is
// captured as a *resolve.PanicError instead of unwinding through the HTTP
// handler and killing the flight's followers.
func (s *Server) callBackend(ctx context.Context, req resolve.Request) (r *resolve.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.panics.Add(1)
			r, err = nil, &resolve.PanicError{Op: "serve/backend", Value: fmt.Sprint(rec), Stack: debug.Stack()}
		}
	}()
	if err := fpBackendResolve.Inject(""); err != nil {
		return nil, err
	}
	t0 := time.Now()
	r, err = s.backend.Resolve(ctx, req)
	s.metrics.observeSolve(time.Since(t0))
	return r, err
}

// staleAnswer is degraded mode: when a request failed for a degradable
// reason, serve the shape's last good answer from the backend's answer
// store — an optimal answer, never an unsat one — provided it is fresh,
// or stale but computed within the staleness bound of the current
// universe. A fresh one is still possible here although resolve serves
// fresh answers first: requests for one shape with different budgets
// lead separate flights, so another flight can file the answer between
// that read and this one. The caller receives its own copy, stamped with
// the epoch it was computed at; the degraded flag rides the response.
//
// Deltas are append-only, so a stale answer is still a consistent
// resolution of the universe as of its epoch: it may miss newer versions,
// it cannot name things that never existed.
func (s *Server) staleAnswer(shape string, cause error) *resolve.Result {
	if s.opts.MaxStaleEpochs < 0 || !degradable(cause) {
		return nil
	}
	res, fresh, ok := s.backend.LastGood(shape)
	if !ok {
		return nil
	}
	// A fresh entry is the current epoch's answer; only a stale one ages.
	if !fresh && uint64(s.backend.Epoch())-uint64(res.Stats.Epoch) > uint64(s.opts.MaxStaleEpochs) {
		return nil
	}
	s.metrics.degraded.Add(1)
	return res
}

// retryAfterSeconds renders a wait estimate as a Retry-After value,
// rounded up to whole seconds (the header's granularity; a sub-second
// estimate still advises 1s, never "now").
func retryAfterSeconds(wait time.Duration) string {
	return strconv.FormatInt(int64(wait/time.Second)+1, 10)
}

// copyResult clones a result deeply enough for caller ownership: a fresh
// Picks map, value-copied Stats.
func copyResult(r *resolve.Result) *resolve.Result {
	out := &resolve.Result{Stats: r.Stats, Config: r.Config}
	out.Picks = make(map[string]version.Version, len(r.Picks))
	for pkg, v := range r.Picks {
		out.Picks[pkg] = v
	}
	return out
}

// admit gates one leader solve on the in-flight semaphore. The fast paths
// never block: a free slot is taken immediately; a contended semaphore
// sheds the request at once when the hard queue bound is hit (429) or the
// estimated wait exceeds the request's deadline (503). Otherwise the
// request queues until a slot frees or its deadline fires (also a shed:
// the queue never got to it).
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	grab := func() func() {
		s.inflight.Add(1)
		return func() {
			s.inflight.Add(-1)
			<-s.sem
		}
	}
	select {
	case s.sem <- struct{}{}:
		return grab(), nil
	default:
	}
	q := s.queued.Load()
	if q >= int64(s.opts.MaxQueue) {
		return nil, errShedQueue
	}
	if dl, ok := ctx.Deadline(); ok {
		if wait := s.estimatedWait(q); time.Until(dl) < wait {
			return nil, fmt.Errorf("%w (estimated %v)", errShedWait, wait)
		}
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return grab(), nil
	case <-ctx.Done():
		return nil, fmt.Errorf("%w (deadline fired while queued)", errShedWait)
	}
}

// estimatedWait predicts how long the (q+1)'th queued leader waits for a
// slot: every queued request ahead plus one in-flight wave, served at the
// EWMA solve latency across MaxInflight lanes.
func (s *Server) estimatedWait(q int64) time.Duration {
	ewma := s.metrics.ewmaNs.Load()
	lanes := int64(s.opts.MaxInflight)
	return time.Duration(ewma + ewma*q/lanes)
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	var ar ApplyRequest
	if err := decodeJSON(r, &ar); err != nil {
		writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Kind: "bad_request"})
		return
	}
	d, err := ar.toDelta()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Kind: "bad_request"})
		return
	}
	epoch, err := s.applyBackend(d)
	if err != nil {
		if isPanicError(err) {
			status, resp := errorStatus(err)
			writeError(w, status, resp)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error(), Kind: "apply_failed"})
		return
	}
	s.metrics.applies.Add(1)
	writeJSON(w, http.StatusOK, ApplyResponse{Epoch: uint64(epoch)})
}

// applyBackend issues one backend Apply with panic containment, mirroring
// callBackend.
func (s *Server) applyBackend(d *resolve.Delta) (epoch resolve.Epoch, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.panics.Add(1)
			epoch, err = s.backend.Epoch(), &resolve.PanicError{Op: "serve/backend/apply", Value: fmt.Sprint(rec), Stack: debug.Stack()}
		}
	}()
	if err := fpBackendApply.Inject(""); err != nil {
		return s.backend.Epoch(), err
	}
	return s.backend.Apply(d)
}

// handleRebuild (POST /v1/rebuild) is the operator override for benched
// capacity: it force-heals every benched member — crashlooping (sticky)
// ones included — and reports what it healed.
func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	healed := s.backend.Rebuild()
	s.metrics.rebuilds.Add(1)
	writeJSON(w, http.StatusOK, RebuildResponse{Healed: healed})
}

// Stats snapshots the process-wide registry (also served at /v1/stats).
func (s *Server) Stats() ServerStats {
	p50, p90, p99 := s.metrics.percentiles()
	st := ServerStats{
		Requests:    s.metrics.requests.Load(),
		Coalesced:   s.metrics.coalesced.Load(),
		Solves:      s.metrics.solves.Load(),
		CacheHits:   s.metrics.cacheHits.Load(),
		Unsat:       s.metrics.unsat.Load(),
		Shed:        s.metrics.shed.Load(),
		Timeouts:    s.metrics.timeouts.Load(),
		Failures:    s.metrics.failures.Load(),
		Applies:     s.metrics.applies.Load(),
		Degraded:    s.metrics.degraded.Load(),
		Retries:     s.metrics.retries.Load(),
		Panics:      s.metrics.panics.Load(),
		Rebuilds:    s.metrics.rebuilds.Load(),
		Faultpoints: faultpoint.Armed(),
		P50Ms:       float64(p50) / float64(time.Millisecond),
		P90Ms:       float64(p90) / float64(time.Millisecond),
		P99Ms:       float64(p99) / float64(time.Millisecond),
		AvgSolveMs:  float64(s.metrics.ewmaNs.Load()) / float64(time.Millisecond),
		Inflight:    int(s.inflight.Load()),
		Queued:      int(s.queued.Load()),
		MaxInflight: s.opts.MaxInflight,
		Epoch:       uint64(s.backend.Epoch()),
	}
	snap := s.backend.Snapshot()
	st.Answers = snap.Answers
	for _, h := range snap.Members {
		mh := MemberHealthResponse{Name: h.Name, Quarantined: h.Quarantined, CrashLoop: h.CrashLoop, Epoch: uint64(h.Epoch)}
		if h.Err != nil {
			mh.Error = h.Err.Error()
		}
		st.Members = append(st.Members, mh)
	}
	pool := PoolStatsResponse{
		Shards:   len(snap.Members),
		Hits:     snap.Hits,
		Steals:   snap.Steals,
		Waits:    snap.Waits,
		Rebuilds: snap.Rebuilds,
		Panics:   snap.Panics,
		Broken:   snap.Broken,
	}
	for _, h := range snap.Members {
		pool.Shard = append(pool.Shard, ShardStatsResponse{
			Served:    h.Served,
			Inflight:  h.Inflight,
			Broken:    h.Quarantined,
			CrashLoop: h.CrashLoop,
			Encoding:  encodingResponse(h.Encoding),
		})
	}
	st.Pool = &pool
	return st
}

// encodingResponse lowers encoder-coverage counters onto the wire.
func encodingResponse(e resolve.EncodingStats) EncodingResponse {
	return EncodingResponse{
		MaterializedPackages: e.MaterializedPackages,
		UniversePackages:     e.UniversePackages,
		SolverVars:           e.SolverVars,
		Resets:               e.Resets,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// maxBodyBytes bounds request bodies; deltas are batches, not dumps.
const maxBodyBytes = 8 << 20

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, resp ErrorResponse) {
	writeJSON(w, status, resp)
}
