package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/paper-repo-growth/go-arxiv/resolve"
)

// Spans are recorded from the benchmark's own code, around the calls into
// each layer: the client around its HTTP round trip, the daemon around
// serve's handler and around the backend's Resolve and Apply. A request
// that carries reqHeader is traced end to end under that ID; one without it
// passes through untouched.

// reqHeader carries the client's request ID into the daemon.
const reqHeader = "X-Bench-Req"

// Span layers.
const (
	layerClient  = "client"  // HTTP round trip, request encode, response decode
	layerServe   = "serve"   // serve's handler
	layerResolve = "resolve" // backend Resolve (leaders only; followers share it)
	layerApply   = "apply"   // backend Apply
)

// span is one timed call at a layer boundary. Times are nanoseconds from
// an origin private to the recording process; only durations and the
// spans of one process are compared.
type span struct {
	ID    uint64 `json:"id,omitempty"` // request ID; apply spans carry none
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Invalidated is, on apply spans, how many cached answers the delta
	// dropped (backend cache size before minus after).
	Invalidated int `json:"invalidated,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type reqIDKey struct{}

// handler wraps serve's handler: a request carrying an ID gets a serve
// span, and the ID rides its context down to the backend. serve detaches
// the leader's solve with context.WithoutCancel, which keeps the value.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		t.add(span{ID: id, Layer: layerServe, Start: start, End: t.now()})
	})
}

func (t *tracer) resolve(ctx context.Context, req resolve.Request, next func(context.Context, resolve.Request) (*resolve.Result, error)) (*resolve.Result, error) {
	id, ok := ctx.Value(reqIDKey{}).(uint64)
	if !ok {
		return next(ctx, req)
	}
	start := t.now()
	res, err := next(ctx, req)
	t.add(span{ID: id, Layer: layerResolve, Start: start, End: t.now()})
	return res, err
}

// The backend wrappers embed the concrete resolver, so serve's optional
// interface assertions (Health, Stats, Rebuild) still find its methods.

type tracedPool struct {
	*resolve.PoolResolver
	tr *tracer
}

func (b tracedPool) Resolve(ctx context.Context, req resolve.Request) (*resolve.Result, error) {
	return b.tr.resolve(ctx, req, b.PoolResolver.Resolve)
}

func (b tracedPool) Apply(d *resolve.Delta) (resolve.Epoch, error) {
	before := b.CacheLen()
	start := b.tr.now()
	epoch, err := b.PoolResolver.Apply(d)
	b.tr.add(span{Layer: layerApply, Start: start, End: b.tr.now(), Invalidated: before - b.CacheLen()})
	return epoch, err
}

type tracedPortfolio struct {
	*resolve.PortfolioResolver
	tr *tracer
}

func (b tracedPortfolio) Resolve(ctx context.Context, req resolve.Request) (*resolve.Result, error) {
	return b.tr.resolve(ctx, req, b.PortfolioResolver.Resolve)
}
