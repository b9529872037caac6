package serve

// Tests for the daemon resilience layer: retry with backoff on transient
// backend failures, panic containment at the serving boundary, the
// stale-answer degraded mode with its epoch bound, Retry-After on shed
// responses, and the /v1/rebuild operator override. Faults are injected
// through the serve/backend/* faultpoints — the same sites the chaos
// harness drives.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/faultpoint"
	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/resolve"
)

// armServeFault arms one faultpoint site with one anonymous rule and
// registers a full disarm at test end (schedules are process-global).
func armServeFault(t *testing.T, site string, steps ...faultpoint.Step) {
	t.Helper()
	t.Cleanup(faultpoint.DisarmAll)
	if err := faultpoint.Arm(site, faultpoint.Any(steps...)); err != nil {
		t.Fatal(err)
	}
}

// TestServeRetryRecovers: a transient backend failure is retried within
// the deadline and the request still succeeds — the caller never sees the
// blip.
func TestServeRetryRecovers(t *testing.T) {
	b := &stubBackend{picks: stubPicks()}
	s := New(b, Options{MaxRetries: 3, RetryBackoff: time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	armServeFault(t, "serve/backend/resolve", faultpoint.Error(2, nil))

	status, ok, _, err := postResolve(ts.URL, ResolveRequest{Roots: []string{"pkg"}})
	if err != nil || status != http.StatusOK {
		t.Fatalf("resolve with transient faults = %d, %v", status, err)
	}
	if ok.Degraded {
		t.Fatal("retried answer marked degraded")
	}
	if got := s.metrics.retries.Load(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	if got := b.solves.Load(); got != 1 {
		t.Fatalf("backend solves = %d, want 1 (faults fired before the backend)", got)
	}
}

// TestServeBackendPanicContained: a panic escaping the backend is captured
// as a 500 with kind "panic" — the daemon keeps serving, and the next
// request succeeds.
func TestServeBackendPanicContained(t *testing.T) {
	b := &stubBackend{picks: stubPicks()}
	s := New(b, Options{MaxRetries: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	armServeFault(t, "serve/backend/resolve", faultpoint.Panic(1, "injected backend panic"))

	status, _, bad, err := postResolve(ts.URL, ResolveRequest{Roots: []string{"pkg"}})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInternalServerError || bad.Kind != "panic" {
		t.Fatalf("panicking backend = %d kind %q, want 500 panic", status, bad.Kind)
	}
	if got := s.metrics.panics.Load(); got != 1 {
		t.Fatalf("contained panics = %d, want 1", got)
	}

	// Containment means the process (and the mux) survived.
	status, ok, _, err := postResolve(ts.URL, ResolveRequest{Roots: []string{"pkg"}})
	if err != nil || status != http.StatusOK || ok.Degraded {
		t.Fatalf("resolve after contained panic = %d degraded=%v, %v", status, ok.Degraded, err)
	}
}

// TestServeDegradedStaleAnswer: when the backend cannot answer, the
// last-known-good resolution for the shape is served — degraded-stamped,
// carrying the epoch it was computed at — until the universe moves past
// the staleness bound, at which point the failure surfaces.
func TestServeDegradedStaleAnswer(t *testing.T) {
	b := &stubBackend{picks: stubPicks()}
	s := New(b, Options{MaxRetries: -1, MaxStaleEpochs: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Warm the shape: an optimal answer at epoch 0 lands in the LKG cache.
	status, warm, _, err := postResolve(ts.URL, ResolveRequest{Roots: []string{"pkg"}})
	if err != nil || status != http.StatusOK || warm.Degraded {
		t.Fatalf("warm resolve = %d, %v", status, err)
	}
	if st := s.Stats(); st.StaleCacheLen != 1 {
		t.Fatalf("stale cache len = %d, want 1", st.StaleCacheLen)
	}

	// Backend down (every attempt faults): the stale answer serves.
	armServeFault(t, "serve/backend/resolve", faultpoint.Error(0, nil))
	status, ok, _, err := postResolve(ts.URL, ResolveRequest{Roots: []string{"pkg"}})
	if err != nil || status != http.StatusOK {
		t.Fatalf("degraded resolve = %d, %v", status, err)
	}
	if !ok.Degraded {
		t.Fatal("stale answer not stamped degraded")
	}
	if ok.Epoch != 0 {
		t.Fatalf("degraded answer epoch = %d, want the computed-at epoch 0", ok.Epoch)
	}
	if ok.Picks["pkg"] != "1.0" {
		t.Fatalf("degraded picks = %v", ok.Picks)
	}
	if got := s.metrics.degraded.Load(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}
	// While a fault schedule is armed, /v1/stats says so.
	if st := s.Stats(); !slices.Contains(st.Faultpoints, "serve/backend/resolve") {
		t.Fatalf("armed faultpoint missing from stats: %v", st.Faultpoints)
	}

	// An unknown shape has no LKG entry: the failure surfaces.
	status, _, bad, err := postResolve(ts.URL, ResolveRequest{Roots: []string{"never-seen"}})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInternalServerError || bad.Kind != "internal" {
		t.Fatalf("uncached shape under faults = %d kind %q, want 500 internal", status, bad.Kind)
	}

	// The universe moves past the staleness bound: degraded mode refuses.
	for i := 0; i < 3; i++ {
		if _, err := s.backend.Apply(resolve.NewDelta()); err != nil {
			t.Fatal(err)
		}
	}
	status, _, _, err = postResolve(ts.URL, ResolveRequest{Roots: []string{"pkg"}})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("over-stale degraded resolve = %d, want the failure to surface", status)
	}

	// Faults gone: fresh answers, fresh epoch, degraded flag clear.
	faultpoint.DisarmAll()
	status, ok, _, err = postResolve(ts.URL, ResolveRequest{Roots: []string{"pkg"}})
	if err != nil || status != http.StatusOK || ok.Degraded {
		t.Fatalf("post-recovery resolve = %d degraded=%v, %v", status, ok.Degraded, err)
	}
	if ok.Epoch != 3 {
		t.Fatalf("post-recovery epoch = %d, want 3", ok.Epoch)
	}
}

// TestServeShedRetryAfter: shed responses carry a Retry-After header
// derived from the admission controller's wait estimate.
func TestServeShedRetryAfter(t *testing.T) {
	b := &stubBackend{block: make(chan struct{}), picks: stubPicks()}
	s := New(b, Options{MaxInflight: 1, MaxQueue: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer close(b.block)

	// Occupy the only lane.
	go postResolve(ts.URL, ResolveRequest{Roots: []string{"pkg"}, TimeoutMS: 30000})
	waitFor(t, func() bool { return b.solves.Load() == 1 })

	// A different shape cannot coalesce and cannot queue: shed with 429
	// and a Retry-After hint.
	buf, _ := json.Marshal(ResolveRequest{Roots: []string{"other"}})
	resp, err := http.Post(ts.URL+"/v1/resolve", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", ra)
	}
}

// TestServeRebuildEndpoint: POST /v1/rebuild force-heals a backend whose
// members were benched by a faulted broadcast, and reports 501 for
// backends with no benched-capacity concept.
func TestServeRebuildEndpoint(t *testing.T) {
	u, root := repo.SynthDiamond(3, 4)
	p, err := resolve.NewPortfolioResolver(u)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Options{MaxRetries: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Bench every member: the broadcast faults on each extension.
	armServeFault(t, "concretize/extend", faultpoint.Error(0, nil))
	d := ApplyRequest{Adds: []VersionAddRequest{{Pkg: "app", Version: "99.0", Deps: []DeclRequest{{Pkg: "mid0"}}}}}
	buf, _ := json.Marshal(d)
	resp, err := http.Post(ts.URL+"/v1/apply", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("faulted apply = %d, want 422", resp.StatusCode)
	}
	faultpoint.DisarmAll()

	// Every member benched: resolving fail-stops (no LKG for this shape).
	status, _, bad, err := postResolve(ts.URL, ResolveRequest{Roots: []string{root}})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable || bad.Kind != "no_members" {
		t.Fatalf("all-benched resolve = %d kind %q, want 503 no_members", status, bad.Kind)
	}

	// The operator override heals all four members.
	resp, err = http.Post(ts.URL+"/v1/rebuild", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rb RebuildResponse
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(rb.Healed) != 4 {
		t.Fatalf("rebuild = %d healed %v, want 200 with 4 members", resp.StatusCode, rb.Healed)
	}

	// Capacity is back: the delta's answer serves at epoch 1.
	status, ok, _, err := postResolve(ts.URL, ResolveRequest{Roots: []string{root}})
	if err != nil || status != http.StatusOK {
		t.Fatalf("post-rebuild resolve = %d, %v", status, err)
	}
	if ok.Degraded || ok.Epoch != 1 || ok.Picks["app"] != "99.0" {
		t.Fatalf("post-rebuild answer = %+v, want fresh epoch-1 resolution", ok)
	}

	// A bare-session backend has nothing to rebuild: 501.
	s2 := New(resolve.NewSessionResolver(u, resolve.SessionOptions{}), Options{})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp, err = http.Post(ts2.URL+"/v1/rebuild", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("session-backend rebuild = %d, want 501", resp.StatusCode)
	}
}

// TestServeRetryRebuildsBenchedBackend: the retry path self-heals — when
// every member is benched, the first failing request triggers a rebuild
// and its own retry then succeeds, no operator involved.
func TestServeRetryRebuildsBenchedBackend(t *testing.T) {
	u, root := repo.SynthDiamond(3, 4)
	p, err := resolve.NewPortfolioResolver(u)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Options{MaxRetries: 2, RetryBackoff: time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Bench every member via a fully-faulted broadcast.
	armServeFault(t, "concretize/extend", faultpoint.Error(0, nil))
	if _, err := p.Apply(diamondDeltaServe()); err == nil {
		t.Fatal("faulted broadcast returned nil error")
	}
	faultpoint.DisarmAll()

	status, ok, _, err := postResolve(ts.URL, ResolveRequest{Roots: []string{root}})
	if err != nil || status != http.StatusOK {
		t.Fatalf("resolve against fully-benched backend = %d, %v (want retry+rebuild to recover)", status, err)
	}
	if ok.Degraded {
		t.Fatal("recovered answer marked degraded")
	}
	if ok.Epoch != 1 || ok.Picks["app"] != "99.0" {
		t.Fatalf("recovered answer = %+v, want post-delta epoch-1 resolution", ok)
	}
	if s.metrics.rebuilds.Load() == 0 {
		t.Fatal("retry path recorded no rebuild")
	}
}

// TestServeRetryRespectsCrashLoop: the retry path heals benched capacity
// but never overrides the crashloop breaker — once every member is sticky,
// requests fail without further rebuild attempts (only POST /v1/rebuild
// resets the window).
func TestServeRetryRespectsCrashLoop(t *testing.T) {
	u, root := repo.SynthDiamond(3, 4)
	p, err := resolve.NewPortfolioResolver(u)
	if err != nil {
		t.Fatal(err)
	}
	p.SetCrashLoopPolicy(1, time.Hour)
	s := New(p, Options{MaxRetries: 2, RetryBackoff: time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Every member panics on every solve and on every rebuild.
	armServeFault(t, "resolve/portfolio/solve", faultpoint.Panic(0, "injected solve panic"))
	if err := faultpoint.Arm("resolve/portfolio/rebuild", faultpoint.Any(faultpoint.Panic(0, "injected rebuild panic"))); err != nil {
		t.Fatal(err)
	}
	allSticky := func() bool {
		for _, h := range p.Health() {
			if !h.CrashLoop {
				return false
			}
		}
		return true
	}
	for i := 0; i < 5 && !allSticky(); i++ {
		if _, _, _, err := postResolve(ts.URL, ResolveRequest{Roots: []string{root}}); err != nil {
			t.Fatal(err)
		}
	}
	if !allSticky() {
		t.Fatalf("members never all went sticky: %+v", p.Health())
	}

	before := faultpoint.Hits("resolve/portfolio/rebuild")
	for i := 0; i < 5; i++ {
		status, _, bad, err := postResolve(ts.URL, ResolveRequest{Roots: []string{root}})
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusServiceUnavailable || bad.Kind != "no_members" {
			t.Fatalf("resolve %d against a sticky backend = %d kind %q, want 503 no_members", i, status, bad.Kind)
		}
	}
	if after := faultpoint.Hits("resolve/portfolio/rebuild"); after != before {
		t.Fatalf("sticky backend made %d rebuild attempts across 5 requests, want 0", after-before)
	}
}

// diamondDeltaServe mirrors the resolve package's test delta for the
// diamond universe.
func diamondDeltaServe() *resolve.Delta {
	d := resolve.NewDelta()
	d.Add("app", "99.0", repo.Dep("mid0", ":"))
	return d
}
