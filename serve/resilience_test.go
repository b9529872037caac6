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

// TestServeDegradedStaleAnswer: while the backend cannot answer, a fresh
// stored answer is still served as it is (200, not degraded), since it
// never reaches the backend; degraded mode serves a stale one, stamped
// degraded and carrying the epoch it was computed at, until the universe
// moves past the staleness bound, never from an unsat entry, and a
// re-solve replaces the stale entry. The backend is a real single-session
// pool; the serve/backend/resolve fault fails every attempt before it
// reaches the backend.
func TestServeDegradedStaleAnswer(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.Dep("lib", ":"))
	u.Add("lib", "1.0")
	u.Add("bad", "1.0", repo.Dep("lib", "9:"))
	s := New(resolve.NewPoolResolver(u, 1, resolve.SessionOptions{}), Options{MaxRetries: -1, MaxStaleEpochs: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	app := ResolveRequest{Roots: []string{"app"}}
	bad := ResolveRequest{Roots: []string{"bad"}}
	apply := func(pkg, ver string) {
		t.Helper()
		d := resolve.NewDelta()
		d.Add(pkg, ver)
		if _, err := s.backend.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	// expect resolves under the armed fault: an answer picking lib at the
	// given epoch, degraded or not as asked, or (lib == "") the failure
	// surfacing as a 500.
	expect := func(req ResolveRequest, lib string, epoch uint64, degraded bool) {
		t.Helper()
		status, ok, er, err := postResolve(ts.URL, req)
		if err != nil {
			t.Fatal(err)
		}
		if lib == "" {
			if status != http.StatusInternalServerError || er.Kind != "internal" {
				t.Fatalf("%v: %d kind %q (degraded=%v), want the failure to surface as 500 internal", req.Roots, status, er.Kind, ok.Degraded)
			}
			return
		}
		if status != http.StatusOK || ok.Degraded != degraded || ok.Epoch != epoch || ok.Picks["lib"] != lib {
			t.Fatalf("%v: %d degraded=%v epoch %d lib %s, want degraded=%v lib %s at epoch %d",
				req.Roots, status, ok.Degraded, ok.Epoch, ok.Picks["lib"], degraded, lib, epoch)
		}
	}

	// Warm both shapes: an optimal answer and an unsat proof at epoch 0.
	if status, warm, _, err := postResolve(ts.URL, app); err != nil || status != http.StatusOK || warm.Degraded {
		t.Fatalf("warm resolve = %d, %v", status, err)
	}
	if status, _, _, err := postResolve(ts.URL, bad); err != nil || status != http.StatusUnprocessableEntity {
		t.Fatalf("warm unsat resolve = %d, %v", status, err)
	}
	if st := s.Stats(); st.Answers != 2 {
		t.Fatalf("answer store holds %d fresh entries, want 2", st.Answers)
	}

	// Backend down: the fresh optimal entry is served as a store hit, not
	// degraded; the unsat entry never serves, and a shape never answered
	// has nothing to serve.
	armServeFault(t, "serve/backend/resolve", faultpoint.Error(0, nil))
	expect(app, "1.0", 0, false)
	expect(bad, "", 0, false)
	expect(ResolveRequest{Roots: []string{"never-seen"}}, "", 0, false)
	if got := s.metrics.degraded.Load(); got != 0 {
		t.Fatalf("degraded counter = %d, want 0", got)
	}
	// While a fault schedule is armed, /v1/stats says so.
	if st := s.Stats(); !slices.Contains(st.Faultpoints, "serve/backend/resolve") {
		t.Fatalf("armed faultpoint missing from stats: %v", st.Faultpoints)
	}

	// A delta both shapes reach makes their entries stale: the optimal one
	// still serves within the staleness bound, the unsat one still never.
	apply("lib", "2.0")
	if st := s.Stats(); st.Answers != 0 {
		t.Fatalf("answer store holds %d fresh entries after the delta, want 0", st.Answers)
	}
	expect(app, "1.0", 0, true)
	expect(bad, "", 0, false)

	// The universe moves past the staleness bound: degraded mode refuses.
	apply("other", "1.0")
	apply("other", "2.0")
	expect(app, "", 0, false)

	// Faults gone: a fresh answer at the current epoch replaces the stale
	// entry, and is what the store serves from then on, backend or not.
	faultpoint.DisarmAll()
	status, ok, _, err := postResolve(ts.URL, app)
	if err != nil || status != http.StatusOK || ok.Degraded || ok.Epoch != 3 || ok.Picks["lib"] != "2.0" {
		t.Fatalf("post-recovery resolve = %d degraded=%v epoch %d lib %s, %v; want a fresh lib 2.0 at epoch 3",
			status, ok.Degraded, ok.Epoch, ok.Picks["lib"], err)
	}
	armServeFault(t, "serve/backend/resolve", faultpoint.Error(0, nil))
	expect(app, "2.0", 3, false)
}

// TestServeDegradedFreshAnswer: the staleness bound applies to stale
// entries only. An answer the store still holds fresh is the current
// epoch's answer however many unrelated deltas ago it was solved, so
// while the backend fails it is served as it is — 200, not degraded, at
// the epoch it was solved at — without reaching the backend.
func TestServeDegradedFreshAnswer(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.Dep("lib", ":"))
	u.Add("lib", "1.0")
	p := resolve.NewPoolResolver(u, 1, resolve.SessionOptions{})
	s := New(p, Options{MaxRetries: -1, MaxStaleEpochs: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	app := ResolveRequest{Roots: []string{"app"}}
	if status, warm, _, err := postResolve(ts.URL, app); err != nil || status != http.StatusOK || warm.Epoch != 0 {
		t.Fatalf("warm resolve = %d epoch %d, %v", status, warm.Epoch, err)
	}
	for _, ver := range []string{"1.0", "2.0", "3.0"} {
		d := resolve.NewDelta()
		d.Add("other", ver)
		if _, err := p.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Answers != 1 || st.Epoch != 3 {
		t.Fatalf("after three unrelated deltas: %d fresh answers at epoch %d, want 1 at epoch 3", st.Answers, st.Epoch)
	}

	armServeFault(t, "serve/backend/resolve", faultpoint.Error(0, nil))
	status, ok, er, err := postResolve(ts.URL, app)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || ok.Degraded || ok.Epoch != 0 || ok.Picks["lib"] != "1.0" {
		t.Fatalf("faulted resolve = %d kind %q degraded=%v epoch %d, want the fresh answer, not degraded, at epoch 0",
			status, er.Kind, ok.Degraded, ok.Epoch)
	}
	if got := s.metrics.degraded.Load(); got != 0 {
		t.Fatalf("degraded counter = %d, want 0", got)
	}
}

// TestServeFreshAnswerSkipsAdmission: a fresh stored answer needs no solve
// slot, so it is served while a miss holds the only one — neither shed
// nor degraded — and counts as a cache hit, not a solve. The miss holds
// the slot through a latency fault at the pool's solve site.
func TestServeFreshAnswerSkipsAdmission(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.Dep("lib", ":"))
	u.Add("lib", "1.0")
	u.Add("other", "1.0")
	p := resolve.NewPoolResolver(u, 1, resolve.SessionOptions{})
	s := New(p, Options{MaxInflight: 1, MaxQueue: -1, MaxRetries: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	app := ResolveRequest{Roots: []string{"app"}}
	if status, _, _, err := postResolve(ts.URL, app); err != nil || status != http.StatusOK {
		t.Fatalf("warm resolve = %d, %v", status, err)
	}

	armServeFault(t, "resolve/pool/solve", faultpoint.Latency(1, time.Second))
	missDone := make(chan int, 1) // one send; a failing test never blocks the sender
	go func() {
		status, _, _, _ := postResolve(ts.URL, ResolveRequest{Roots: []string{"other"}})
		missDone <- status
	}()
	waitFor(t, func() bool { return faultpoint.Hits("resolve/pool/solve") >= 1 && s.inflight.Load() == 1 })

	status, ok, er, err := postResolve(ts.URL, app)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || ok.Degraded || !ok.Stats.SolutionCacheHit || ok.Picks["lib"] != "1.0" {
		t.Fatalf("stored shape with the slot taken = %d kind %q degraded=%v hit=%v, want a 200 store hit, not degraded",
			status, er.Kind, ok.Degraded, ok.Stats.SolutionCacheHit)
	}
	if status := <-missDone; status != http.StatusOK {
		t.Fatalf("miss holding the slot = %d, want 200", status)
	}
	st := s.Stats()
	if st.Degraded != 0 || st.Shed != 0 {
		t.Fatalf("degraded = %d, shed = %d, want 0 and 0", st.Degraded, st.Shed)
	}
	if st.CacheHits != 1 || st.Solves != 2 || st.Pool.Hits != 1 {
		t.Fatalf("cache hits = %d, solves = %d, pool hits = %d, want 1, 2 (the warm-up and the miss) and 1",
			st.CacheHits, st.Solves, st.Pool.Hits)
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
// shards were benched by a faulted broadcast and kept benched by failing
// rebuilds; on a backend with nothing benched it heals nothing.
func TestServeRebuildEndpoint(t *testing.T) {
	u, root := repo.SynthDiamond(3, 4)
	s := New(resolve.NewPoolResolver(u, 3, resolve.SessionOptions{}), Options{MaxRetries: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Bench every shard: the broadcast faults on each extension, and
	// every rebuild fails until the faults are disarmed.
	armServeFault(t, "concretize/extend", faultpoint.Error(0, nil))
	armServeFault(t, "resolve/pool/rebuild", faultpoint.Error(0, nil))
	d := ApplyRequest{Adds: []VersionAddRequest{{Pkg: "app", Version: "99.0", Deps: []DeclRequest{{Pkg: "mid0"}}}}}
	buf, _ := json.Marshal(d)
	resp, err := http.Post(ts.URL+"/v1/apply", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted apply = %d, want 200", resp.StatusCode)
	}

	// Every shard benched: resolving fail-stops (no stored answer for this
	// shape).
	status, _, bad, err := postResolve(ts.URL, ResolveRequest{Roots: []string{root}})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable || bad.Kind != "no_members" {
		t.Fatalf("all-benched resolve = %d kind %q, want 503 no_members", status, bad.Kind)
	}

	// The operator override heals all three shards.
	faultpoint.DisarmAll()
	resp, err = http.Post(ts.URL+"/v1/rebuild", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rb RebuildResponse
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(rb.Healed) != 3 {
		t.Fatalf("rebuild = %d healed %v, want 200 with 3 shards", resp.StatusCode, rb.Healed)
	}

	// Capacity is back: the delta's answer serves at epoch 1.
	status, ok, _, err := postResolve(ts.URL, ResolveRequest{Roots: []string{root}})
	if err != nil || status != http.StatusOK {
		t.Fatalf("post-rebuild resolve = %d, %v", status, err)
	}
	if ok.Degraded || ok.Epoch != 1 || ok.Picks["app"] != "99.0" {
		t.Fatalf("post-rebuild answer = %+v, want fresh epoch-1 resolution", ok)
	}

	// A single-session pool with nothing benched heals nothing.
	s2 := New(resolve.NewPoolResolver(u, 1, resolve.SessionOptions{}), Options{})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp, err = http.Post(ts2.URL+"/v1/rebuild", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rb = RebuildResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(rb.Healed) != 0 {
		t.Fatalf("single-session rebuild = %d healed %v, want 200 with nothing healed", resp.StatusCode, rb.Healed)
	}
}

// TestServeRetryRebuildsBenchedBackend: a fully-benched backend heals
// itself, no operator involved — the backend's Resolve entry rebuilds
// its shards, and serve's retry only gives it another entry. The
// broadcast's rebuilds fail, and so does the first request's; its retry
// then succeeds.
func TestServeRetryRebuildsBenchedBackend(t *testing.T) {
	u, root := repo.SynthDiamond(3, 4)
	p := resolve.NewPoolResolver(u, 3, resolve.SessionOptions{})
	s := New(p, Options{MaxRetries: 2, RetryBackoff: time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Bench every shard via a fully-faulted broadcast; the rebuild fault
	// covers the broadcast's three rebuilds and the first entry's three.
	armServeFault(t, "concretize/extend", faultpoint.Error(0, nil))
	armServeFault(t, "resolve/pool/rebuild", faultpoint.Error(6, nil))
	if _, err := p.Apply(diamondDeltaServe()); err != nil {
		t.Fatal(err)
	}
	faultpoint.Disarm("concretize/extend")
	if st := p.Snapshot(); st.Broken != 3 {
		t.Fatalf("broken shards after the faulted broadcast = %d, want 3", st.Broken)
	}

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
	if st := p.Snapshot(); st.Broken != 0 || st.Rebuilds != 3 {
		t.Fatalf("backend broken/rebuilds = %d/%d, want 0/3", st.Broken, st.Rebuilds)
	}
	if got := s.metrics.retries.Load(); got != 1 {
		t.Fatalf("serve retries = %d, want 1", got)
	}
	if got := s.metrics.rebuilds.Load(); got != 0 {
		t.Fatalf("serve rebuilds = %d, want 0 (only POST /v1/rebuild counts)", got)
	}
}

// TestServeRetryRespectsCrashLoop: the retry path heals benched capacity
// but never overrides the crashloop breaker — once every shard is sticky,
// requests fail without further rebuild attempts (only POST /v1/rebuild
// resets the window).
func TestServeRetryRespectsCrashLoop(t *testing.T) {
	u, root := repo.SynthDiamond(3, 4)
	p := resolve.NewPoolResolver(u, 3, resolve.SessionOptions{})
	p.SetCrashLoopPolicy(1, time.Hour)
	s := New(p, Options{MaxRetries: 2, RetryBackoff: time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Every shard panics on every solve and on every rebuild.
	armServeFault(t, "resolve/pool/solve", faultpoint.Panic(0, "injected solve panic"))
	if err := faultpoint.Arm("resolve/pool/rebuild", faultpoint.Any(faultpoint.Panic(0, "injected rebuild panic"))); err != nil {
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
		t.Fatalf("shards never all went sticky: %+v", p.Health())
	}

	before := faultpoint.Hits("resolve/pool/rebuild")
	for i := 0; i < 5; i++ {
		status, _, bad, err := postResolve(ts.URL, ResolveRequest{Roots: []string{root}})
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusServiceUnavailable || bad.Kind != "no_members" {
			t.Fatalf("resolve %d against a sticky backend = %d kind %q, want 503 no_members", i, status, bad.Kind)
		}
	}
	if after := faultpoint.Hits("resolve/pool/rebuild"); after != before {
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
