package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/version"
	"github.com/paper-repo-growth/go-arxiv/resolve"
)

// stubBackend is a controllable Backend: it counts solves, optionally
// blocks each solve until released (so tests hold a flight open while a
// storm piles onto it), and returns the same Picks map on every call —
// which is exactly what makes it a probe for the per-caller copy
// contract. It has no members and no answer store.
type stubBackend struct {
	solves atomic.Int64
	block  chan struct{} // non-nil: solves wait for close (or ctx)
	epoch  atomic.Uint64
	picks  map[string]version.Version
	err    error
}

func (b *stubBackend) Resolve(ctx context.Context, req resolve.Request) (*resolve.Result, error) {
	b.solves.Add(1)
	if b.block != nil {
		select {
		case <-b.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if b.err != nil {
		return nil, b.err
	}
	return &resolve.Result{
		Picks:  b.picks,
		Stats:  resolve.Stats{Optimal: true, Cost: 1, Epoch: resolve.Epoch(b.epoch.Load())},
		Config: "stub",
	}, nil
}

func (b *stubBackend) Apply(d *resolve.Delta) (resolve.Epoch, error) {
	return resolve.Epoch(b.epoch.Add(1)), nil
}

func (b *stubBackend) Epoch() resolve.Epoch { return resolve.Epoch(b.epoch.Load()) }

func (b *stubBackend) Rebuild() []string          { return nil }
func (b *stubBackend) Snapshot() resolve.Snapshot { return resolve.Snapshot{Backend: "stub"} }
func (b *stubBackend) LastGood(string) (*resolve.Result, bool, bool) {
	return nil, false, false
}

func stubPicks() map[string]version.Version {
	return map[string]version.Version{"pkg": version.MustParse("1.0")}
}

// postResolve fires one resolve request and decodes whichever shape came
// back. It returns rather than failing so it is safe from spawned
// goroutines; callers assert on the main test goroutine.
func postResolve(url string, body ResolveRequest) (status int, ok ResolveResponse, bad ErrorResponse, err error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, ok, bad, err
	}
	resp, err := http.Post(url+"/v1/resolve", "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, ok, bad, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&ok)
	} else {
		err = json.NewDecoder(resp.Body).Decode(&bad)
	}
	return resp.StatusCode, ok, bad, err
}

// TestDaemonCoalesceStorm is the serving tier's keystone pin, run under
// -race in CI: N concurrent identical requests produce EXACTLY ONE
// backend solve. The stub blocks the leader's solve until the join-time
// coalesce counter proves every follower has attached, so the assertion
// is deterministic, not timing-dependent.
func TestDaemonCoalesceStorm(t *testing.T) {
	const n = 24
	b := &stubBackend{block: make(chan struct{}), picks: stubPicks()}
	s := New(b, Options{MaxInflight: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	results := make([]ResolveResponse, n)
	statuses := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], results[i], _, errs[i] = postResolve(ts.URL, ResolveRequest{Roots: []string{"pkg"}, TimeoutMS: 30000})
		}()
	}

	// Gate: release the leader only once every duplicate has attached to
	// its flight (followers are counted at join time).
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.coalesced.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers attached", s.metrics.coalesced.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(b.block)
	wg.Wait()

	if got := b.solves.Load(); got != 1 {
		t.Fatalf("backend solves = %d, want exactly 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if results[i].Picks["pkg"] != "1.0" {
			t.Fatalf("request %d: picks %v", i, results[i].Picks)
		}
		if !results[i].Coalesced {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want exactly 1", leaders)
	}
	st := s.Stats()
	if st.Requests != n || st.Coalesced != n-1 || st.Solves != 1 {
		t.Fatalf("stats requests=%d coalesced=%d solves=%d, want %d/%d/1", st.Requests, st.Coalesced, st.Solves, n, n-1)
	}
}

// TestCoalesceEpochKeying: requests arriving after an Apply must not
// share a pre-delta flight — the epoch in the key splits them.
func TestCoalesceEpochKeying(t *testing.T) {
	b := &stubBackend{block: make(chan struct{}), picks: stubPicks()}
	s := New(b, Options{MaxInflight: 4})

	req := resolve.Request{Roots: []resolve.Root{{Pkg: "pkg"}}}
	done := make(chan error, 2)
	go func() {
		_, _, err := s.resolve(context.Background(), req, 10*time.Second)
		done <- err
	}()
	// Wait for the leader to be in flight.
	waitFor(t, func() bool { return b.solves.Load() == 1 })

	// A delta lands: the universe moves to epoch 1.
	if _, err := s.backend.Apply(resolve.NewDelta()); err != nil {
		t.Fatal(err)
	}
	// A post-delta arrival must start a fresh flight (it would otherwise
	// inherit a pre-delta answer).
	go func() {
		_, _, err := s.resolve(context.Background(), req, 10*time.Second)
		done <- err
	}()
	waitFor(t, func() bool { return b.solves.Load() == 2 })
	close(b.block)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.metrics.coalesced.Load(); got != 0 {
		t.Fatalf("coalesced = %d, want 0 (epochs differ)", got)
	}
}

// TestCoalescedPicksOwnership: the stub hands out ONE shared map; every
// caller — leader and follower alike — must receive an independent copy,
// so mutating a returned Picks can poison neither the flight nor any
// other caller (the serving-tier leg of the Result.Picks ownership
// contract).
func TestCoalescedPicksOwnership(t *testing.T) {
	b := &stubBackend{block: make(chan struct{}), picks: stubPicks()}
	s := New(b, Options{MaxInflight: 2})

	req := resolve.Request{Roots: []resolve.Root{{Pkg: "pkg"}}}
	type out struct {
		res *resolve.Result
		err error
	}
	outs := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, _, err := s.resolve(context.Background(), req, 10*time.Second)
			outs <- out{res, err}
		}()
	}
	waitFor(t, func() bool {
		return b.solves.Load() == 1 && s.metrics.coalesced.Load() == 1
	})
	close(b.block)
	a, bres := <-outs, <-outs
	if a.err != nil || bres.err != nil {
		t.Fatal(a.err, bres.err)
	}
	if reflect.ValueOf(a.res.Picks).Pointer() == reflect.ValueOf(bres.res.Picks).Pointer() {
		t.Fatal("leader and follower share one Picks map")
	}
	// Poison one caller's copy; the other and the backend's original must
	// be untouched.
	a.res.Picks["pkg"] = version.MustParse("66.6")
	a.res.Picks["evil"] = version.MustParse("1.0")
	if got := bres.res.Picks["pkg"].String(); got != "1.0" || len(bres.res.Picks) != 1 {
		t.Fatalf("sibling caller sees poisoned picks: %v", bres.res.Picks)
	}
	if got := b.picks["pkg"].String(); got != "1.0" || len(b.picks) != 1 {
		t.Fatalf("backend map poisoned: %v", b.picks)
	}
	// Exactly one caller was stamped coalesced.
	stamped := 0
	if a.res.Stats.Coalesced {
		stamped++
	}
	if bres.res.Stats.Coalesced {
		stamped++
	}
	if stamped != 1 {
		t.Fatalf("coalesced stamps = %d, want 1", stamped)
	}
}

// TestShedQueueFull: with the queue disabled and the only slot occupied,
// a non-duplicate request is rejected 429 within a small fraction of its
// deadline — shedding must cost microseconds, not the deadline.
func TestShedQueueFull(t *testing.T) {
	b := &stubBackend{block: make(chan struct{}), picks: stubPicks()}
	s := New(b, Options{MaxInflight: 1, MaxQueue: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		postResolve(ts.URL, ResolveRequest{Roots: []string{"pkg"}, TimeoutMS: 30000})
	}()
	waitFor(t, func() bool { return s.inflight.Load() == 1 })

	const deadline = 10 * time.Second
	start := time.Now()
	status, _, er, err := postResolve(ts.URL, ResolveRequest{Roots: []string{"other"}, TimeoutMS: int64(deadline / time.Millisecond)})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", status, er.Error)
	}
	if er.Kind != "shed" {
		t.Fatalf("kind = %q, want shed", er.Kind)
	}
	if elapsed > deadline/10 {
		t.Fatalf("shed took %v — not a fast rejection against a %v deadline", elapsed, deadline)
	}
	close(b.block)
	<-leaderDone
	if got := s.metrics.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

// TestShedDeadlineInfeasible: when the estimated queue wait exceeds the
// request's deadline, the request is rejected 503 immediately instead of
// queuing to die.
func TestShedDeadlineInfeasible(t *testing.T) {
	b := &stubBackend{block: make(chan struct{}), picks: stubPicks()}
	s := New(b, Options{MaxInflight: 1, MaxQueue: 100})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Teach the wait estimator that solves take ~30s.
	s.metrics.ewmaNs.Store(int64(30 * time.Second))

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		postResolve(ts.URL, ResolveRequest{Roots: []string{"pkg"}, TimeoutMS: 30000})
	}()
	waitFor(t, func() bool { return s.inflight.Load() == 1 })

	start := time.Now()
	status, _, er, err := postResolve(ts.URL, ResolveRequest{Roots: []string{"other"}, TimeoutMS: 500})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", status, er.Error)
	}
	if er.Kind != "shed" {
		t.Fatalf("kind = %q, want shed", er.Kind)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("infeasible-deadline shed took %v, want immediate", elapsed)
	}
	close(b.block)
	<-leaderDone
}

// TestFollowerHonorsOwnDeadline: a follower with a short deadline gives
// up with a timeout while the leader keeps solving — coalescing shares
// answers, not fates.
func TestFollowerHonorsOwnDeadline(t *testing.T) {
	b := &stubBackend{block: make(chan struct{}), picks: stubPicks()}
	s := New(b, Options{MaxInflight: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	leaderDone := make(chan struct{})
	var leaderStatus atomic.Int64
	go func() {
		defer close(leaderDone)
		status, _, _, _ := postResolve(ts.URL, ResolveRequest{Roots: []string{"pkg"}, TimeoutMS: 30000})
		leaderStatus.Store(int64(status))
	}()
	waitFor(t, func() bool { return b.solves.Load() == 1 })

	status, _, er, err := postResolve(ts.URL, ResolveRequest{Roots: []string{"pkg"}, TimeoutMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("follower status = %d (kind %s), want 504", status, er.Kind)
	}
	if got := b.solves.Load(); got != 1 {
		t.Fatalf("follower timeout triggered %d solves, want 1", got)
	}
	close(b.block)
	<-leaderDone
	if got := leaderStatus.Load(); got != http.StatusOK {
		t.Fatalf("leader status = %d, want 200", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
