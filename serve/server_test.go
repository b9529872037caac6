package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/resolve"
)

func newDiamondServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	u, _ := repo.SynthDiamond(4, 6)
	s := New(resolve.NewPoolResolver(u, 1, resolve.SessionOptions{}), Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any, out any) (int, ErrorResponse) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er ErrorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, er
}

// TestServerResolveMatchesDirect: the HTTP path returns the same answer as
// calling the resolver directly — the wire adds transport, not semantics.
func TestServerResolveMatchesDirect(t *testing.T) {
	u, root := repo.SynthDiamond(4, 6)
	direct, err := resolve.NewPoolResolver(u, 1, resolve.SessionOptions{}).
		Resolve(context.Background(), resolve.Request{
			Roots: []resolve.Root{{Pkg: root}}, Objective: resolve.NewestVersion(),
		})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newDiamondServer(t)
	var rr ResolveResponse
	status, er := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Roots: []string{root}}, &rr)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, er.Error)
	}
	if !rr.Optimal {
		t.Fatal("daemon answer not optimal")
	}
	if rr.Cost != direct.Stats.Cost {
		t.Fatalf("daemon cost %d != direct cost %d", rr.Cost, direct.Stats.Cost)
	}
	if len(rr.Picks) != len(direct.Picks) {
		t.Fatalf("daemon picked %d packages, direct %d", len(rr.Picks), len(direct.Picks))
	}
	for pkg, v := range direct.Picks {
		if rr.Picks[pkg] != v.String() {
			t.Fatalf("pick %s: daemon %s, direct %s", pkg, rr.Picks[pkg], v)
		}
	}
}

// TestServerUnsatAttribution: a proven-unsat answer maps to 422 with kind
// "unsat", the offending roots, and — on a portfolio backend — the member
// that produced the proof.
func TestServerUnsatAttribution(t *testing.T) {
	u, root := repo.SynthUnsatWeb(4, 2)
	p, err := resolve.NewPortfolioResolver(u, resolve.DefaultPortfolio()...)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var rr ResolveResponse
	status, er := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Roots: []string{root}}, &rr)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", status)
	}
	if er.Kind != "unsat" {
		t.Fatalf("kind = %q, want unsat", er.Kind)
	}
	if len(er.Roots) == 0 || !strings.Contains(er.Roots[0], root) {
		t.Fatalf("unsat roots missing attribution: %v", er.Roots)
	}
	if er.Member == "" {
		t.Fatal("portfolio unsat lost member attribution")
	}
	if s.Stats().Unsat != 1 {
		t.Fatalf("unsat counter = %d, want 1", s.Stats().Unsat)
	}
}

// TestServerUnknownRoot: asking for a package the universe has never heard
// of is a client error, not a server failure.
func TestServerUnknownRoot(t *testing.T) {
	_, ts := newDiamondServer(t)
	var rr ResolveResponse
	status, er := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Roots: []string{"no-such-package"}}, &rr)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	if er.Kind != "unknown_package" {
		t.Fatalf("kind = %q, want unknown_package", er.Kind)
	}
}

// TestServerApplyRoundtrip: an applied delta advances the epoch and the
// next resolve sees the new world — the daemon serves a live universe.
func TestServerApplyRoundtrip(t *testing.T) {
	_, ts := newDiamondServer(t)

	var before ResolveResponse
	if status, er := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Roots: []string{"app"}}, &before); status != http.StatusOK {
		t.Fatalf("pre-apply resolve: %d %s", status, er.Error)
	}

	var ar ApplyResponse
	status, er := postJSON(t, ts.URL+"/v1/apply", ApplyRequest{Adds: []VersionAddRequest{{
		Pkg: "app", Version: "99.0",
		Deps: []DeclRequest{{Pkg: "mid0", Range: "1:"}},
	}}}, &ar)
	if status != http.StatusOK {
		t.Fatalf("apply: %d %s", status, er.Error)
	}
	if ar.Epoch != 1 {
		t.Fatalf("epoch after apply = %d, want 1", ar.Epoch)
	}

	var after ResolveResponse
	if status, er := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Roots: []string{"app"}}, &after); status != http.StatusOK {
		t.Fatalf("post-apply resolve: %d %s", status, er.Error)
	}
	if after.Picks["app"] != "99.0" {
		t.Fatalf("post-apply pick app=%s, want the freshly added 99.0", after.Picks["app"])
	}
	if after.Epoch != 1 {
		t.Fatalf("post-apply answer epoch = %d, want 1", after.Epoch)
	}
	if before.Picks["app"] == after.Picks["app"] {
		t.Fatal("apply changed nothing observable")
	}
}

// TestServerApplyRejectsBadWire: malformed versions and ranges must be
// caught at the wire boundary — repo.Delta.Add panics on bad literals and
// wire input must never reach it.
func TestServerApplyRejectsBadWire(t *testing.T) {
	_, ts := newDiamondServer(t)
	for _, bad := range []ApplyRequest{
		{},
		{Adds: []VersionAddRequest{{Pkg: "x", Version: "1..0"}}},
		{Adds: []VersionAddRequest{{Pkg: "", Version: "1.0"}}},
		{Adds: []VersionAddRequest{{Pkg: "x", Version: "1.0", Deps: []DeclRequest{{Pkg: "y", Range: "1:2:3"}}}}},
	} {
		var ar ApplyResponse
		status, er := postJSON(t, ts.URL+"/v1/apply", bad, &ar)
		if status != http.StatusBadRequest {
			t.Fatalf("bad apply %+v: status %d (%s), want 400", bad, status, er.Error)
		}
	}
}

// TestServerStatsAndHealthz: the ops surface is wired — stats counts the
// traffic and reports portfolio member health; healthz answers.
func TestServerStatsAndHealthz(t *testing.T) {
	u, root := repo.SynthDiamond(4, 6)
	p, err := resolve.NewPortfolioResolver(u, resolve.DefaultPortfolio()...)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var rr ResolveResponse
	for i := 0; i < 3; i++ {
		if status, er := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Roots: []string{root}}, &rr); status != http.StatusOK {
			t.Fatalf("resolve %d: %d %s", i, status, er.Error)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 3 {
		t.Fatalf("stats requests = %d, want 3", st.Requests)
	}
	if st.Solves < 1 {
		t.Fatal("stats recorded no solves")
	}
	if len(st.Members) == 0 {
		t.Fatal("portfolio backend reported no member health")
	}
	for _, m := range st.Members {
		if m.Quarantined {
			t.Fatalf("member %s unexpectedly quarantined: %s", m.Name, m.Error)
		}
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hz.StatusCode)
	}
}

// TestServerStatsLazyPoolSections: the registry-scale observability is
// wired through /v1/stats — a single-session pool exposes its shard's
// encoder coverage, and a wider pool its per-shard routing counters and
// its shards' health under members.
func TestServerStatsLazyPoolSections(t *testing.T) {
	fetchStats := func(t *testing.T, url string) ServerStats {
		t.Helper()
		resp, err := http.Get(url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st ServerStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	u, root := repo.SynthRegistry(600, 6)
	sess := httptest.NewServer(New(resolve.NewPoolResolver(u, 1, resolve.SessionOptions{}), Options{}))
	defer sess.Close()
	var rr ResolveResponse
	if status, er := postJSON(t, sess.URL+"/v1/resolve", ResolveRequest{Roots: []string{root}}, &rr); status != http.StatusOK {
		t.Fatalf("session resolve: %d %s", status, er.Error)
	}
	st := fetchStats(t, sess.URL)
	if st.Pool == nil || len(st.Pool.Shard) != 1 {
		t.Fatal("single-session pool exposed no single-shard pool section")
	}
	enc := st.Pool.Shard[0].Encoding
	if enc.UniversePackages != 600 {
		t.Fatalf("encoding section %+v, want 600 packages", enc)
	}
	if enc.MaterializedPackages == 0 || enc.MaterializedPackages >= 600 {
		t.Fatalf("materialized %d of 600 — lazy coverage should be partial", enc.MaterializedPackages)
	}

	u2, root2 := repo.SynthRegistry(600, 6)
	pool := httptest.NewServer(New(resolve.NewPoolResolver(u2, 3, resolve.SessionOptions{}), Options{}))
	defer pool.Close()
	for i := 0; i < 2; i++ {
		if status, er := postJSON(t, pool.URL+"/v1/resolve", ResolveRequest{Roots: []string{root2}}, &rr); status != http.StatusOK {
			t.Fatalf("pool resolve %d: %d %s", i, status, er.Error)
		}
	}
	st = fetchStats(t, pool.URL)
	if st.Pool == nil {
		t.Fatal("pool backend exposed no pool section")
	}
	if st.Pool.Shards != 3 || len(st.Pool.Shard) != 3 {
		t.Fatalf("pool section reports %d/%d shards, want 3", st.Pool.Shards, len(st.Pool.Shard))
	}
	if st.Pool.Hits != 1 || st.Answers != 1 {
		t.Fatalf("repeat request recorded %d answer-store hits (%d entries), want 1 (1)", st.Pool.Hits, st.Answers)
	}
	var served uint64
	for _, sh := range st.Pool.Shard {
		served += sh.Served
	}
	if served != 1 {
		t.Fatalf("shards solved %d requests, want 1 (the repeat is a hit)", served)
	}
	if len(st.Members) != 3 || st.Members[0].Name != "pool/0" || st.Members[2].Name != "pool/2" {
		t.Fatalf("pool members section %+v, want shards pool/0..pool/2", st.Members)
	}
}

// TestServerRejectsBadJSON: garbage and unknown fields are 400s.
func TestServerRejectsBadJSON(t *testing.T) {
	_, ts := newDiamondServer(t)
	for _, body := range []string{
		"{not json",
		`{"roots": ["app"], "surprise_field": 1}`,
		`{}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/resolve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestServerDeadlineOnHardInstance: a minutes-hard refutation under a tiny
// deadline comes back 504 promptly — the deadline reaches the solver.
func TestServerDeadlineOnHardInstance(t *testing.T) {
	u, root := repo.SynthPigeonhole(11)
	s := New(resolve.NewPoolResolver(u, 1, resolve.SessionOptions{}), Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var rr ResolveResponse
	status, er := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Roots: []string{root}, TimeoutMS: 150}, &rr)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (kind %s), want 504", status, er.Kind)
	}
	if er.Kind != "timeout" {
		t.Fatalf("kind = %q, want timeout", er.Kind)
	}
	if s.Stats().Timeouts != 1 {
		t.Fatalf("timeout counter = %d, want 1", s.Stats().Timeouts)
	}
}

// TestServerApplyRevivesDeadVersion drives the publish sequence that
// revives a dead version through a default two-shard pool: publish a
// package whose only version needs a range of itself nothing satisfies,
// resolve it (422), publish a buildable version, resolve it again. Every
// call must answer within a client timeout — a revival that loops holds
// the write barrier and stalls every later request — and the last answer
// must match a fresh resolver's.
func TestServerApplyRevivesDeadVersion(t *testing.T) {
	u, _ := repo.SynthDiamond(4, 6)
	ts := httptest.NewServer(New(resolve.NewPoolResolver(u, 2, resolve.SessionOptions{}), Options{}))
	// A handler stuck in a loop would make Close wait forever; leave the
	// server to the process when the test already failed.
	t.Cleanup(func() {
		if !t.Failed() {
			ts.Close()
		}
	})
	client := &http.Client{Timeout: 3 * time.Second}
	post := func(path string, body any, out any) int {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK && out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	apply1 := ApplyRequest{Adds: []VersionAddRequest{{
		Pkg: "selfdep", Version: "1.0",
		Deps: []DeclRequest{{Pkg: "selfdep", Range: "3:"}},
	}}}
	if status := post("/v1/apply", apply1, nil); status != http.StatusOK {
		t.Fatalf("apply selfdep@1.0: %d", status)
	}
	if status := post("/v1/resolve", ResolveRequest{Roots: []string{"selfdep"}}, nil); status != http.StatusUnprocessableEntity {
		t.Fatalf("resolve selfdep before a buildable version: %d, want 422", status)
	}
	apply2 := ApplyRequest{Adds: []VersionAddRequest{{Pkg: "selfdep", Version: "2.0"}}}
	if status := post("/v1/apply", apply2, nil); status != http.StatusOK {
		t.Fatalf("apply selfdep@2.0: %d", status)
	}
	var rr ResolveResponse
	if status := post("/v1/resolve", ResolveRequest{Roots: []string{"selfdep"}}, &rr); status != http.StatusOK {
		t.Fatalf("resolve selfdep after a buildable version: %d", status)
	}
	fresh, err := resolve.NewPoolResolver(u, 1, resolve.SessionOptions{}).Resolve(context.Background(),
		resolve.Request{Roots: []resolve.Root{{Pkg: "selfdep"}}})
	if err != nil {
		t.Fatalf("fresh resolver: %v", err)
	}
	if len(rr.Picks) != len(fresh.Picks) || rr.Picks["selfdep"] != "2.0" {
		t.Fatalf("daemon picks %v, fresh resolver %v", rr.Picks, fresh.Picks)
	}
	for name, v := range fresh.Picks {
		if rr.Picks[name] != v.String() {
			t.Fatalf("daemon picks %v, fresh resolver %v", rr.Picks, fresh.Picks)
		}
	}
}
