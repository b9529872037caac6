package concretize

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// The BenchmarkRegistry* benchmarks are the registry-scale perf trajectory:
// a session over a sparse SynthRegistry universe whose single-root
// reachable closure is a tiny, scale-free fraction of the catalog. Beyond
// ns/op they report two custom metrics the bench scripts track across PRs:
//
//   - solver_vars: variables in the measurement session's solver formula —
//     the encoder's coverage (encoding the whole universe would allocate
//     pkgs*(versions+1) before the first request).
//   - heap_bytes: heap growth attributable to one warmed session, the
//     memory the encoding actually costs.
//
// Scale is 2500 packages x 16 versions: large enough that the coverage
// sits an order of magnitude under the whole-universe floor, small enough
// that CI can afford the cold path per iteration.

const benchRegPkgs, benchRegVers = 2500, 16

// reportRegistryMetrics builds one fresh session off the clock, warms
// it with the root request, and reports its encoder coverage and heap
// footprint.
func reportRegistryMetrics(b *testing.B, u *repo.Universe, root string) {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	before := heapAlloc()
	sess := NewSession(u, SessionOptions{})
	if _, err := sess.Resolve(context.Background(), []Root{{Pkg: root}}, Options{}); err != nil {
		b.Fatalf("metrics Resolve: %v", err)
	}
	after := heapAlloc()
	st := sess.EncodingStats()
	b.ReportMetric(float64(st.SolverVars), "solver_vars")
	if after > before {
		b.ReportMetric(float64(after-before), "heap_bytes")
	}
}

// BenchmarkRegistryCold measures first contact: a fresh session
// materializes the root's reachable subgraph and solves it. This is the
// registry-scale cold-start number — construction is O(1), so the whole
// cost sits in one materialization plus one solve.
func BenchmarkRegistryCold(b *testing.B) {
	u, root := repo.SynthRegistry(benchRegPkgs, benchRegVers)
	roots := []Root{{Pkg: root}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := NewSession(u, SessionOptions{})
		res, err := sess.Resolve(context.Background(), roots, Options{})
		if err != nil {
			b.Fatalf("Resolve: %v", err)
		}
		if len(res.Picks) == 0 {
			b.Fatal("empty resolution")
		}
	}
	reportRegistryMetrics(b, u, root)
}

// BenchmarkRegistryWarm measures the steady serving path: a repeat request
// against an already-materialized session behind an answer store — a
// store lookup plus a picks-map copy, independent of registry size.
func BenchmarkRegistryWarm(b *testing.B) {
	u, root := repo.SynthRegistry(benchRegPkgs, benchRegVers)
	roots := []Root{{Pkg: root}}
	sess := NewSession(u, SessionOptions{})
	store := NewAnswers(AnswersPerSession)
	if _, err := storeResolve(store, sess, roots, Options{}); err != nil {
		b.Fatalf("prime Resolve: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := storeResolve(store, sess, roots, Options{})
		if err != nil {
			b.Fatalf("Resolve: %v", err)
		}
		if len(res.Picks) == 0 {
			b.Fatal("empty resolution")
		}
	}
	reportRegistryMetrics(b, u, root)
}

// registryChurnStream is the number of publishes one BenchmarkRegistryChurn
// iteration lands: every iteration replays the same stream on a fresh
// universe and session, so ns/op and allocs/op are per stream whatever b.N
// the framework picks.
const registryChurnStream = 32

// BenchmarkRegistryChurn measures a session absorbing registry
// publishes while serving: each iteration builds a fresh universe and warms
// a session on the root off the clock, then lands a fixed stream of
// append-only deltas on rotating packages, re-resolving the root after
// each through an answer store. The rotation stride keeps nearly every
// delta outside the root's materialized subgraph, so the dominant path is
// delta parking — dirty-mark the unreached name, keep the stored answer —
// with the occasional in-closure delta forcing a re-solve.
func BenchmarkRegistryChurn(b *testing.B) {
	var u *repo.Universe
	var root string
	b.ReportAllocs()
	// A b.N loop, not b.Loop: Go 1.24's b.Loop sizes its next round from
	// the time since the last StartTimer, so a body that stops the timer
	// never reaches a time-based -benchtime.
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		u, root = repo.SynthRegistry(benchRegPkgs, benchRegVers)
		roots := []Root{{Pkg: root}}
		sess := NewSession(u, SessionOptions{})
		store := NewAnswers(AnswersPerSession)
		if _, err := storeResolve(store, sess, roots, Options{}); err != nil {
			b.Fatalf("prime Resolve: %v", err)
		}
		b.StartTimer()
		for i := 0; i < registryChurnStream; i++ {
			d := repo.NewDelta()
			d.Add(fmt.Sprintf("reg%d", (1000+i*37)%benchRegPkgs), fmt.Sprintf("%d.0", benchRegVers+1+i))
			storeExtend(b, store, sess, d)
			res, err := storeResolve(store, sess, roots, Options{})
			if err != nil {
				b.Fatalf("Resolve: %v", err)
			}
			if len(res.Picks) == 0 {
				b.Fatal("empty resolution")
			}
		}
	}
	reportRegistryMetrics(b, u, root)
}

// The warm first-visit scenario: a session over SynthRegistry(600, 8) — the
// daemon benchmark's scale — prewarmed with bare roots from the short last block, then asked for roots
// it has never seen. Saved phases start each first visit from the previous
// request's model, so this is where objective descent, not the first
// solve, sets the cost of a miss.
const (
	firstVisitPkgs, firstVisitVers = 600, 8
	// SynthRegistry's layout at that size: blocks of 48 packages, the
	// first 11 of them full, then 32 dependency-free hubs from reg568.
	firstVisitBlock, firstVisitFullBlocks, firstVisitHubStart = 48, 11, 568
)

// newFirstVisitSession builds the session and prewarms it with the
// bare roots the daemon benchmark's cold-fanout workload prewarms: every
// third position of the last, short block.
func newFirstVisitSession(tb testing.TB, u *repo.Universe) *Session {
	tb.Helper()
	sess := NewSession(u, SessionOptions{})
	for pkg := firstVisitFullBlocks * firstVisitBlock; pkg < firstVisitHubStart; pkg += 3 {
		if _, err := sess.Resolve(context.Background(), []Root{{Pkg: fmt.Sprintf("reg%d", pkg)}}, Options{}); err != nil {
			tb.Fatalf("prewarm reg%d: %v", pkg, err)
		}
	}
	return sess
}

// firstVisitRoots returns n fixed first-visit requests from the full
// blocks: distinct packages, each bare or capped at a drawn version. Tight
// packages (every fourth, whose own dependencies are capped) stay bare;
// TestSeedTightCapFirstVisits draws their capped first visits. A longer
// list extends a shorter one.
func firstVisitRoots(n int) [][]Root {
	rng := rand.New(rand.NewSource(1))
	reqs := make([][]Root, n)
	for k, pkg := range rng.Perm(firstVisitFullBlocks * firstVisitBlock)[:n] {
		spec := fmt.Sprintf("reg%d", pkg)
		if capAt := rng.Intn(firstVisitVers); pkg%4 != 0 && capAt > 0 {
			spec += fmt.Sprintf("@:%d", capAt)
		}
		reqs[k] = []Root{MustParseRoot(spec)}
	}
	return reqs
}

// BenchmarkRegistryFirstVisit measures misses on a warm session: each
// iteration builds a fresh universe and prewarms a fresh session off the
// clock, then resolves a fixed list of 24 first-visit roots, so every
// iteration does the same work whatever b.N is. solve_calls/miss is the
// descent rounds a miss takes.
func BenchmarkRegistryFirstVisit(b *testing.B) {
	reqs := firstVisitRoots(24)
	calls := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ { // not b.Loop: see BenchmarkRegistryChurn
		b.StopTimer()
		u, _ := repo.SynthRegistry(firstVisitPkgs, firstVisitVers)
		sess := newFirstVisitSession(b, u)
		b.StartTimer()
		for _, roots := range reqs {
			res, err := sess.Resolve(context.Background(), roots, Options{})
			if err != nil {
				b.Fatalf("Resolve %s: %v", rootsString(roots), err)
			}
			calls += res.Stats.SolveCalls
		}
	}
	b.ReportMetric(float64(calls)/float64(b.N*len(reqs)), "solve_calls/miss")
}
