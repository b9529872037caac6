package resolve

import (
	"context"
	"fmt"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// The BenchmarkPool* benchmarks extend the repo's perf trajectory
// (BenchmarkConcretize*, BenchmarkSessionWarm*) to the serving surface:
// they measure full requests through a single-session pool over the same
// deterministic dense universe, so `make bench` tracks the serving path
// across PRs.

func benchRequests(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Roots: []Root{{Pkg: fmt.Sprintf("dense%d", i%8)}}}
	}
	return reqs
}

// BenchmarkPoolDenseCold measures construction plus one request: the
// pool's worst case (a first visit materializes its closure, no warm
// state).
func BenchmarkPoolDenseCold(b *testing.B) {
	u, root := repo.SynthDense(40, 8, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewPoolResolver(u, 1, SessionOptions{})
		if _, err := p.Resolve(context.Background(), Request{Roots: []Root{{Pkg: root}}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolWarmMiss measures steady-state solving over rotating
// roots on a warm shard: it runs the miss path behind the answer store
// directly, so the solver actually runs (from each shape's banked bound).
//
// goarxivlint:blocking cancel=none
func BenchmarkPoolWarmMiss(b *testing.B) {
	u, _ := repo.SynthDense(40, 8, 3, 1)
	p := NewPoolResolver(u, 1, SessionOptions{})
	reqs := benchRequests(8)
	// Warm the shard once.
	for _, r := range reqs {
		if _, err := p.Resolve(context.Background(), r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reqs[i%len(reqs)]
		p.mu.RLock()
		_, err := p.routeAndSolve(context.Background(), req, req.Key())
		p.mu.RUnlock()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolWarmHit measures the repeat-request fast path: the answer
// store answers without reaching a shard.
func BenchmarkPoolWarmHit(b *testing.B) {
	u, root := repo.SynthDense(40, 8, 3, 1)
	p := NewPoolResolver(u, 1, SessionOptions{})
	req := Request{Roots: []Root{{Pkg: root}}}
	if _, err := p.Resolve(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Resolve(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}
