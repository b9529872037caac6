package resolve

import (
	"context"
	"fmt"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// The BenchmarkPortfolio* benchmarks extend the repo's perf trajectory
// (BenchmarkConcretize*, BenchmarkSessionWarm*) to the serving surface:
// they measure full requests through the public Resolver backends over
// the same deterministic dense universe, so `make bench` tracks the
// serving path across PRs.

func benchRequests(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Roots: []Root{{Pkg: fmt.Sprintf("dense%d", i%8)}}}
	}
	return reqs
}

// BenchmarkPortfolioDenseCold measures construction plus one request:
// the portfolio's worst case (N skeleton encodes, no warm state).
func BenchmarkPortfolioDenseCold(b *testing.B) {
	u, root := repo.SynthDense(40, 8, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := NewPortfolioResolver(u)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Resolve(context.Background(), Request{Roots: []Root{{Pkg: root}}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortfolioWarmMiss measures steady-state racing over rotating
// roots on warm members: it runs the race behind the answer store
// directly, so the solvers actually run (each member solves from its
// shape's banked bound).
//
// goarxivlint:blocking cancel=none
func BenchmarkPortfolioWarmMiss(b *testing.B) {
	u, _ := repo.SynthDense(40, 8, 3, 1)
	p, err := NewPortfolioResolver(u)
	if err != nil {
		b.Fatal(err)
	}
	reqs := benchRequests(8)
	// Warm the members once.
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
		_, err := p.race(context.Background(), req, req.Key())
		p.mu.RUnlock()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortfolioWarmHit measures the repeat-request fast path: the
// answer store answers without a race.
func BenchmarkPortfolioWarmHit(b *testing.B) {
	u, root := repo.SynthDense(40, 8, 3, 1)
	p, err := NewPortfolioResolver(u)
	if err != nil {
		b.Fatal(err)
	}
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
