package serve

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/resolve"
)

// BenchmarkDaemonResolveWarm measures the serving pipeline's overhead on
// the dominant traffic shape: a repeated identical request answered from
// the backend's answer store. This is coalescing-key computation + flight
// bookkeeping + result copy on top of the backend's stored answer.
func BenchmarkDaemonResolveWarm(b *testing.B) {
	u, root := repo.SynthDense(64, 8, 3, 42)
	s := New(resolve.NewPoolResolver(u, 1, resolve.SessionOptions{}), Options{})
	req := resolve.Request{Roots: []resolve.Root{{Pkg: root}}, Objective: resolve.NewestVersion()}
	if _, _, err := s.resolve(context.Background(), req, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.resolve(context.Background(), req, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDaemonResolveStorm measures the same warm request under
// concurrency: duplicate arrivals either hit the cache or coalesce onto an
// in-flight leader, so the solver is touched at most once per wave.
func BenchmarkDaemonResolveStorm(b *testing.B) {
	u, root := repo.SynthDense(64, 8, 3, 42)
	s := New(resolve.NewPoolResolver(u, 1, resolve.SessionOptions{}), Options{})
	req := resolve.Request{Roots: []resolve.Root{{Pkg: root}}, Objective: resolve.NewestVersion()}
	if _, _, err := s.resolve(context.Background(), req, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	var failed atomic.Bool
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := s.resolve(context.Background(), req, 10*time.Second); err != nil {
				failed.Store(true)
				return
			}
		}
	})
	if failed.Load() {
		b.Fatal("resolve failed under storm")
	}
}
