package resolve

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync/atomic"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// PoolResolver shards requests across N identically-configured warm
// Sessions over one shared universe. Where a PortfolioResolver spends N
// solvers on every request to win a latency race, a pool spends one solver
// per request and wins throughput: distinct request shapes solve in
// parallel on distinct shards, and each shard accumulates warm state —
// learnt clauses, saved phases, banked bounds, cached answers, and a
// materialized subgraph — for the slice of the request space that hashes
// to it.
//
// Routing is shape-affine with cache-aware stealing. A request's home
// shard is hash(Request.Key()) mod N, so repeats of a shape land on the
// session that already solved it. Before solving, the router probes every
// shard's solution cache (a lock-free peek): any shard that already holds
// the answer serves it regardless of affinity. A cold request whose home
// shard is mid-solve steals an idle shard instead of queuing — trading
// shard warmth for latency — and queues on its home only when every shard
// is busy. The in-flight counters driving those choices are advisory:
// a racing arrival can turn a "steal" into a short queue, which costs
// latency, never correctness.
//
// A pool never gives up capacity it can rebuild: a shard whose Apply
// extension fails is rebuilt within the broadcast as a fresh session over
// the grown universe (cheap: the rebuild encodes nothing until requests
// re-reach their subgraphs), and a shard that panics mid-solve
// fails that request, leaves routing, and is rebuilt at the next Resolve
// entry. Only a crashlooping shard (SetCrashLoopPolicy) stays out until
// Rebuild. Shards are named "pool/<index>" in Result.Config, Health and
// Rebuild.
type PoolResolver struct {
	memberSet

	// Routing counters; see PoolStats.
	//
	// goarxivlint:lockfree
	hits   atomic.Uint64
	steals atomic.Uint64
	waits  atomic.Uint64
}

var _ Resolver = (*PoolResolver)(nil)

// NewPoolResolver builds a pool of n identically-configured sessions over
// the universe; n <= 0 selects GOMAXPROCS capped at 8. Construction is
// O(1) per shard regardless of universe size: sessions materialize what
// requests reach, which is what makes registry-scale pools practical.
func NewPoolResolver(u *repo.Universe, n int, opts SessionOptions) *PoolResolver {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n > 8 {
			n = 8
		}
	}
	p := &PoolResolver{memberSet: memberSet{u: u, backend: "pool", fpSolve: fpPoolSolve, fpRebuild: fpPoolRebuild, healOnApply: true}}
	for i := 0; i < n; i++ {
		p.addMember(fmt.Sprintf("pool/%d", i), strconv.Itoa(i), opts)
	}
	return p
}

// NumShards returns the pool width.
func (p *PoolResolver) NumShards() int { return len(p.members) }

// shapeShard maps a request-shape key onto a home shard (FNV-1a).
func shapeShard(key string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(n))
}

// route picks the shard to serve a request with the given shape key:
// any healthy shard already holding the answer (home first), else the
// idle home, else an idle shard to steal, else the busy home — falling
// back to any healthy shard when the home is broken, and reporting
// ok=false when every shard is broken. Returns whether the choice left
// the home shard (a steal) and whether the target's cache held the answer
// at probe time. Callers hold p.mu shared.
func (p *PoolResolver) route(home int, key string) (shard int, stolen, cached, ok bool) {
	healthy := func(i int) bool { return p.members[i].bench.Load() == nil }
	if healthy(home) && p.members[home].se.HasCached(key) {
		return home, false, true, true
	}
	for i, m := range p.members {
		if i != home && healthy(i) && m.se.HasCached(key) {
			return i, true, true, true
		}
	}
	if healthy(home) && p.members[home].inflight.Load() == 0 {
		return home, false, false, true
	}
	for i, m := range p.members {
		if i != home && healthy(i) && m.inflight.Load() == 0 {
			return i, true, false, true
		}
	}
	if healthy(home) {
		return home, false, false, true
	}
	for i := range p.members {
		if healthy(i) {
			return i, true, false, true
		}
	}
	return 0, false, false, false
}

// Resolve implements Resolver: it routes the request to one shard —
// shape-affine, cache-aware, stealing idle capacity — and solves there.
// Result.Config names the serving shard ("pool/3"). A shard that panics
// mid-solve is contained: the request fails with the *PanicError, and the
// shard leaves routing until the next Resolve entry rebuilds it. With
// every shard benched — only reachable through sticky crashloop benches —
// Resolve fail-stops with ErrNoActiveMembers.
//
// goarxivlint:blocking
func (p *PoolResolver) Resolve(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(p.members) == 0 {
		return nil, fmt.Errorf("resolve: pool has no shards")
	}
	if p.healNeeded.Load() {
		p.heal(healPanicked)
	}
	key := req.Key()
	// Shared-mode barrier against Apply: requests proceed concurrently
	// with each other, never interleaved with a half-broadcast delta.
	p.mu.RLock()
	defer p.mu.RUnlock()
	home := shapeShard(key, len(p.members))
	idx, stolen, cached, ok := p.route(home, key)
	if !ok {
		return nil, ErrNoActiveMembers
	}
	m := p.members[idx]
	if cached {
		p.hits.Add(1)
	} else if m.inflight.Load() > 0 {
		p.waits.Add(1)
	}
	if stolen {
		p.steals.Add(1)
	}
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	res, err := p.solve(ctx, m, req)
	if err != nil {
		return nil, err
	}
	m.served.Add(1)
	if res.Stats.SolutionCacheHit {
		m.cacheHits.Add(1)
	}
	return &Result{Picks: res.Picks, Stats: res.Stats, Config: m.name}, nil
}

// ShardStats reports one shard's serving state: how much it has answered,
// how much of that came from its solution cache, and how much of the
// universe its solver formula actually carries (the encoder-coverage
// counters).
type ShardStats struct {
	// Served counts successfully answered requests; CacheHits the subset
	// served from this shard's solution cache.
	Served    uint64
	CacheHits uint64
	// Inflight is the number of requests solving or queued on this shard
	// at snapshot time.
	Inflight int64
	// Broken marks a shard excluded from routing (contained panic or
	// failed rebuild); CrashLoop marks the sticky subset that exhausted
	// the rebuild budget.
	Broken    bool
	CrashLoop bool
	// Encoding is the shard session's encoder-coverage snapshot.
	Encoding EncodingStats
}

// PoolStats is a point-in-time snapshot of the pool's routing behavior.
type PoolStats struct {
	// Shards is the pool width.
	Shards int
	// Hits counts requests routed to a shard that already held the answer
	// (home or stolen); Steals requests served off their home shard;
	// Waits requests that queued behind an in-flight solve; Rebuilds
	// shards replaced after a failed Apply extension or a contained
	// panic; Panics panics contained at the solve boundary; Broken shards
	// currently out of routing.
	Hits     uint64
	Steals   uint64
	Waits    uint64
	Rebuilds uint64
	Panics   uint64
	Broken   int
	// Shard holds per-shard counters, in shard order.
	Shard []ShardStats
}

// Stats snapshots the pool's routing and per-shard counters. It holds the
// barrier shared only long enough to read atomics — never a session lock —
// so stats endpoints can poll it on every scrape.
func (p *PoolResolver) Stats() PoolStats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := PoolStats{
		Shards:   len(p.members),
		Hits:     p.hits.Load(),
		Steals:   p.steals.Load(),
		Waits:    p.waits.Load(),
		Rebuilds: p.rebuilt.Load(),
		Panics:   p.panics.Load(),
	}
	for _, m := range p.members {
		ss := ShardStats{
			Served:    m.served.Load(),
			CacheHits: m.cacheHits.Load(),
			Inflight:  m.inflight.Load(),
			Encoding:  m.se.EncodingStats(),
		}
		if b := m.bench.Load(); b != nil {
			ss.Broken = true
			ss.CrashLoop = b.sticky
			st.Broken++
		}
		st.Shard = append(st.Shard, ss)
	}
	return st
}

// CacheLen returns the total number of memoized resolutions across the
// pool's shards (observability for serving tiers).
func (p *PoolResolver) CacheLen() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, m := range p.members {
		n += m.se.CacheLen()
	}
	return n
}
