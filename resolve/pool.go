package resolve

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"

	"github.com/paper-repo-growth/go-arxiv/internal/concretize"
	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// PoolResolver shards requests across N identically-configured warm
// Sessions over one shared universe. Where a PortfolioResolver spends N
// solvers on every request to win a latency race, a pool spends one solver
// per request and wins throughput: distinct request shapes solve in
// parallel on distinct shards, and each shard accumulates warm state —
// learnt clauses, saved phases, banked bounds, and a materialized
// subgraph — for the slice of the request space that hashes to it. A pool
// of one shard is the single-session backend.
//
// A request the pool's answer store already answers is served from it,
// whichever shard solved it, without routing. Otherwise routing is
// shape-affine with work stealing. A request's home shard is
// hash(Request.Key()) mod N, so repeats of a shape land on the session
// already warm for it. A request whose home shard is mid-solve steals an
// idle shard instead of queuing — trading shard warmth for latency — and
// queues on its home only when every shard is busy. The in-flight counters
// driving those choices are advisory: a racing arrival can turn a "steal"
// into a short queue, which costs latency, never correctness.
//
// A pool never gives up capacity it can rebuild: a shard whose Apply
// extension fails is rebuilt within the broadcast as a fresh session over
// the grown universe (cheap: the rebuild encodes nothing until requests
// re-reach their subgraphs), and a shard that panics mid-solve fails that
// request, leaves routing, and is rebuilt at the next Resolve entry, as
// is a shard whose rebuild failed. Only a crashlooping shard
// (SetCrashLoopPolicy) stays out until Rebuild. Shards are named
// "pool/<index>" in Result.Config, Health and Rebuild.
type PoolResolver struct {
	memberSet
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
	p := &PoolResolver{memberSet: memberSet{
		u: u, backend: "pool", fpSolve: fpPoolSolve, fpRebuild: fpPoolRebuild,
		answers: concretize.NewAnswers(n * concretize.AnswersPerSession),
	}}
	for i := 0; i < n; i++ {
		p.addMember(fmt.Sprintf("pool/%d", i), strconv.Itoa(i), opts)
	}
	return p
}

// shapeShard maps a request-shape key onto a home shard (FNV-1a).
func shapeShard(key string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(n))
}

// route picks the shard to solve a request with the given home shard: the
// idle home, else an idle shard to steal, else the busy home — falling
// back to any healthy shard when the home is broken, and reporting
// ok=false when every shard is broken. Returns whether the choice left
// the home shard (a steal). Callers hold p.mu shared.
func (p *PoolResolver) route(home int) (shard int, stolen, ok bool) {
	healthy := func(i int) bool { return p.members[i].bench.Load() == nil }
	if healthy(home) && p.members[home].inflight.Load() == 0 {
		return home, false, true
	}
	for i, m := range p.members {
		if i != home && healthy(i) && m.inflight.Load() == 0 {
			return i, true, true
		}
	}
	if healthy(home) {
		return home, false, true
	}
	for i := range p.members {
		if healthy(i) {
			return i, true, true
		}
	}
	return 0, false, false
}

// Resolve implements Resolver: a request the answer store holds is served
// from it; any other is routed to one shard — shape-affine, stealing idle
// capacity — and solved there. Result.Config names the shard that solved
// the answer ("pool/3"), stored or not, and a proven unsatisfiability
// comes back as a *MemberError naming it. A shard that panics mid-solve
// is contained: the request fails with the *PanicError, and the shard
// leaves routing until the next Resolve entry rebuilds it. With every
// shard benched — by failed rebuilds, or crashlooping — a request the
// store cannot answer fails with ErrNoActiveMembers.
//
// goarxivlint:blocking
func (p *PoolResolver) Resolve(ctx context.Context, req Request) (*Result, error) {
	return p.resolve(ctx, req, p.routeAndSolve)
}

// routeAndSolve is the pool's policy behind the answer store. Callers
// hold p.mu shared.
//
// goarxivlint:blocking
func (p *PoolResolver) routeAndSolve(ctx context.Context, req Request, key string) (*Result, error) {
	idx, stolen, ok := p.route(shapeShard(key, len(p.members)))
	if !ok {
		return nil, ErrNoActiveMembers
	}
	m := p.members[idx]
	if m.inflight.Load() > 0 {
		p.waits.Add(1)
	}
	if stolen {
		p.steals.Add(1)
	}
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	res, err := p.solve(ctx, m, req)
	if err == nil {
		m.served.Add(1)
	}
	return p.settle(key, m.name, res, err)
}
