package resolve

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/concretize"
	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// PoolResolver shards requests across N identically-configured warm
// Sessions over one shared universe. It spends one solver per request:
// distinct request shapes solve in parallel on distinct shards, and each
// shard accumulates warm state — learnt clauses, saved phases, memoized
// closures, and a materialized subgraph — for the slice of the request
// space that hashes to it. A pool of one shard is the single-session backend.
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
// The pool supervises its shards by one contract:
//
//   - Answers. Every request is looked up in the store before any shard
//     is picked, and every definitive answer a shard produces is filed
//     there with the shard's name. Apply invalidates the store once,
//     right after the universe grows, so the sweep happens even when every
//     shard's extension fails, and stored answers survive heals.
//   - Growth. Apply applies a delta to the universe once, then extends
//     every serving shard's encoding in place under the write barrier mu;
//     requests hold mu shared, so none observes a half-applied pool. Epoch
//     reads a lock-free mirror, so per-request coalescing keys never queue
//     behind a broadcast.
//   - Benching. A shard whose extension fails is benched rather than left
//     serving at a stale epoch, and the broadcast rebuilds it at once: a
//     fresh session over the grown universe encodes nothing, so the
//     rebuild costs the shard its warmth, not the pool its capacity.
//   - Containment. A panic at any boundary — solve, extension, rebuild — is
//     contained as a *PanicError: the shard is benched with its stack, the
//     request that hit a solve panic fails with it, and the shard leaves
//     routing until the next Resolve entry rebuilds it.
//   - Healing. Every bench that is not sticky flags the pool, so the next
//     Resolve entry retries the rebuild of any shard still benched —
//     after a solve panic, or a rebuild that failed.
//   - Crashloop. Every heal attempt counts against the shard's sliding
//     window (SetCrashLoopPolicy). Over budget, the shard goes sticky: no
//     automatic path — Resolve entry or broadcast — tries it again; only
//     Rebuild, the operator override, resets the window.
//
// Shards are named "pool/<index>" in Result.Config, Health and Rebuild.
type PoolResolver struct {
	u *repo.Universe

	// mu quiesces the pool around Apply and heals: Resolve holds it shared
	// (each shard's session lock serializes actual solving); Apply and
	// the heals hold it exclusively. The lock order is mu, then the
	// answer store's own lock, which is never held across a session call.
	//
	// goarxivlint:lock
	mu      sync.RWMutex
	members []*member

	// answers is the pool's one answer memo, for its whole lifetime,
	// sized at concretize.AnswersPerSession per shard.
	answers *concretize.Answers

	// epochA mirrors the shared universe's epoch for lock-free reads.
	// Epoch() must not touch mu: Apply holds it exclusively for the whole
	// broadcast, and the serving tier computes coalescing keys from
	// Epoch() on every request — reading it through the barrier would
	// queue every arrival behind an in-flight delta, the same
	// serialization bug Session.Epoch() once had.
	//
	// goarxivlint:lockfree
	epochA atomic.Uint64

	// healNeeded flags that some shard is benched and not sticky; Resolve
	// checks it lock-free on entry and takes the write barrier only when
	// there is healing to do.
	//
	// goarxivlint:lockfree
	healNeeded atomic.Bool

	// rebuilt counts shards returned to service by a rebuild; panics
	// counts panics contained at the solve boundary; hits, steals and
	// waits are the Snapshot counters of the same names.
	//
	// goarxivlint:lockfree
	rebuilt atomic.Uint64
	panics  atomic.Uint64
	hits    atomic.Uint64
	steals  atomic.Uint64
	waits   atomic.Uint64

	// Crashloop policy; zero values select the package defaults. Written
	// only through SetCrashLoopPolicy (write barrier), read under mu.
	crashMaxRebuilds int
	crashWindow      time.Duration
}

var _ Resolver = (*PoolResolver)(nil)

// NewPoolResolver builds a pool of n identically-configured sessions over
// the universe; n <= 0 selects GOMAXPROCS capped at 8. Construction is
// O(1) per shard regardless of universe size: sessions materialize what
// requests reach, which is what makes registry-scale pools practical.
// The SessionOptions argument carries no option.
func NewPoolResolver(u *repo.Universe, n int, _ SessionOptions) *PoolResolver {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n > 8 {
			n = 8
		}
	}
	p := &PoolResolver{u: u, answers: concretize.NewAnswers(n * concretize.AnswersPerSession)}
	for i := 0; i < n; i++ {
		p.members = append(p.members, &member{name: fmt.Sprintf("pool/%d", i), label: strconv.Itoa(i), se: concretize.NewSession(u)})
	}
	p.epochA.Store(uint64(u.Epoch()))
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
// capacity — and solved there, and a definitive answer is filed in the
// store. Result.Config names the shard that solved the answer ("pool/3"),
// stored or not, and a proven unsatisfiability comes back as a
// *MemberError naming it. A shard that panics mid-solve is contained: the
// request fails with the *PanicError, and the shard leaves routing until
// the next Resolve entry rebuilds it. With every shard benched — by
// failed rebuilds, or crashlooping — a request the store cannot answer
// fails with ErrNoActiveMembers.
//
// goarxivlint:blocking
func (p *PoolResolver) Resolve(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.healNeeded.Load() {
		p.heal(healAuto)
	}
	// Shared-mode barrier against Apply: requests proceed concurrently with
	// each other, never interleaved with a half-broadcast delta.
	p.mu.RLock()
	defer p.mu.RUnlock()
	key := req.Key()
	if res, err, by, ok := p.answers.Get(key, req.Roots); ok {
		p.hits.Add(1)
		return p.attribute(by, res, err)
	}
	return p.routeAndSolve(ctx, req, key)
}

// routeAndSolve is the miss path behind the answer store: it routes the
// request to one shard, solves it there, and files a definitive answer in
// the store (which ignores the rest). Callers hold p.mu shared.
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
	p.answers.Put(key, m.name, res, err)
	return p.attribute(m.name, res, err)
}
