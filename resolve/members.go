package resolve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/concretize"
	"github.com/paper-repo-growth/go-arxiv/internal/faultpoint"
)

// Fault-injection sites (see internal/faultpoint for the naming
// convention). The sites label injections with the shard index, so
// schedules can target "shard 1 panics" without a site per shard.
var (
	fpPoolSolve   = faultpoint.New("resolve/pool/solve")
	fpPoolRebuild = faultpoint.New("resolve/pool/rebuild")
)

// ErrNoActiveMembers is returned by Resolve on a pool whose shards are
// all benched — their rebuilds failing, or crashlooping — for a request
// its answer store cannot answer. The next Resolve entry retries every
// rebuild the crashloop breaker allows; once every shard is sticky, only
// Rebuild returns one to service.
var ErrNoActiveMembers = errors.New("resolve: backend has no active members")

// PanicError reports a panic contained at a resolver boundary: instead of
// crashing the process, the panicking shard is benched with this error
// (stack included) and healed through the rebuild paths. It is the
// daemon tier's signal that an answer failed for a recoverable internal
// reason — retry-worthy, unlike the taxonomy's definitive answers
// (unsat, unknown package, budget).
type PanicError struct {
	// Op names the boundary that contained the panic: the shard for a
	// solve or extension panic ("pool/3"), "pool/rebuild/<index>" for a
	// rebuild ("pool/rebuild/3"), and "serve/backend" at the serving tier.
	Op string
	// Value is the panic value, stringified at capture.
	Value string
	// Stack is the panicking goroutine's stack at capture.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("resolve: panic contained at %s: %s", e.Op, e.Value)
}

// MemberHealth reports one pool shard's serving state ("pool/3"). A
// quarantined shard is out of service: its extension failed during an
// Apply broadcast, or a contained panic benched it, and its rebuild has
// not yet succeeded. CrashLoop marks a sticky bench — the shard exhausted
// its rebuild budget inside the crashloop window and stays out until an
// explicit Rebuild.
type MemberHealth struct {
	Name        string
	Quarantined bool
	CrashLoop   bool
	Epoch       Epoch // universe epoch the shard's encoding reflects
	Err         error // the failure that benched it (nil when healthy)

	// The shard's routing counters: Served counts requests it solved,
	// Inflight those solving or queued on it at snapshot time.
	Served   uint64
	Inflight int64
	// Encoding is the shard session's encoder-coverage snapshot.
	Encoding EncodingStats
}

// Snapshot is a point-in-time view of a pool: its shards, its answer
// store, and its supervision and routing counters. It is read from
// atomics and the store — never a session lock — so stats endpoints can
// poll it on every scrape.
type Snapshot struct {
	// Members holds each shard's state, in shard order; Broken counts
	// the benched ones.
	Members []MemberHealth
	Broken  int
	// Answers is the number of fresh entries in the answer store; Hits
	// counts requests it answered without touching a shard.
	Answers int
	Hits    uint64
	// Steals and Waits are the routing counters: requests served off
	// their home shard, and requests that queued behind an in-flight
	// solve.
	Steals uint64
	Waits  uint64
	// Rebuilds counts shards returned to service by a rebuild; Panics
	// the panics contained at the solve boundary.
	Rebuilds uint64
	Panics   uint64
}

// benchState is why a shard is out of service. nil (no state) means
// healthy and serving; the pointer is stored atomically so the
// panic-containment path — which runs under the shared side of the
// Apply barrier — can bench without the write lock.
type benchState struct {
	err    error // the benching failure
	sticky bool  // crashlooping: only an explicit Rebuild tries it again
}

// Crashloop policy defaults: more than defaultCrashLoopRebuilds heal
// attempts inside defaultCrashLoopWindow bench a shard sticky. See
// SetCrashLoopPolicy.
const (
	defaultCrashLoopRebuilds = 3
	defaultCrashLoopWindow   = 30 * time.Second
)

// healScope selects the benched shards one pass of the heal loop tries.
type healScope int

const (
	healAuto healScope = iota // Resolve entry and the broadcast: every bench but sticky
	healAll                   // Rebuild: every bench, sticky windows reset
)

// member is one supervised session: a pool shard.
type member struct {
	name  string              // Health, Rebuild and attribution name: "pool/3"
	label string              // faultpoint label and PanicError.Op instance: "3"
	se    *concretize.Session // replaced by a rebuild, under mu held exclusively

	// bench is nil while serving, else why the member is out. Stored
	// atomically because solve-panic containment runs under the shared
	// side of the barrier (a solving goroutine cannot take the write lock
	// its own request holds shared); every other writer holds mu
	// exclusively.
	//
	// goarxivlint:lockfree
	bench atomic.Pointer[benchState]

	// rebuilds timestamps recent heal attempts — the crashloop sliding
	// window. Guarded by mu held exclusively.
	rebuilds []time.Time

	// The routing counters: inflight counts requests solving or queued on
	// the shard, served the requests it solved.
	//
	// goarxivlint:lockfree
	inflight atomic.Int64
	served   atomic.Uint64
}

// attribute shapes a shard's answer, solved or stored, for the caller:
// Result.Config names the shard, and a definitive unsat proof is wrapped
// in a *MemberError naming it. Other errors pass through.
func (p *PoolResolver) attribute(by string, res *concretize.Resolution, err error) (*Result, error) {
	switch {
	case errors.Is(err, ErrUnsatisfiable):
		return nil, &MemberError{Member: by, Epoch: p.Epoch(), Err: err}
	case err != nil:
		return nil, err
	}
	return &Result{Picks: res.Picks, Stats: res.Stats, Config: by}, nil
}

// LastGood returns the last optimal answer the answer store holds for a
// request-shape key (Request.Key), fresh or stale, with Result.Config
// naming the shard that solved it and Stats.Epoch the epoch it was solved
// at; fresh reports whether it is still the answer at the current epoch.
// It never returns an unsat answer. It reads under the shared barrier, as
// Resolve does, so fresh never straddles an Apply, and a fresh read counts
// as a store hit (Snapshot.Hits). The serving tier reads it twice: a fresh
// answer is served at once, before coalescing and admission, and when the
// pool cannot answer, degraded mode serves what it returns.
func (p *PoolResolver) LastGood(key string) (res *Result, fresh, ok bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	r, by, fresh, ok := p.answers.LastGood(key)
	if !ok {
		return nil, false, false
	}
	if fresh {
		p.hits.Add(1)
	}
	return &Result{Picks: r.Picks, Stats: r.Stats, Config: by}, fresh, true
}

// CacheLen returns the number of fresh entries in the answer store.
func (p *PoolResolver) CacheLen() int { return p.answers.Len() }

// SetCrashLoopPolicy tunes the crashloop detector: a shard healed more
// than maxRebuilds times inside window is sticky-benched instead of
// rebuilt again, a loss of capacity. Zero (or negative) values select
// the defaults (3 rebuilds in 30s). Takes the write barrier; call before
// or between serving, not per request.
//
// goarxivlint:blocking cancel=none
func (p *PoolResolver) SetCrashLoopPolicy(maxRebuilds int, window time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashMaxRebuilds = maxRebuilds
	p.crashWindow = window
}

// Apply grows the shared universe by one append-only delta and broadcasts
// it to every serving shard under the write barrier, so no request ever
// observes a half-applied pool. The delta is applied to the universe
// exactly once: a validation failure mutates nothing, touches no shard,
// and is returned with the unchanged epoch. Otherwise Apply returns nil
// and the universe's new epoch.
//
// A shard whose extension fails — or panics, which the broadcast
// contains — is benched and, with every other benched shard the
// crashloop breaker allows, rebuilt before Apply returns: a fresh session
// over the grown universe, which loses the shard's warmth but not the
// pool's capacity. A shard whose rebuild fails stays benched until a
// later Resolve entry rebuilds it.
//
// goarxivlint:blocking cancel=none
func (p *PoolResolver) Apply(d *Delta) (Epoch, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	epoch, err := p.u.Apply(d)
	if err != nil {
		return p.u.Epoch(), err
	}
	p.epochA.Store(uint64(epoch))
	p.answers.Invalidate(d)
	for _, m := range p.members {
		if m.bench.Load() != nil {
			// Benched already: a heal re-encodes from the grown universe,
			// so the delta need not reach a session it will replace.
			continue
		}
		err := p.contain(m, false, func() error {
			_, err := m.se.Extend(d)
			return err
		})
		if err != nil {
			p.benchMember(m, err)
		}
	}
	p.healLocked(healAuto)
	return epoch, nil
}

// solve runs one request on one shard with panic containment: a
// panicking shard is benched (atomically: callers hold the barrier
// shared) and the request gets the contained *PanicError instead of
// crashing the process. The rebuild happens at the next Resolve entry,
// which can take the write barrier.
func (p *PoolResolver) solve(ctx context.Context, m *member, req Request) (*concretize.Resolution, error) {
	var res *concretize.Resolution
	err := p.contain(m, false, func() (err error) {
		if err = fpPoolSolve.Inject(m.label); err == nil {
			res, err = m.se.Resolve(ctx, req.Roots, concretize.Options{MaxConflicts: req.MaxConflicts, Objective: req.Objective})
		}
		return err
	})
	if _, panicked := err.(*PanicError); panicked {
		p.panics.Add(1)
		p.benchMember(m, err)
	}
	return res, err
}

// contain runs f, converting a panic into an unwrapped *PanicError that
// names the boundary: the shard ("pool/3"), or "pool/rebuild/3" for a
// rebuild. A panicking session is in an unknown state, so callers
// bench the shard exactly as for an error.
func (p *PoolResolver) contain(m *member, rebuild bool, f func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			op := m.name
			if rebuild {
				op = "pool/rebuild/" + m.label
			}
			err = &PanicError{Op: op, Value: fmt.Sprint(rec), Stack: debug.Stack()}
		}
	}()
	return f()
}

// benchMember takes a shard out of service for err and flags the pool
// for healing at the next Resolve entry.
func (p *PoolResolver) benchMember(m *member, err error) {
	m.bench.Store(&benchState{err: err})
	p.healNeeded.Store(true)
}

// Rebuild re-admits every benched shard by replacing its session with a
// fresh one over the current universe, and returns the names of the
// shards it healed (nil when none was benched).
// A benched shard's encoding is behind the shared universe (or corrupted
// by a contained panic) and cannot be extended in place; re-encoding is
// the only way back, and it restarts the shard cold: learnt clauses and
// memoized closures are gone. The pool's answer store is not a shard's, so
// its answers survive. Rebuild is the operator override: it resets a
// crashlooping shard's sticky bench and window (no automatic path does),
// and each attempt is still bounded by the crashloop policy, so even an
// operator loop converges to sticky. A shard whose rebuild fails stays
// benched but heal-eligible: the next Resolve entry tries it again.
//
// goarxivlint:blocking cancel=none
func (p *PoolResolver) Rebuild() []string { return p.heal(healAll) }

// heal runs the heal loop under the write barrier, so it never races a
// broadcast and no request observes a half-rebuilt pool.
//
// goarxivlint:blocking cancel=none
func (p *PoolResolver) heal(scope healScope) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healLocked(scope)
}

// healLocked is the heal loop: one crashloop-bounded rebuild attempt for
// every benched shard in scope, in shard order, returning the names of
// those it returned to service. It recomputes healNeeded from the shards
// it leaves benched, so any shard left benched but not sticky is retried
// at the next Resolve entry. Callers hold mu exclusively, which excludes
// the shared-side panic benches, so the recomputation cannot lose one.
func (p *PoolResolver) healLocked(scope healScope) []string {
	var healed []string
	pending := false
	for _, m := range p.members {
		b := m.bench.Load()
		if b == nil {
			continue
		}
		if b.sticky {
			if scope != healAll {
				continue
			}
			// The operator override resets the window and tries once more.
			m.rebuilds = m.rebuilds[:0]
		}
		if p.healMemberLocked(m, b) {
			healed = append(healed, m.name)
		} else if !m.bench.Load().sticky {
			pending = true
		}
	}
	p.healNeeded.Store(pending)
	return healed
}

// healMemberLocked attempts one contained rebuild of a benched shard,
// counting the attempt against the crashloop window: with the policy's
// budget of attempts already inside the window, the shard goes sticky
// instead — it keeps its last failure in Health() (CrashLoop set) and
// stops consuming rebuilds until an explicit Rebuild. A rebuild that
// fails or panics leaves it benched, not sticky. Returns whether the
// shard returned to service. Callers hold mu exclusively.
func (p *PoolResolver) healMemberLocked(m *member, b *benchState) bool {
	maxRebuilds, window := p.crashMaxRebuilds, p.crashWindow
	if maxRebuilds <= 0 {
		maxRebuilds = defaultCrashLoopRebuilds
	}
	if window <= 0 {
		window = defaultCrashLoopWindow
	}
	now := time.Now()
	recent := m.rebuilds[:0]
	for _, t := range m.rebuilds {
		if now.Sub(t) < window {
			recent = append(recent, t)
		}
	}
	m.rebuilds = recent
	if len(recent) >= maxRebuilds {
		m.bench.Store(&benchState{
			err:    fmt.Errorf("resolve: member %s crashlooping (%d rebuilds in %v): %w", m.name, len(recent), window, b.err),
			sticky: true,
		})
		return false
	}
	m.rebuilds = append(m.rebuilds, now)
	err := p.contain(m, true, func() error {
		if err := fpPoolRebuild.Inject(m.label); err != nil {
			return err
		}
		m.se = concretize.NewSession(p.u)
		return nil
	})
	if err != nil {
		m.bench.Store(&benchState{err: err})
		return false
	}
	m.bench.Store(nil)
	p.rebuilt.Add(1)
	return true
}

// Health reports each shard's serving state, in shard order: its name,
// the epoch its encoding reflects, its routing counters and encoder
// coverage, and — for benched shards — the failure that benched it, with
// CrashLoop marking a sticky bench.
func (p *PoolResolver) Health() []MemberHealth {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]MemberHealth, len(p.members))
	for i, m := range p.members {
		out[i] = MemberHealth{
			Name:     m.name,
			Epoch:    m.se.Epoch(),
			Served:   m.served.Load(),
			Inflight: m.inflight.Load(),
			Encoding: m.se.EncodingStats(),
		}
		if b := m.bench.Load(); b != nil {
			out[i].Quarantined = true
			out[i].CrashLoop = b.sticky
			out[i].Err = b.err
		}
	}
	return out
}

// Snapshot reports the pool's state; see Snapshot.
func (p *PoolResolver) Snapshot() Snapshot {
	snap := Snapshot{
		Members:  p.Health(),
		Answers:  p.answers.Len(),
		Hits:     p.hits.Load(),
		Steals:   p.steals.Load(),
		Waits:    p.waits.Load(),
		Rebuilds: p.rebuilt.Load(),
		Panics:   p.panics.Load(),
	}
	for _, m := range snap.Members {
		if m.Quarantined {
			snap.Broken++
		}
	}
	return snap
}

// Epoch returns the epoch of the shared universe, which every serving
// shard serves at (the write barrier keeps them in lockstep). It reads
// the atomic mirror, never mu: the serving tier calls Epoch() per request
// to key coalescing, and must not queue behind an Apply broadcast.
//
// goarxivlint:lockfree
func (p *PoolResolver) Epoch() Epoch {
	return Epoch(p.epochA.Load())
}
