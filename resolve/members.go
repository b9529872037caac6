package resolve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/concretize"
	"github.com/paper-repo-growth/go-arxiv/internal/faultpoint"
	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// Fault-injection sites (see internal/faultpoint for the naming
// convention). The sites label injections with the member's instance —
// the portfolio member name, the pool shard index — so schedules can
// target "member 'steady' panics" without a site per member.
var (
	fpPortfolioSolve   = faultpoint.New("resolve/portfolio/solve")
	fpPortfolioRebuild = faultpoint.New("resolve/portfolio/rebuild")
	fpPoolSolve        = faultpoint.New("resolve/pool/solve")
	fpPoolRebuild      = faultpoint.New("resolve/pool/rebuild")
)

// ErrNoActiveMembers is returned by Resolve on a backend whose members are
// all benched — their rebuilds failing, or crashlooping — for a request
// its answer store cannot answer. The next Resolve entry retries every
// rebuild the crashloop breaker allows; once every member is sticky, only
// Rebuild returns one to service.
var ErrNoActiveMembers = errors.New("resolve: backend has no active members")

// PanicError reports a panic contained at a resolver boundary: instead of
// crashing the process, the panicking member is benched with this error
// (stack included) and healed through the rebuild paths. It is the
// daemon tier's signal that an answer failed for a recoverable internal
// reason — retry-worthy, unlike the taxonomy's definitive answers
// (unsat, unknown package, budget).
type PanicError struct {
	// Op names the boundary that contained the panic:
	// "<backend>/<instance>" for a solve or extension panic
	// ("portfolio/steady", "pool/3"), "<backend>/rebuild/<instance>" for a
	// rebuild ("portfolio/rebuild/steady", "pool/rebuild/3"), and
	// "serve/backend" at the serving tier.
	Op string
	// Value is the panic value, stringified at capture.
	Value string
	// Stack is the panicking goroutine's stack at capture.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("resolve: panic contained at %s: %s", e.Op, e.Value)
}

// MemberHealth reports one member's serving state: a portfolio member
// ("steady") or a pool shard ("pool/3"). A quarantined member is out of
// service: its extension failed during an Apply broadcast, or a contained
// panic benched it, and its rebuild has not yet succeeded. CrashLoop
// marks a sticky bench — the member exhausted its rebuild budget inside
// the crashloop window and stays out until an explicit Rebuild.
type MemberHealth struct {
	Name        string
	Quarantined bool
	CrashLoop   bool
	Epoch       Epoch // universe epoch the member's encoding reflects
	Err         error // the failure that benched it (nil when healthy)

	// The pool's per-shard routing counters (a portfolio leaves them
	// zero): Served counts requests the shard solved, Inflight those
	// solving or queued on it at snapshot time.
	Served   uint64
	Inflight int64
	// Encoding is the member session's encoder-coverage snapshot.
	Encoding EncodingStats
}

// Snapshot is a point-in-time view of a backend: its members, its answer
// store, and its supervision and routing counters. It is read from
// atomics and the store — never a session lock — so stats endpoints can
// poll it on every scrape.
type Snapshot struct {
	// Backend names the policy: "pool" or "portfolio".
	Backend string
	// Members holds each member's state, in member order; Broken counts
	// the benched ones.
	Members []MemberHealth
	Broken  int
	// Answers is the number of fresh entries in the answer store; Hits
	// counts requests it answered without touching a member.
	Answers int
	Hits    uint64
	// Steals and Waits are the pool's routing counters (a portfolio leaves
	// them zero): requests served off their home shard, and requests that
	// queued behind an in-flight solve.
	Steals uint64
	Waits  uint64
	// Rebuilds counts members returned to service by a rebuild; Panics
	// the panics contained at the solve boundary.
	Rebuilds uint64
	Panics   uint64
}

// benchState is why a member is out of service. nil (no state) means
// healthy and serving; the pointer is stored atomically so the
// panic-containment path — which runs under the shared side of the
// Apply barrier — can bench without the write lock.
type benchState struct {
	err    error // the benching failure
	sticky bool  // crashlooping: only an explicit Rebuild tries it again
}

// Crashloop policy defaults: more than defaultCrashLoopRebuilds heal
// attempts inside defaultCrashLoopWindow bench a member sticky. See
// SetCrashLoopPolicy.
const (
	defaultCrashLoopRebuilds = 3
	defaultCrashLoopWindow   = 30 * time.Second
)

// healScope selects the benched members one pass of the heal loop tries.
type healScope int

const (
	healAuto healScope = iota // Resolve entry and the broadcast: every bench but sticky
	healAll                   // Rebuild: every bench, sticky windows reset
)

// memberSet is the supervision behind every backend: warm sessions over
// one shared universe, kept in service by one contract, with one answer
// store in front of them. PortfolioResolver races its members;
// PoolResolver routes each request to one of them.
//
//   - Answers. Every request is looked up in the store before any member
//     is picked, and every definitive answer a member produces is filed
//     there with the member's name. Apply invalidates the store once,
//     right after the universe grows, so the sweep happens even when every
//     member's extension fails, and stored answers survive heals.
//   - Growth. Apply applies a delta to the universe once, then extends
//     every serving member's encoding in place under the write barrier mu;
//     requests hold mu shared, so none observes a half-applied set. Epoch
//     reads a lock-free mirror, so per-request coalescing keys never queue
//     behind a broadcast.
//   - Benching. A member whose extension fails is benched rather than left
//     serving at a stale epoch, and the broadcast rebuilds it at once: a
//     fresh session over the grown universe encodes nothing, so the
//     rebuild costs the member its warmth, not the backend its capacity.
//   - Containment. A panic at any boundary — solve, extension, rebuild — is
//     contained as a *PanicError: the member is benched with its stack, and
//     a solve panic's member is rebuilt at the next Resolve entry.
//   - Healing. Every bench that is not sticky flags the set, so the next
//     Resolve entry retries the rebuild of any member still benched —
//     after a solve panic, or a rebuild that failed.
//   - Crashloop. Every heal attempt counts against the member's sliding
//     window. Over budget, the member goes sticky: no automatic path —
//     Resolve entry or broadcast — tries it again; only Rebuild, the
//     operator override, resets the window.
type memberSet struct {
	u       *repo.Universe
	backend string // "portfolio" or "pool": the PanicError.Op prefix

	// fpSolve and fpRebuild are the backend's faultpoint sites.
	fpSolve, fpRebuild *faultpoint.Point

	// mu quiesces the set around Apply and heals: Resolve holds it shared
	// (each member's session lock serializes actual solving); Apply and
	// the heals hold it exclusively. The lock order is mu, then the
	// answer store's own lock, which is never held across a session call.
	//
	// goarxivlint:lock
	mu      sync.RWMutex
	members []*member

	// answers is the set's one answer memo, for its whole lifetime; the
	// constructors size it at concretize.AnswersPerSession per member.
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

	// healNeeded flags that some member is benched and not sticky; Resolve
	// checks it lock-free on entry and takes the write barrier only when
	// there is healing to do.
	//
	// goarxivlint:lockfree
	healNeeded atomic.Bool

	// rebuilt counts members returned to service by a rebuild; panics
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

// member is one supervised session.
type member struct {
	name  string              // Health, Rebuild and attribution name: "steady", "pool/3"
	label string              // faultpoint label and PanicError.Op instance: "steady", "3"
	opts  SessionOptions      // construction options, kept for rebuilds
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

	// The pool's routing counters (a portfolio leaves them zero): inflight
	// counts requests solving or queued on the member, served the requests
	// it solved.
	//
	// goarxivlint:lockfree
	inflight atomic.Int64
	served   atomic.Uint64
}

// addMember adds one more member session over the set's universe, which
// the set then serves at.
func (s *memberSet) addMember(name, label string, opts SessionOptions) {
	s.members = append(s.members, &member{name: name, label: label, opts: opts, se: concretize.NewSession(s.u, opts)})
	s.epochA.Store(uint64(s.u.Epoch()))
}

// resolve is the request path every backend shares: the heal entry, the
// shared side of the barrier, and the answer store in front of the
// backend's policy — route (pool) or race (portfolio). A store hit touches
// no member; a miss runs the policy, which files its answer through
// settle.
//
// goarxivlint:blocking
func (s *memberSet) resolve(ctx context.Context, req Request, policy func(ctx context.Context, req Request, key string) (*Result, error)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.healNeeded.Load() {
		s.heal(healAuto)
	}
	// Shared-mode barrier against Apply: requests proceed concurrently with
	// each other, never interleaved with a half-broadcast delta.
	s.mu.RLock()
	defer s.mu.RUnlock()
	key := req.Key()
	if res, err, by, ok := s.answers.Get(key, req.Roots); ok {
		s.hits.Add(1)
		return s.attribute(by, res, err)
	}
	return policy(ctx, req, key)
}

// settle files a member's answer in the answer store — definitive answers
// only; the store ignores the rest — and shapes it for the caller.
// Callers hold mu shared.
func (s *memberSet) settle(key, by string, res *concretize.Resolution, err error) (*Result, error) {
	s.answers.Put(key, by, res, err)
	return s.attribute(by, res, err)
}

// attribute shapes a member's answer, solved or stored, for the caller:
// Result.Config names the member, and a definitive unsat proof is wrapped
// in a *MemberError naming it. Other errors pass through.
func (s *memberSet) attribute(by string, res *concretize.Resolution, err error) (*Result, error) {
	switch {
	case errors.Is(err, ErrUnsatisfiable):
		return nil, &MemberError{Member: by, Epoch: s.Epoch(), Err: err}
	case err != nil:
		return nil, err
	}
	return &Result{Picks: res.Picks, Stats: res.Stats, Config: by}, nil
}

// LastGood returns the last optimal answer the answer store holds for a
// request-shape key (Request.Key), fresh or stale, with Result.Config
// naming the member that solved it and Stats.Epoch the epoch it was solved
// at; fresh reports whether it is still the answer at the current epoch.
// It never returns an unsat answer. The serving tier's degraded mode reads
// it when the backend cannot answer.
func (s *memberSet) LastGood(key string) (res *Result, fresh, ok bool) {
	r, by, fresh, ok := s.answers.LastGood(key)
	if !ok {
		return nil, false, false
	}
	return &Result{Picks: r.Picks, Stats: r.Stats, Config: by}, fresh, true
}

// CacheLen returns the number of fresh entries in the answer store.
func (s *memberSet) CacheLen() int { return s.answers.Len() }

// SetCrashLoopPolicy tunes the crashloop detector: a member healed more
// than maxRebuilds times inside window is sticky-benched instead of
// rebuilt again (for a pool shard, a loss of capacity). Zero (or
// negative) values select the defaults (3 rebuilds in 30s). Takes the
// write barrier; call before or between serving, not per request.
//
// goarxivlint:blocking cancel=none
func (s *memberSet) SetCrashLoopPolicy(maxRebuilds int, window time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashMaxRebuilds = maxRebuilds
	s.crashWindow = window
}

// Apply grows the shared universe by one append-only delta and broadcasts
// it to every serving member under the write barrier, so no request ever
// observes a half-applied backend. The delta is applied to the universe
// exactly once: a validation failure mutates nothing, touches no member,
// and is returned with the unchanged epoch. Otherwise Apply returns nil
// and the universe's new epoch.
//
// A member whose extension fails — or panics, which the broadcast
// contains — is benched and, with every other benched member the
// crashloop breaker allows, rebuilt before Apply returns: a fresh session
// over the grown universe, which loses the member's warmth but not the
// backend's capacity. A member whose rebuild fails stays benched until a
// later Resolve entry rebuilds it.
//
// goarxivlint:blocking cancel=none
func (s *memberSet) Apply(d *Delta) (Epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch, err := s.u.Apply(d)
	if err != nil {
		return s.u.Epoch(), err
	}
	s.epochA.Store(uint64(epoch))
	s.answers.Invalidate(d)
	for _, m := range s.members {
		if m.bench.Load() != nil {
			// Benched already: a heal re-encodes from the grown universe,
			// so the delta need not reach a session it will replace.
			continue
		}
		err := s.contain(m, false, func() error {
			_, err := m.se.Extend(d)
			return err
		})
		if err != nil {
			s.benchMember(m, err)
		}
	}
	s.healLocked(healAuto)
	return epoch, nil
}

// solve runs one request on one member with panic containment: a
// panicking member is benched (atomically: callers hold the barrier
// shared) and the request gets the contained *PanicError instead of
// crashing the process. The rebuild happens at the next Resolve entry,
// which can take the write barrier.
func (s *memberSet) solve(ctx context.Context, m *member, req Request) (*concretize.Resolution, error) {
	var res *concretize.Resolution
	err := s.contain(m, false, func() (err error) {
		if err = s.fpSolve.Inject(m.label); err == nil {
			res, err = m.se.Resolve(ctx, req.Roots, concretize.Options{MaxConflicts: req.MaxConflicts, Objective: req.Objective})
		}
		return err
	})
	if _, panicked := err.(*PanicError); panicked {
		s.panics.Add(1)
		s.benchMember(m, err)
	}
	return res, err
}

// contain runs f, converting a panic into an unwrapped *PanicError that
// names the boundary: "<backend>/<label>", or "<backend>/rebuild/<label>"
// for a rebuild. A panicking session is in an unknown state, so callers
// bench the member exactly as for an error.
func (s *memberSet) contain(m *member, rebuild bool, f func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			op := s.backend + "/" + m.label
			if rebuild {
				op = s.backend + "/rebuild/" + m.label
			}
			err = &PanicError{Op: op, Value: fmt.Sprint(rec), Stack: debug.Stack()}
		}
	}()
	return f()
}

// benchMember takes a member out of service for err and flags the set
// for healing at the next Resolve entry.
func (s *memberSet) benchMember(m *member, err error) {
	m.bench.Store(&benchState{err: err})
	s.healNeeded.Store(true)
}

// Rebuild re-admits every benched member by replacing its session with a
// fresh one — same configuration, encoded from the current universe — and
// returns the names of the members it healed (nil when none was benched).
// A benched member's encoding is behind the shared universe (or corrupted
// by a contained panic) and cannot be extended in place; re-encoding is
// the only way back, and it restarts the member cold: learnt clauses and
// banked bounds are gone. The set's answer store is not a member's, so
// its answers survive. Rebuild is the operator override: it resets a
// crashlooping member's sticky bench and window (no automatic path does),
// and each attempt is still bounded by the crashloop policy, so even an
// operator loop converges to sticky. A member whose rebuild fails stays
// benched but heal-eligible: the next Resolve entry tries it again.
//
// goarxivlint:blocking cancel=none
func (s *memberSet) Rebuild() []string { return s.heal(healAll) }

// heal runs the heal loop under the write barrier, so it never races a
// broadcast and no request observes a half-rebuilt backend.
//
// goarxivlint:blocking cancel=none
func (s *memberSet) heal(scope healScope) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healLocked(scope)
}

// healLocked is the heal loop: one crashloop-bounded rebuild attempt for
// every benched member in scope, in member order, returning the names of
// those it returned to service. It recomputes healNeeded from the members
// it leaves benched, so any member left benched but not sticky is retried
// at the next Resolve entry. Callers hold mu exclusively, which excludes
// the shared-side panic benches, so the recomputation cannot lose one.
func (s *memberSet) healLocked(scope healScope) []string {
	var healed []string
	pending := false
	for _, m := range s.members {
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
		if s.healMemberLocked(m, b) {
			healed = append(healed, m.name)
		} else if !m.bench.Load().sticky {
			pending = true
		}
	}
	s.healNeeded.Store(pending)
	return healed
}

// healMemberLocked attempts one contained rebuild of a benched member,
// counting the attempt against the crashloop window: with the policy's
// budget of attempts already inside the window, the member goes sticky
// instead — it keeps its last failure in Health() (CrashLoop set) and
// stops consuming rebuilds until an explicit Rebuild. A rebuild that
// fails or panics leaves it benched, not sticky. Returns whether the
// member returned to service. Callers hold mu exclusively.
func (s *memberSet) healMemberLocked(m *member, b *benchState) bool {
	maxRebuilds, window := s.crashMaxRebuilds, s.crashWindow
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
	err := s.contain(m, true, func() error {
		if err := s.fpRebuild.Inject(m.label); err != nil {
			return err
		}
		m.se = concretize.NewSession(s.u, m.opts)
		return nil
	})
	if err != nil {
		m.bench.Store(&benchState{err: err})
		return false
	}
	m.bench.Store(nil)
	s.rebuilt.Add(1)
	return true
}

// Health reports each member's serving state, in member order: its name,
// the epoch its encoding reflects, its routing counters and encoder
// coverage, and — for benched members — the failure that benched it, with
// CrashLoop marking a sticky bench.
func (s *memberSet) Health() []MemberHealth {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]MemberHealth, len(s.members))
	for i, m := range s.members {
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

// Snapshot reports the backend's state; see Snapshot.
func (s *memberSet) Snapshot() Snapshot {
	snap := Snapshot{
		Backend:  s.backend,
		Members:  s.Health(),
		Answers:  s.answers.Len(),
		Hits:     s.hits.Load(),
		Steals:   s.steals.Load(),
		Waits:    s.waits.Load(),
		Rebuilds: s.rebuilt.Load(),
		Panics:   s.panics.Load(),
	}
	for _, m := range snap.Members {
		if m.Quarantined {
			snap.Broken++
		}
	}
	return snap
}

// Epoch returns the epoch of the shared universe, which every serving
// member serves at (the write barrier keeps them in lockstep). It reads
// the atomic mirror, never mu: the serving tier calls Epoch() per request
// to key coalescing, and must not queue behind an Apply broadcast.
//
// goarxivlint:lockfree
func (s *memberSet) Epoch() Epoch {
	return Epoch(s.epochA.Load())
}
