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
	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/sat"
)

// BackendConfig names one portfolio member: a Session configuration whose
// solver knobs (branching polarity, restart schedule, objective-descent
// step) give it a distinct search trajectory. Members never disagree on
// answers — only on how fast they reach them on a given request shape.
type BackendConfig struct {
	Name    string
	Options SessionOptions
}

// DefaultPortfolio returns the stock member set: complementary heuristics
// — branching polarity, restart schedule, and descent strategy — so that
// whichever trajectory suits the request wins the race.
func DefaultPortfolio() []BackendConfig {
	return []BackendConfig{
		// The defaults: negative-first branching ("install nothing extra"
		// first), standard restarts, adaptive descent (one linear probe on
		// an unseen request shape, binary search once that probe improves
		// or a bound is banked).
		{Name: "baseline", Options: SessionOptions{}},
		// Positive-first branching commits to installs early — strong when
		// the optimum installs most of the reachable set.
		{Name: "positive", Options: SessionOptions{Solver: sat.Config{PositiveFirst: true}}},
		// Aggressive restarts plus wide linear descent steps: rushes the
		// incumbent down on objective-heavy requests where the first model
		// is already near-optimal.
		{Name: "dive", Options: SessionOptions{Solver: sat.Config{RestartBase: 40, Descent: sat.DescentLinear, DescentStep: 8}}},
		// Patient restarts for deep refutations (unsat proofs, tight
		// conflict webs) with binary-search descent, which bounds the
		// round count even when the incumbent starts far from the optimum.
		{Name: "steady", Options: SessionOptions{Solver: sat.Config{RestartBase: 400, Descent: sat.DescentBinary}}},
	}
}

// ErrNoActiveMembers is returned by PortfolioResolver.Resolve when every
// member is benched — quarantined by a failed Apply broadcast or contained
// after a panic: the portfolio has fail-stopped and can only be rebuilt.
var ErrNoActiveMembers = errors.New("resolve: portfolio has no active members")

// MemberHealth reports one portfolio member's serving state. A quarantined
// member is excluded from every subsequent Resolve race: either its
// skeleton fell behind the shared universe during an Apply broadcast, or a
// contained panic benched it. CrashLoop marks a sticky bench — the member
// exhausted its rebuild budget inside the crashloop window and stays out
// until an explicit Rebuild.
type MemberHealth struct {
	Name        string
	Quarantined bool
	CrashLoop   bool
	Epoch       Epoch // universe epoch the member's skeleton reflects
	Err         error // the failure that benched it (nil when healthy)
}

// PortfolioResolver races differently-configured Sessions over the same
// universe on every request and returns the first definitive answer —
// an optimal resolution or a proof of unsatisfiability — canceling the
// remaining members through the solver interrupt. Each member's skeleton
// is encoded once at construction and its solver state (learnt clauses,
// caches) warms across requests, so the race's marginal cost is solver
// time, not re-encoding.
//
// Budget-limited outcomes are not definitive: if a member returns a
// non-optimal incumbent (or concretize.ErrBudget) while another later
// proves an optimum, the optimum wins; the incumbent is returned only
// when no member can do better.
//
// The members share one universe, which grows through Apply: the delta is
// applied once and every member's skeleton extends in place, under a
// write barrier that quiesces requests — a racing Resolve observes every
// member either wholly before or wholly after the delta, never a
// half-applied portfolio. A member whose extension fails is quarantined
// rather than left racing at a stale epoch; see Apply.
//
// Failure is contained, not fatal: a member that panics mid-solve (or
// mid-extension) is benched with its stack instead of crashing the
// process, auto-healed with a fresh session at a later Resolve entry, and
// — when it keeps crashing — sticky-benched by the crashloop detector so
// a corrupt configuration cannot consume the daemon in rebuilds.
type PortfolioResolver struct {
	u *repo.Universe

	// mu quiesces the portfolio around Apply: Resolve holds it shared (the
	// members' own session locks serialize actual solving), Apply holds it
	// exclusively while broadcasting the delta across members.
	//
	// goarxivlint:lock
	mu      sync.RWMutex
	members []*portfolioMember

	// epochA mirrors the shared universe's epoch for lock-free reads.
	// Epoch() must not touch mu: Apply holds it exclusively for the whole
	// broadcast (one Extend per member), and the serving tier computes
	// coalescing keys from Epoch() on every request — reading it through
	// the barrier would queue every arrival behind an in-flight delta,
	// the same serialization bug Session.Epoch() once had.
	//
	// goarxivlint:lockfree
	epochA atomic.Uint64

	// healNeeded flags that some member is panic-benched and waiting for
	// an auto-heal; Resolve checks it lock-free on entry and takes the
	// write barrier only when there is actual healing to do.
	//
	// goarxivlint:lockfree
	healNeeded atomic.Bool

	// Crashloop policy; zero values select the package defaults. Written
	// only through SetCrashLoopPolicy (write barrier), read under mu.
	crashMaxRebuilds int
	crashWindow      time.Duration
}

type portfolioMember struct {
	name string
	opts SessionOptions // construction options, kept for rebuilds
	se   *concretize.Session

	// bench is the member's serving state: nil while racing, else why it
	// is excluded. Stored atomically because the panic-containment path
	// runs under the shared side of the barrier (a race goroutine cannot
	// take the write lock its own Resolve holds shared); every other
	// writer holds mu exclusively.
	//
	// goarxivlint:lockfree
	bench atomic.Pointer[benchState]

	// rebuilds timestamps recent heal attempts — the crashloop sliding
	// window. Guarded by mu held exclusively.
	rebuilds []time.Time
}

var _ Resolver = (*PortfolioResolver)(nil)

// NewPortfolioResolver builds a portfolio over the universe from the
// given configs (DefaultPortfolio when none are passed), encoding one
// Session skeleton per member. Config names must be unique and non-empty.
func NewPortfolioResolver(u *repo.Universe, configs ...BackendConfig) (*PortfolioResolver, error) {
	if len(configs) == 0 {
		configs = DefaultPortfolio()
	}
	seen := make(map[string]bool, len(configs))
	p := &PortfolioResolver{u: u}
	for _, c := range configs {
		if c.Name == "" {
			return nil, fmt.Errorf("resolve: portfolio config with empty name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("resolve: duplicate portfolio config %q", c.Name)
		}
		seen[c.Name] = true
		p.members = append(p.members, &portfolioMember{
			name: c.Name,
			opts: c.Options,
			se:   concretize.NewSession(u, c.Options),
		})
	}
	p.epochA.Store(uint64(u.Epoch()))
	return p, nil
}

// SetCrashLoopPolicy tunes the crashloop detector: a member healed more
// than maxRebuilds times inside window is sticky-benched instead of
// rebuilt again. Zero (or negative) values select the defaults (3
// rebuilds in 30s). Takes the write barrier; call before or between
// serving, not per request.
//
// goarxivlint:blocking cancel=none
func (p *PortfolioResolver) SetCrashLoopPolicy(maxRebuilds int, window time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashMaxRebuilds = maxRebuilds
	p.crashWindow = window
}

// Apply grows the shared universe by one append-only delta and broadcasts
// it across the members. The delta is applied to the universe exactly once
// (a validation failure mutates nothing and touches no member); each
// member then extends its skeleton in place under the portfolio's write
// barrier, so no request ever races a half-applied portfolio.
//
// The broadcast is all-or-nothing from the caller's view: a member whose
// extension fails — or panics, which the broadcast contains — is
// quarantined: excluded from every subsequent Resolve race and reported
// through Health(), while the remaining members complete the broadcast at
// the new epoch. The returned error is a *MemberError (or errors.Join of
// several) naming each quarantined member; the returned epoch is the
// universe's new epoch, which every still-healthy member serves at. An
// error-quarantined member stays benched until an explicit Rebuild (the
// failure is unexplained, so re-admission is an operator decision); a
// panic-quarantined member auto-heals like a solve panic. A portfolio
// whose members are all benched fail-stops: Resolve returns
// ErrNoActiveMembers.
//
// goarxivlint:blocking cancel=none
func (p *PortfolioResolver) Apply(d *Delta) (Epoch, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Apply the delta to the shared universe once. Validation failures
	// abort cleanly: nothing mutated, no member touched, no quarantine.
	epoch, err := p.u.Apply(d)
	if err != nil {
		return p.u.Epoch(), err
	}
	p.epochA.Store(uint64(epoch))
	// Broadcast: every healthy member extends its skeleton to the already
	// -applied delta (the sibling case of the Session.Extend epoch
	// contract). A failure quarantines the member; the loop continues so
	// the surviving members all reach the new epoch.
	var errs []error
	for _, m := range p.members {
		if m.bench.Load() != nil {
			continue // benched by an earlier broadcast or a contained panic
		}
		if err := extendContained(m, d); err != nil {
			b := &benchState{err: err, panics: isContainedPanic(err)}
			m.bench.Store(b)
			if b.panics {
				p.healNeeded.Store(true)
			}
			errs = append(errs, &MemberError{Member: m.name, Epoch: m.se.Epoch(), Err: err})
		}
	}
	return epoch, errors.Join(errs...)
}

// extendContained extends one member's skeleton with panic containment: a
// panic mid-extension leaves the session in an unknown state, which the
// caller treats exactly like an extension error — bench now, fresh
// session later.
func extendContained(m *portfolioMember, d *Delta) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &PanicError{Op: "portfolio/" + m.name, Value: fmt.Sprint(rec), Stack: debug.Stack()}
		}
	}()
	_, err = m.se.Extend(d)
	return err
}

// Members returns the member configuration names, in racing order;
// benched members are included (they remain configured, just not racing —
// see Health).
func (p *PortfolioResolver) Members() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	names := make([]string, len(p.members))
	for i, m := range p.members {
		names[i] = m.name
	}
	return names
}

// Rebuild re-admits every benched member by replacing its stale session
// with a fresh one — same configuration, encoded from the current
// universe — and returns the names of the members it healed (nil when no
// member was benched). A benched member's skeleton is behind the shared
// universe (or corrupted by a contained panic) and cannot be extended in
// place; re-encoding from scratch is the only way back into the race, and
// it restarts the member cold: learnt clauses, banked bounds, and cached
// answers are gone, correctness is not. Rebuild is the operator override:
// it resets a crashlooping member's sticky bench and rebuild window (the
// automatic heal path never does), and each heal attempt is still bounded
// by the crashloop policy, so even an operator loop converges to sticky.
// Rebuild holds the write barrier, so it never races a broadcast and no
// request observes a half-rebuilt portfolio.
//
// goarxivlint:blocking cancel=none
func (p *PortfolioResolver) Rebuild() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var healed []string
	for _, m := range p.members {
		b := m.bench.Load()
		if b == nil {
			continue
		}
		if b.sticky {
			// Operator intent: explicit Rebuild resets the crashloop
			// window and tries once more.
			m.rebuilds = m.rebuilds[:0]
		}
		if p.healMemberLocked(m, b) {
			healed = append(healed, m.name)
		}
	}
	return healed
}

// healPanicked rebuilds every panic-benched, non-sticky member. Called
// from Resolve entry when healNeeded is set; takes the write barrier.
//
// goarxivlint:blocking cancel=none
func (p *PortfolioResolver) healPanicked() {
	p.mu.Lock()
	defer p.mu.Unlock()
	pending := false
	for _, m := range p.members {
		b := m.bench.Load()
		if b == nil || !b.panics || b.sticky {
			continue
		}
		p.healMemberLocked(m, b)
		if nb := m.bench.Load(); nb != nil && nb.panics && !nb.sticky {
			pending = true
		}
	}
	// A benched member cannot reappear concurrently: every panic-bench
	// happens under the shared side of the barrier, which this exclusive
	// section excludes, so clearing the flag here cannot lose a bench.
	p.healNeeded.Store(pending)
}

// healMemberLocked attempts one contained rebuild of a benched member,
// counting the attempt against the crashloop window: more than the
// policy's budget of attempts inside the window benches the member sticky
// — it keeps its last failure in Health() (CrashLoop set) and stops
// consuming rebuilds until an explicit Rebuild. Returns whether the
// member returned to the race. Callers hold mu exclusively.
func (p *PortfolioResolver) healMemberLocked(m *portfolioMember, b *benchState) bool {
	maxRebuilds, window := crashPolicy(p.crashMaxRebuilds, p.crashWindow)
	now := time.Now()
	var over bool
	m.rebuilds, over = crashWindowTrim(m.rebuilds, now, window, maxRebuilds)
	if over {
		m.bench.Store(&benchState{
			err:    fmt.Errorf("resolve: member %s crashlooping (%d rebuilds in %v): %w", m.name, len(m.rebuilds), window, b.err),
			panics: b.panics,
			sticky: true,
		})
		return false
	}
	m.rebuilds = append(m.rebuilds, now)
	if err := p.rebuildSession(m); err != nil {
		m.bench.Store(&benchState{err: err, panics: true})
		return false
	}
	m.bench.Store(nil)
	return true
}

// rebuildSession replaces a benched member's session with a fresh one,
// containing construction panics: a configuration whose re-encoding
// panics must not take down the Resolve or Rebuild that triggered the
// heal — it stays benched and burns one crashloop attempt instead.
func (p *PortfolioResolver) rebuildSession(m *portfolioMember) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &PanicError{Op: "portfolio/rebuild/" + m.name, Value: fmt.Sprint(rec), Stack: debug.Stack()}
		}
	}()
	if err := fpPortfolioRebuild.Inject(m.name); err != nil {
		return err
	}
	m.se = concretize.NewSession(p.u, m.opts)
	return nil
}

// Health reports each member's serving state, in racing order: its name,
// the epoch its skeleton reflects, and — for benched members — the
// failure that benched it, with CrashLoop marking a sticky bench.
func (p *PortfolioResolver) Health() []MemberHealth {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]MemberHealth, len(p.members))
	for i, m := range p.members {
		out[i] = MemberHealth{Name: m.name, Epoch: m.se.Epoch()}
		if b := m.bench.Load(); b != nil {
			out[i].Quarantined = true
			out[i].CrashLoop = b.sticky
			out[i].Err = b.err
		}
	}
	return out
}

// Epoch returns the epoch of the shared universe, which every healthy
// member serves at (the write barrier keeps them in lockstep). It reads
// the atomic mirror, never mu: the serving tier calls Epoch() per request
// to key coalescing, and must not queue behind an Apply broadcast.
//
// goarxivlint:lockfree
func (p *PortfolioResolver) Epoch() Epoch {
	return Epoch(p.epochA.Load())
}

// outcome is one member's answer to one request.
type outcome struct {
	name  string
	epoch Epoch
	res   *concretize.Resolution
	err   error
}

// definitive reports whether the outcome settles the request: an optimal
// resolution or a proven unsatisfiability. Budget-limited incumbents and
// cancellations are not definitive.
func (o outcome) definitive() bool {
	if o.err != nil {
		return errors.Is(o.err, concretize.ErrUnsatisfiable)
	}
	return o.res.Stats.Optimal
}

// Resolve implements Resolver: it fires the request into every healthy
// member concurrently, returns the first definitive answer, and cancels
// the rest. All members are drained before returning, so a
// PortfolioResolver is quiescent between calls and safe for concurrent use
// (each member Session serializes its own solver). Every error produced by
// a member — a definitive unsatisfiability proof included — is wrapped in
// a *MemberError carrying the member's name and epoch, mirroring the
// attribution (Result.Config, Result.Stats) the success path carries.
//
// A member that panics mid-solve is contained: benched with its stack
// (the race falls through to the survivors), then rebuilt with a fresh
// session at a later Resolve entry, crashloop-bounded. The panic
// surfaces only if every other member also fails, as a *MemberError
// wrapping the *PanicError.
//
// goarxivlint:blocking
func (p *PortfolioResolver) Resolve(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.healNeeded.Load() {
		p.healPanicked()
	}
	// Shared-mode barrier against Apply: requests proceed concurrently with
	// each other, never interleaved with a half-broadcast delta.
	p.mu.RLock()
	defer p.mu.RUnlock()
	active := make([]*portfolioMember, 0, len(p.members))
	for _, m := range p.members {
		if m.bench.Load() == nil {
			active = append(active, m)
		}
	}
	if len(active) == 0 {
		if len(p.members) == 0 {
			return nil, fmt.Errorf("resolve: portfolio has no members")
		}
		return nil, ErrNoActiveMembers
	}
	race, cancel := context.WithCancel(ctx)
	defer cancel()

	opts := concretize.Options{MaxConflicts: req.MaxConflicts, Objective: req.Objective}
	outcomes := make(chan outcome, len(active))
	for _, m := range active {
		m := m
		go func() {
			outcomes <- p.raceMember(race, m, req, opts)
		}()
	}

	var winner *outcome
	var fallback *outcome // best non-definitive incumbent (lowest cost)
	var firstErr error    // first non-cancellation error
	for remaining := len(active); remaining > 0; remaining-- {
		o := <-outcomes
		switch {
		case winner != nil:
			// Already settled; the rest are losers being drained.
		case o.definitive():
			o := o
			winner = &o
			cancel()
		case o.err == nil:
			if fallback == nil || o.res.Stats.Cost < fallback.res.Stats.Cost {
				o := o
				fallback = &o
			}
		case errors.Is(o.err, context.Canceled) || errors.Is(o.err, context.DeadlineExceeded):
			// Canceled loser — or the caller's own context firing, which
			// the post-drain ctx.Err() check reports.
		case firstErr == nil:
			firstErr = &MemberError{Member: o.name, Epoch: o.epoch, Err: o.err}
		}
	}

	if winner != nil {
		if winner.err != nil {
			// A definitive unsat proof carries the same attribution as a
			// definitive resolution: which member proved it, at what epoch.
			// Unwrap preserves errors.Is(ErrUnsatisfiable) and
			// errors.As(*UnsatError) for callers matching the taxonomy.
			return nil, &MemberError{Member: winner.name, Epoch: winner.epoch, Err: winner.err}
		}
		return &Result{Picks: winner.res.Picks, Stats: winner.res.Stats, Config: winner.name}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("resolve: request canceled: %w", err)
	}
	if fallback != nil {
		return &Result{Picks: fallback.res.Picks, Stats: fallback.res.Stats, Config: fallback.name}, nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// Unreachable in practice: a member only reports cancellation when the
	// race context fired, which the winner and ctx.Err() paths cover.
	return nil, fmt.Errorf("resolve: portfolio drained without an answer")
}

// raceMember runs one member's leg of the race with panic containment: a
// panicking member is benched with its stack (atomically — the caller
// holds the barrier shared) and reports the contained panic as its
// outcome, so the race falls through to the survivors instead of crashing
// the process. The rebuild happens at a later Resolve entry, which can
// take the write barrier.
func (p *PortfolioResolver) raceMember(ctx context.Context, m *portfolioMember, req Request, opts concretize.Options) (o outcome) {
	defer func() {
		if rec := recover(); rec != nil {
			perr := &PanicError{Op: "portfolio/" + m.name, Value: fmt.Sprint(rec), Stack: debug.Stack()}
			m.bench.Store(&benchState{err: perr, panics: true})
			p.healNeeded.Store(true)
			o = outcome{name: m.name, epoch: m.se.Epoch(), err: perr}
		}
	}()
	if err := fpPortfolioSolve.Inject(m.name); err != nil {
		return outcome{name: m.name, epoch: m.se.Epoch(), err: err}
	}
	res, err := m.se.Resolve(ctx, req.Roots, opts)
	epoch := m.se.Epoch()
	if res != nil {
		epoch = res.Stats.Epoch
	}
	return outcome{name: m.name, epoch: epoch, res: res, err: err}
}
