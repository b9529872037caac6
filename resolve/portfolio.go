package resolve

import (
	"context"
	"errors"
	"fmt"

	"github.com/paper-repo-growth/go-arxiv/internal/concretize"
	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// BackendConfig names one portfolio member: a Session configuration whose
// solver knobs (branching polarity, restart schedule, objective-descent
// strategy) give it a distinct search trajectory. Members never disagree on
// answers — only on how fast they reach them on a given request shape.
type BackendConfig struct {
	Name    string
	Options SessionOptions
}

// DefaultPortfolio returns the stock member set: one member, "baseline",
// with the default SessionOptions (negative-first branching, standard
// restarts, adaptive descent). A race pays only while its members' run
// times differ widely on the traffic. Since first visits are seeded with a
// greedy model priced by the request's objective, the default
// configuration's first model is nearly always optimal and one refutation
// closes it. On the benchmark's provider-swap stream (2,600 distinct
// minimal-change requests over SynthVirtualDiamond(8, 3, 8)) it won 0.70
// of the races against positive-first branching and a patient-restart,
// binary-descent member, and alone it takes 2.00 solve calls per request.
// Racing all three cost 1.27 daemon CPU ms per request against 0.71 for
// baseline alone (medians of 10 alternating runs on a 2-vCPU host), so
// the stock portfolio solves each request on one session. An explicit
// member list still races.
func DefaultPortfolio() []BackendConfig {
	return []BackendConfig{{Name: "baseline", Options: SessionOptions{}}}
}

// PortfolioResolver races differently-configured Sessions over the same
// universe on every request the answer store cannot answer, and returns
// the first definitive answer — an optimal resolution or a proof of
// unsatisfiability — canceling the remaining members through the solver
// interrupt. Each member materializes what requests reach once and its
// solver state (learnt clauses, banked bounds) warms across requests, so
// the race's marginal cost is solver time, not re-encoding. The winner's
// answer is filed in the store; a repeat request is answered from it,
// naming the winner, without a race. The stock member set
// (DefaultPortfolio) has one member, so by default nothing races: each
// miss is solved on one session, and only an explicit member list races.
//
// Budget-limited outcomes are not definitive: if a member returns a
// non-optimal incumbent (or concretize.ErrBudget) while another later
// proves an optimum, the optimum wins; the incumbent is returned only
// when no member can do better.
//
// A portfolio differs from a PoolResolver only in how it uses its
// members: it races them where the pool routes each request to one. The
// supervision is the pool's. Benched members sit out of every race: a
// member whose Apply extension fails is rebuilt inside the broadcast, and
// a member that panics mid-solve is raced around and rebuilt at the next
// Resolve entry, both bounded by the crashloop policy
// (SetCrashLoopPolicy).
type PortfolioResolver struct {
	memberSet
}

var _ Resolver = (*PortfolioResolver)(nil)

// NewPortfolioResolver builds a portfolio over the universe from the
// given configs (DefaultPortfolio when none are passed), one Session per
// member. Config names must be unique and non-empty.
func NewPortfolioResolver(u *repo.Universe, configs ...BackendConfig) (*PortfolioResolver, error) {
	if len(configs) == 0 {
		configs = DefaultPortfolio()
	}
	seen := make(map[string]bool, len(configs))
	p := &PortfolioResolver{memberSet: memberSet{
		u: u, backend: "portfolio", fpSolve: fpPortfolioSolve, fpRebuild: fpPortfolioRebuild,
		answers: concretize.NewAnswers(len(configs) * concretize.AnswersPerSession),
	}}
	for _, c := range configs {
		if c.Name == "" {
			return nil, fmt.Errorf("resolve: portfolio config with empty name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("resolve: duplicate portfolio config %q", c.Name)
		}
		seen[c.Name] = true
		p.addMember(c.Name, c.Name, c.Options)
	}
	return p, nil
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

// Resolve implements Resolver: a request the answer store holds is served
// from it; for any other it fires the request into every healthy member
// concurrently, returns the first definitive answer, and cancels the
// rest. All members are drained before returning, so a PortfolioResolver
// is quiescent between calls and safe for concurrent use (each member
// Session serializes its own solver). Every error produced by a member —
// a definitive unsatisfiability proof included — is wrapped in a
// *MemberError carrying the member's name and epoch, mirroring the
// attribution (Result.Config, Result.Stats) the success path carries.
//
// A member that panics mid-solve is contained: benched with its stack
// (the race falls through to the survivors), then rebuilt with a fresh
// session at the next Resolve entry, crashloop-bounded. The panic
// surfaces only if every other member also fails, as a *MemberError
// wrapping the *PanicError.
//
// goarxivlint:blocking
func (p *PortfolioResolver) Resolve(ctx context.Context, req Request) (*Result, error) {
	return p.resolve(ctx, req, p.race)
}

// race is the portfolio's policy behind the answer store. Callers hold
// p.mu shared.
//
// goarxivlint:blocking
func (p *PortfolioResolver) race(ctx context.Context, req Request, key string) (*Result, error) {
	active := make([]*member, 0, len(p.members))
	for _, m := range p.members {
		if m.bench.Load() == nil {
			active = append(active, m)
		}
	}
	if len(active) == 0 {
		return nil, ErrNoActiveMembers
	}
	race, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make(chan outcome, len(active))
	for _, m := range active {
		m := m
		go func() {
			// A panicking member is benched inside solve and reports the
			// contained panic as its outcome: the race falls through to
			// the survivors.
			res, err := p.solve(race, m, req)
			o := outcome{name: m.name, epoch: m.se.Epoch(), res: res, err: err}
			if res != nil {
				o.epoch = res.Stats.Epoch
			}
			outcomes <- o
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
		// A definitive unsat proof carries the same attribution as a
		// definitive resolution: which member proved it (see attribute).
		return p.settle(key, winner.name, winner.res, winner.err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("resolve: request canceled: %w", err)
	}
	if fallback != nil {
		return p.attribute(fallback.name, fallback.res, nil)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// Unreachable in practice: a member only reports cancellation when the
	// race context fired, which the winner and ctx.Err() paths cover.
	return nil, fmt.Errorf("resolve: portfolio drained without an answer")
}
