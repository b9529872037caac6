// Package concretize turns dependency-resolution requests over a
// repo.Universe into pseudo-Boolean SAT problems for internal/sat and
// decodes models back into concrete (package, version) selections. This is
// the concretizer layer of the paper's architecture: the solver plays the
// role clasp plays underneath Clingo in Spack, and this package plays the
// role of the encoding that Spack lowers its package DSL into.
//
// Most callers should not import this package directly: the public serving
// surface is the resolve package (version -> repo -> sat -> concretize ->
// resolve), whose backend shards requests over identical Sessions
// (resolve.PoolResolver; one shard is the single-session backend), with
// one answer store (Answers) in front. Within this package, Session is the
// long-lived warm path and the direct Concretize function is the one-shot
// convenience wrapper for scripts and tests that resolve a single request
// and throw the state away.
//
// Requests carry a context.Context: cancellation (or a deadline) is mapped
// onto the solver's asynchronous interrupt, so an in-flight solve stops
// promptly and the Session remains reusable. What "best" means is
// pluggable per request through the Objective interface — NewestVersion
// (the default), MinimalChange against an installed repo.Profile, or
// custom weights via ObjectiveFunc. Failures are typed: *UnknownPackageError
// (a root naming neither a package nor a virtual), *UnsatError (matching
// ErrUnsatisfiable and carrying the request's roots), ErrBudget, and the
// request context's error for cancellations.
//
// Architecture. Every requirement — a dependency or conflict target, a
// condition trigger, a request root — is lowered through one interface,
// repo.Candidates: the concrete (package, version) selections able to
// satisfy it, whether the name is a concrete package or a virtual provided
// by competing packages. The encoder is split into an encoding of the
// packages requests have reached and a per-request activation layer, both
// owned by Session — the long-lived warm path that the one-shot Concretize
// entry point also runs through:
//
//   - Encoding (materialized per package the first time a request reaches
//     it; see Session): each package p gets an "installed" variable y_p and one variable
//     x_{p,v} per available version v, with x_{p,v} -> y_p and
//     y_p -> OR_v x_{p,v} tying selection to installation; an at-most-one
//     pseudo-Boolean constraint over the x_{p,v} makes selection
//     exactly-one for installed packages. Each virtual gets a "needed"
//     variable y_virt with the provider-selection clause
//     y_virt -> OR {x_{q,w} : (q,w) provides it}. Each dependency (t, R)
//     of (p, v) becomes the implication
//     x_{p,v} -> OR {x_{c} : candidate c of t with R.Satisfies(c.Matched)}
//     (an empty disjunction forbids x_{p,v}) — for a virtual target the
//     candidates are its providers filtered by provided version. Support
//     literals carry the rest: z_{t@R}, memoized per "t@R" key, with
//     x_{c} -> z_{t@R} for every matching candidate c, so z_{t@R} is
//     forced true exactly when a model selects a match. Each conflict
//     (t, R) of (p, v) becomes the one clause x_{p,v} -> !z_{t@R}, and a
//     conditional declaration is guarded behind its trigger's support
//     literal z, so its clause constrains only in models that actually
//     select the trigger: x_{p,v} AND z -> (dependency disjunction), or
//     x_{p,v} AND z -> !z_{t@R}. Support literals are allocated with
//     sat.Solver.NewAuxVar, so the solver defines them by propagation but
//     never branches on them: richer declaration forms do not widen the
//     search space. With no roots asserted the encoding is satisfied by
//     installing nothing, so it can never drive the solver into a
//     top-level conflict.
//
//     Growth — a request materializing more packages, or a delta adding
//     versions — keeps these clauses complete by two registration rules.
//     Every dependency clause is recorded under its target name t (a
//     clause forbidding x_{p,v} while t has no candidate included), and
//     when t grows the clause is detached and re-emitted over the current
//     candidates. Every trigger or conflict target gets its support
//     literal at first use, matching or not: until a candidate matches,
//     nothing forces the literal, which keeps the clauses guarded on it
//     vacuous; when t grows it only gains support clauses, so no clause
//     guarded on it is ever re-emitted.
//
//   - Activation (per request): each root (t, R) is represented by a
//     reusable assumption literal a with permanent clauses a -> y_t (the
//     package's installed variable, or the virtual's needed variable) and
//     a -> OR {x_{c} : candidate c of t inside R}. Solving under the
//     assumption that the request's activation literals hold yields exactly
//     the cold-path formula, while learnt clauses, VSIDS activity, and
//     saved phases persist across requests.
//
// Optimization. A weighted pseudo-Boolean objective over the request's
// reachable packages prefers newest versions and fewer installed packages,
// layered lexicographically in Spack's root-first order: root version-lag
// dominates dependency version-lag, which dominates install count. A root
// naming a virtual weights its provider packages at root rank, so a
// resolved virtual costs what its chosen provider costs. Each request runs
// branch-and-bound between the incumbent's cost and a proven lower bound:
// solve, record the model and its cost, then enforce "objective <= target"
// for the next round and re-solve, until the bounds meet. The bound is ONE
// guarded PB constraint per request — encoded objective + total*guard <=
// total + target, vacuous while the guard is unassumed — installed once
// and strengthened in place with sat.TightenPB as the target drops, so a
// tightening round allocates no solver variable and no constraint slot.
// The target schedule is adaptive: one probe just below the incumbent —
// the closing refutation when the first incumbent is already best — then
// binary-search midpoints (O(log range) rounds from arbitrarily bad
// incumbents) once that probe improves; a warm solver's saved phases can
// hand it a first model far above the optimum and, probed linearly, only
// the next model down each round. Guards are retired at request end
// (fixed false and their PB constraints garbage-collected), so bounds
// from past requests never constrain, slow down, or leak memory into
// future ones.
//
// Every request starts from a heuristic upper bound, as linear SAT–UNSAT
// search does: a greedy model priced by the request's objective seeds the
// solver's saved phases, and when verify — which reads only the universe
// — accepts it, it is the first incumbent, so the first solve is already
// the refutation below its cost. Lowering the objective also yields a
// cost floor, the sum over reached packages of each one's cheapest state
// (left out, or installed at its cheapest version; a root package
// installed at its cheapest version in range), which starts the lower
// bound. A seed priced at the floor is optimal with no solve call at all,
// which is the keep-everything answer of a minimal-change request:
// reusing every installed binary across a provider swap costs verify and
// a sum.
//
// The closure memo. A Session memoizes, per canonical root set, the
// roots' reachability closure — the reached packages in order and the
// reach set — which depends on no objective, so any request over known
// roots, a repeat or a new objective or installed profile, skips the
// reachability walk and materialization and lowers only its objective.
// Nothing per request shape is memoized below the answer store: a request
// that reaches a session is solved in full, seed and descent, whether or
// not the session has seen its shape before.
//
// Live universes. Session.Extend (extend.go) applies a repo.Delta to the
// bound universe and grows the materialized encoding in place, by the
// same two rules and the same growth routine a request's materialization
// uses — new variables and clauses are appended, dependency clauses on a
// grown target (a dead target's included) are detached and re-emitted
// over the current candidates, and support literals gain clauses for the
// new candidates — instead of rebuilding the session.
// Learnt clauses are dropped when a delta touches a materialized package
// (widening invalidates them), while VSIDS activity and saved phases
// persist; packages no request reached wait for the first request that
// does. A version the solver already fixed false at the top level cannot
// be revived in place: a delta that makes one buildable again resets the
// session's encoding, and requests re-materialize what they reach.
// Invalidation of the closure memo and the answer store is delta-scoped,
// by one rule: each entry records the names its request could reach, and
// only entries intersecting the delta's touched set fall (the memo drops
// them, the store marks them stale), so a request untouched by a delta
// keeps its stored answer with zero new solver work.
// Stats.Epoch reports the universe epoch an answer was computed at.
package concretize

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/sat"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// VirtualPrefix is the explicit namespace prefix for roots that must name a
// virtual ("virtual:mpi@2:"). A bare name resolves package-first, then
// virtual; the prefix skips the package namespace entirely.
const VirtualPrefix = "virtual:"

// Root is one requested target with a version constraint. The target is a
// package name or — when Virtual is set, or when the bare name only exists
// as a virtual — a virtual name satisfied by any provider whose provided
// version lies in Range.
type Root struct {
	Pkg     string
	Range   version.Range
	Virtual bool // explicit virtual: namespace; the name must be a virtual
}

// ParseRoot parses a spec-like request string: "zlib" (any version),
// "zlib@1.2" (prefix constraint), "zlib@1.2:1.4" (range), or the virtual
// namespace form "virtual:mpi@2:" (any provider providing mpi at 2 or
// newer).
func ParseRoot(s string) (Root, error) {
	name, rng, found := strings.Cut(s, "@")
	virtual := false
	if rest, ok := strings.CutPrefix(name, VirtualPrefix); ok {
		virtual = true
		name = rest
	}
	if name == "" {
		return Root{}, fmt.Errorf("concretize: empty package name in root %q", s)
	}
	if !found {
		return Root{Pkg: name, Range: version.AnyRange, Virtual: virtual}, nil
	}
	r, err := version.ParseRange(rng)
	if err != nil {
		return Root{}, fmt.Errorf("concretize: root %q: %w", s, err)
	}
	return Root{Pkg: name, Range: r, Virtual: virtual}, nil
}

// MustParseRoot is ParseRoot but panics on error; intended for tests.
func MustParseRoot(s string) Root {
	r, err := ParseRoot(s)
	if err != nil {
		panic(err)
	}
	return r
}

// String renders the root in the spec syntax ParseRoot accepts: bare
// target name for an unconstrained root, "pkg@range" otherwise, with the
// "virtual:" prefix when the root is namespaced.
func (r Root) String() string {
	name := r.Pkg
	if r.Virtual {
		name = VirtualPrefix + name
	}
	if r.Range.IsAny() {
		return name
	}
	return name + "@" + r.Range.String()
}

// key renders the root's canonical identity: the activation-memo and
// shape-key component. Unlike String it always includes the range,
// so "pkg" and "pkg@:" (identical constraints) share one key.
func (r Root) key() string {
	name := r.Pkg
	if r.Virtual {
		name = VirtualPrefix + name
	}
	return name + "@" + r.Range.String()
}

// Options tunes the concretization search.
type Options struct {
	// MaxConflicts bounds the number of solver conflicts spent on this
	// request across all branch-and-bound iterations; <= 0 means unbounded.
	MaxConflicts int64

	// Objective ranks satisfying resolutions; nil selects DefaultObjective
	// (NewestVersion). Objectives with different Keys never share cached
	// answers.
	Objective Objective
}

// Stats reports search effort for one resolution request.
type Stats struct {
	Packages  int // reachable packages in the request
	Variables int // solver variables allocated (session-wide)
	// SolveCalls counts SAT solve invocations, including the final UNSAT
	// proof. It is 0 when the request's seed, accepted by verify, costs
	// the shape's cost floor, which proves it optimal without the solver.
	SolveCalls int
	// Improvements counts incumbents: the first one — the seed when
	// verify accepts it, else the first model — plus each strict
	// improvement.
	Improvements int
	Cost         int64 // objective value of the returned resolution
	Optimal      bool  // false only when the conflict budget expired early

	// SolutionCacheHit marks answers served from a backend's answer store
	// (Answers) without touching any session. It makes churn-invalidation
	// behavior observable: after a delta, untouched shapes keep reporting
	// hits while touched shapes re-solve.
	SolutionCacheHit bool

	// Coalesced marks an answer shared from another request's in-flight
	// solve. The concretizer never sets it: it belongs to serving tiers
	// (serve.Server) that collapse identical concurrent requests onto one
	// leader solve and stamp each follower's copy.
	Coalesced bool

	// Epoch is the universe epoch the answer was computed at (0 for a
	// never-mutated universe). Cached answers report the epoch they were
	// solved at, which delta-scoped invalidation guarantees is still
	// semantically current for their request shape.
	Epoch repo.Epoch

	Conflicts    int64
	Decisions    int64
	Propagations int64
}

// Resolution is a concrete assignment of versions to installed packages.
type Resolution struct {
	Picks map[string]version.Version
	Stats Stats

	// reach is the solved shape's reach set (see closure), which
	// Answers.Put files with the answer for delta-scoped invalidation.
	reach map[string]bool
}

// ErrUnsatisfiable is the sentinel matched (via errors.Is) by every
// *UnsatError; keep matching against it rather than the concrete type when
// only the yes/no answer matters.
var ErrUnsatisfiable = errors.New("concretize: unsatisfiable")

// ErrBudget is returned (wrapped) when the conflict budget expires before
// any model is found. If a model was already found, the request instead
// returns it with Stats.Optimal == false.
var ErrBudget = errors.New("concretize: conflict budget exhausted")

// UnsatError reports that no assignment satisfies the request, carrying
// the roots that were proven incompatible so serving layers can surface
// which request failed without string-parsing. It matches ErrUnsatisfiable
// under errors.Is.
type UnsatError struct {
	Roots []Root

	// reach is set on a session's proof (see Resolution.reach).
	reach map[string]bool
}

// Error implements error.
func (e *UnsatError) Error() string {
	return "concretize: unsatisfiable: roots " + rootsString(e.Roots)
}

// Is reports sentinel equivalence: errors.Is(err, ErrUnsatisfiable)
// matches any *UnsatError.
func (e *UnsatError) Is(target error) bool { return target == ErrUnsatisfiable }

// unsatError builds an *UnsatError owning a copy of the roots.
func unsatError(roots []Root) error {
	return &UnsatError{Roots: append([]Root(nil), roots...)}
}

// UnknownPackageError reports a request root naming a target the universe
// does not carry: neither a concrete package nor a virtual with a provider
// (or, for an explicit "virtual:" root, not a virtual). It is a request
// error, distinct from unsatisfiability, and is never cached.
type UnknownPackageError struct {
	Pkg     string
	Virtual bool // the root used the explicit virtual: namespace
}

// Error implements error.
func (e *UnknownPackageError) Error() string {
	if e.Virtual {
		return fmt.Sprintf("concretize: unknown virtual %q", e.Pkg)
	}
	return fmt.Sprintf("concretize: unknown package %q", e.Pkg)
}

// canceledError wraps the request context's error (context.Canceled or
// context.DeadlineExceeded pass through errors.Is) after an interrupted
// solve.
func canceledError(err error) error {
	return fmt.Errorf("concretize: request canceled: %w", err)
}

// pkgVars holds the solver variables for one encoded package, plus the
// handles to the clauses Extend re-emits when the package
// gains versions: the y_p -> OR_v x_{p,v} disjunction and the at-most-one
// PB row, both widened by detach (remove) + re-add.
type pkgVars struct {
	pkg       *repo.Package
	installed int   // y_p
	vers      []int // x_{p,v}, parallel to pkg.Versions() (newest first)

	orRef  sat.ClauseRef // y_p -> OR_v x_{p,v}
	amoRef sat.PBRef     // at-most-one over vers (zero when < 2 versions)
}

// virtVars holds the solver variables for one encoded virtual: the "needed"
// variable backing provider-selection clauses and root activations, plus
// the handle to the provider-selection clause for widening.
type virtVars struct {
	needed int           // y_virt
	selRef sat.ClauseRef // y_virt -> OR providers
}

// rootCandidates is the single place root namespace rules live: a bare
// name resolves package-first and falls back to the virtual namespace, an
// explicit virtual: root must name a virtual, and in either case only
// candidates whose matched version lies in the root's range can satisfy
// it. Every root consumer — the reachability walk, the activation encoder,
// and objective root weighting — resolves through this helper, so the
// layers cannot drift on which concrete packages a root may bind to. ok is
// false when the universe knows the name in no namespace the root may use;
// a known name whose range matches nothing returns an empty (satisfiable-
// by-nothing, i.e. unsatisfiable) candidate set with ok true.
func rootCandidates(u *repo.Universe, r Root) ([]repo.Candidate, bool) {
	if r.Virtual && !u.IsVirtual(r.Pkg) {
		return nil, false
	}
	cands, ok := u.Candidates(r.Pkg)
	if !ok {
		return nil, false
	}
	out := make([]repo.Candidate, 0, len(cands))
	for _, c := range cands {
		if r.Range.Satisfies(c.Matched) {
			out = append(out, c)
		}
	}
	return out, true
}

// rootTargets resolves a root to the concrete package names it can
// install: the package itself, or the providers of a virtual able to
// satisfy the root's range. Unknown targets return a typed
// *UnknownPackageError.
func rootTargets(u *repo.Universe, r Root) ([]string, error) {
	cands, ok := rootCandidates(u, r)
	if !ok {
		return nil, &UnknownPackageError{Pkg: r.Pkg, Virtual: r.Virtual}
	}
	names := make([]string, 0, len(cands))
	for _, c := range cands { // canonical order: grouped by package name
		if len(names) == 0 || names[len(names)-1] != c.Pkg {
			names = append(names, c.Pkg)
		}
	}
	return names, nil
}

// reachable collects every package reachable from the roots through any
// version's dependencies (a conservative over-approximation: version choice
// can only shrink the installed set). Virtual edges traverse to every
// provider; conditional dependencies traverse regardless of their trigger
// (a trigger can only deactivate a dependency, never add targets). Trigger
// packages themselves are not traversed: a trigger outside the reachable
// set can never be installed, so the declarations it guards stay dormant.
// The order scopes a request's objective and decoded picks.
//
// The second result is the request shape's recorded reach set — the name
// universe whose growth can change this shape's answer, which delta-scoped
// invalidation intersects with each delta's touched names. It holds the
// reachable packages plus every name a traversed dependency or root
// targets, even when the name currently matches nothing (an unknown or
// empty-range target: a delta adding it must invalidate). Conflict targets
// and condition triggers are deliberately absent: a trigger or conflict
// candidate outside the reach set can never be installed in a
// cost-relevant model (every optimal model extends with the complement
// uninstalled), so growth there cannot change the shape's answer.
func reachable(u *repo.Universe, roots []Root) ([]string, map[string]bool, error) {
	var order []string
	seen := map[string]bool{}
	reach := map[string]bool{}
	var queue []string
	enqueue := func(pkgs []string) {
		for _, name := range pkgs {
			reach[name] = true
			if !seen[name] {
				seen[name] = true
				queue = append(queue, name)
			}
		}
	}
	for _, r := range roots {
		reach[r.Pkg] = true // a delta growing the root's own name must invalidate
		targets, err := rootTargets(u, r)
		if err != nil {
			return nil, nil, err
		}
		enqueue(targets)
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		order = append(order, name)
		p, _ := u.Package(name)
		for _, def := range p.Versions() {
			for _, d := range def.Deps {
				// Unknown targets are encoded as unbuildable versions and
				// contribute nothing to the closure (TargetPackages is nil) —
				// but they are recorded: a delta introducing the name revives
				// the dependency and must invalidate this shape.
				reach[d.Pkg] = true
				enqueue(u.TargetPackages(d.Pkg))
			}
		}
	}
	return order, reach, nil
}

// pickSatisfies reports whether the picks contain a selection satisfying a
// requirement on name at rng: the package itself at a version in rng, or —
// for a virtual — any picked provider whose provided version lies in rng.
// It runs per declaration on every verified resolution, so the concrete
// case is a plain map lookup and the virtual case walks the universe-owned
// provider index without allocating.
func pickSatisfies(u *repo.Universe, picks map[string]version.Version, name string, rng version.Range) bool {
	if _, ok := u.Package(name); ok {
		v, picked := picks[name]
		return picked && rng.Satisfies(v)
	}
	provs, ok := u.Virtual(name)
	if !ok {
		return false
	}
	for _, pr := range provs {
		if v, picked := picks[pr.Pkg]; picked && v.Equal(pr.Version) && rng.Satisfies(pr.Provided) {
			return true
		}
	}
	return false
}

// condActive reports whether a declaration's condition holds under the
// picks (true for the unconditional zero Condition).
func condActive(u *repo.Universe, picks map[string]version.Version, w repo.Condition) bool {
	if w.IsZero() {
		return true
	}
	return pickSatisfies(u, picks, w.Pkg, w.Range)
}

// verify cross-checks a decoded resolution directly against the universe,
// independently of the SAT encoding: roots (package or virtual) must be
// satisfied, every active dependency of every pick must be satisfied by a
// candidate, and no active conflict may hold. Any violation indicates an
// encoder or solver bug and is returned as an internal error.
func verify(u *repo.Universe, roots []Root, picks map[string]version.Version) error {
	for _, r := range roots {
		if !pickSatisfies(u, picks, r.Pkg, r.Range) {
			return fmt.Errorf("concretize: internal error: root %s not satisfied", r)
		}
	}
	for name, v := range picks {
		p, ok := u.Package(name)
		if !ok {
			return fmt.Errorf("concretize: internal error: picked unknown package %s", name)
		}
		var def *repo.VersionDef
		for i := range p.Versions() {
			if p.Versions()[i].Version.Equal(v) {
				def = &p.Versions()[i]
				break
			}
		}
		if def == nil {
			return fmt.Errorf("concretize: internal error: %s@%s not in universe", name, v)
		}
		for _, d := range def.Deps {
			if !condActive(u, picks, d.When) {
				continue
			}
			if !pickSatisfies(u, picks, d.Pkg, d.Range) {
				return fmt.Errorf("concretize: internal error: %s@%s needs %s@%s %s, unsatisfied",
					name, v, d.Pkg, d.Range, d.When)
			}
		}
		for _, c := range def.Conflicts {
			if !condActive(u, picks, c.When) {
				continue
			}
			if pickSatisfies(u, picks, c.Pkg, c.Range) {
				return fmt.Errorf("concretize: internal error: %s@%s conflicts with installed %s@%s %s",
					name, v, c.Pkg, c.Range, c.When)
			}
		}
	}
	return nil
}

// Concretize is the one-shot convenience wrapper around the resolution
// stack: it resolves the requested roots against the universe under
// context.Background and the request's objective (DefaultObjective when
// opts.Objective is nil), then discards all solver state. It returns a
// *UnsatError when no assignment exists and wraps ErrBudget when the
// conflict budget expires before any model is found; a budget expiring
// after a model was found returns that model with Stats.Optimal == false.
//
// Internally this is the cold path: one one-shot Session. A Session materializes only what the request
// reaches, so cost tracks the request rather than the catalog, and there
// is exactly one encoder: the warm and cold paths cannot drift apart.
// Callers answering a stream of requests over the same universe should
// hold a Session — or, at the serving tier, a resolve.Resolver — instead;
// that is also the context-aware path (Session.Resolve), while this
// wrapper's only bound is the opts.MaxConflicts budget.
//
// goarxivlint:blocking cancel=none
func Concretize(u *repo.Universe, roots []Root, opts Options) (*Resolution, error) {
	return NewSession(u).Resolve(context.Background(), roots, opts)
}

func rootsString(roots []Root) string {
	parts := make([]string, len(roots))
	for i, r := range roots {
		parts[i] = r.String()
	}
	return strings.Join(parts, ", ")
}
