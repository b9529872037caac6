// Package resolve is the public serving surface of the concretizer: the
// top of the version -> repo -> sat -> concretize -> resolve stack. It
// answers "which concrete (package, version) set satisfies these roots,
// best, under this objective?" through one small interface — Resolver.
// Roots may name concrete packages or virtual interfaces ("virtual:mpi@2:",
// or a bare virtual name): a virtual root is satisfied by any provider
// whose provided version lies in the range, with the chosen provider
// weighed at root rank by the objective.
//
// The backend is PoolResolver, which shards requests across N
// identically-configured Sessions for throughput: shape-affine routing
// (hash of Request.Key) with work stealing, so distinct request shapes
// solve in parallel and repeats land on the shard already warm for them.
// Each shard materializes solver clauses only for the subgraphs its
// requests reach, so a pool over a catalog of thousands of packages
// carries formulas proportional to the working set, not the catalog. A
// pool of one shard, NewPoolResolver(u, 1, SessionOptions{}), is the
// single-session backend. Every shard runs one search configuration:
// negative-first branching, Luby restarts, and adaptive objective descent
// seeded by a greedy model priced by the request's objective, whose first
// model is nearly always optimal.
//
// The pool keeps one answer store (concretize.Answers) in front of its
// shards: a request it answers touches no shard, and every definitive
// answer a shard produces is filed there with the shard's name. It
// contains a panic at any shard boundary (solve, extension, rebuild) as a
// *PanicError and benches the shard instead of crashing, and heals benched
// shards with fresh sessions — inside the Apply broadcast for a failed
// extension, at the next Resolve entry after a solve panic or a failed
// rebuild, and through Rebuild, the operator override — bounded by a
// crashloop breaker (SetCrashLoopPolicy). It reports its state through
// Health and Snapshot.
//
// Warm requests are cheap twice over: beyond the answer store, each
// Session banks per-request-shape facts — the lowered objective and the
// proven lower bound on its optimal cost — so a repeat solve usually
// proves optimality without a single refutation round, and descent
// tightens one in-place pseudo-Boolean bound instead of allocating
// constraints per round.
//
// Requests are context-aware end to end: canceling the request context
// (or exceeding its deadline) interrupts in-flight solves promptly and
// leaves the pool reusable, which is what makes deadline-bounded serving
// safe.
//
// Universes are live: PoolResolver.Apply(repo.Delta) grows the shared
// universe by one epoch and extends every shard session's materialized
// encoding in place under a write barrier — no
// rebuild, and no in-flight request ever observes a half-applied delta. A
// delta that makes a dead version buildable again resets the encoding of
// each shard that had materialized it (EncodingStats.Resets counts them).
// Stored answers whose requests a delta cannot touch stay fresh; the
// others go stale, and are only ever served again as a degraded answer
// (LastGood). Result.Stats.Epoch reports the epoch each answer was
// computed at.
//
// Objectives are pluggable per request (NewestVersion by default,
// MinimalChange against an installed profile, or custom weights via
// concretize.ObjectiveFunc); failures are typed (*concretize.UnsatError,
// concretize.ErrBudget, the context's error on cancellation).
package resolve

import (
	"context"
	"fmt"

	"github.com/paper-repo-growth/go-arxiv/internal/concretize"
	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// Re-exported request vocabulary, so serving-tier callers assemble
// requests without importing the concretizer directly.
type (
	// Root is one requested package with a version constraint.
	Root = concretize.Root
	// Objective ranks satisfying resolutions; see concretize.Objective.
	Objective = concretize.Objective
	// Stats reports search effort for one request.
	Stats = concretize.Stats
	// ObjectiveFunc adapts a custom weight function into an Objective.
	ObjectiveFunc = concretize.ObjectiveFunc
	// ObjectiveRequest is the read-only context an Objective prices.
	ObjectiveRequest = concretize.ObjectiveRequest
	// PkgCost is one package's contribution to an objective.
	PkgCost = concretize.PkgCost
	// UnsatError reports a proven-unsatisfiable request, carrying its roots.
	UnsatError = concretize.UnsatError
	// UnknownPackageError reports a request root naming a target the
	// universe carries in neither namespace: not a concrete package and
	// not a virtual with a provider (or, for an explicit "virtual:" root,
	// not a virtual). It is a request error, distinct from
	// unsatisfiability.
	UnknownPackageError = concretize.UnknownPackageError
	// Delta is an append-only batch of universe growth (new packages,
	// versions, provides edges); build one with NewDelta and repo.Delta.Add,
	// then hand it to a resolver's Apply.
	Delta = repo.Delta
	// Epoch counts the deltas applied to a universe; Result.Stats.Epoch
	// reports the epoch an answer was computed at.
	Epoch = repo.Epoch
	// EncodingStats is a session's encoder-coverage snapshot: how much of
	// the bound universe the solver formula actually carries (the union of
	// subgraphs requests have reached, not the universe), and how often a
	// reviving delta reset the encoding.
	EncodingStats = concretize.EncodingStats
)

// NewDelta returns an empty delta ready for Add calls.
func NewDelta() *Delta { return repo.NewDelta() }

// MemberError attributes a failure: which pool shard produced the error
// and at what universe epoch. Every definitive unsat proof, stored or
// solved, wraps through it, so callers get the attribution Result.Config
// gives an answer; Unwrap keeps errors.Is(ErrUnsatisfiable) and
// errors.As(*UnsatError) matching the underlying taxonomy.
type MemberError struct {
	Member string
	Epoch  Epoch
	Err    error
}

func (e *MemberError) Error() string {
	return fmt.Sprintf("resolve: member %s (epoch %d): %v", e.Member, e.Epoch, e.Err)
}

func (e *MemberError) Unwrap() error { return e.Err }

// Typed failure taxonomy, re-exported so serving-tier callers match
// errors without importing the concretizer.
var (
	// ErrUnsatisfiable matches every *UnsatError via errors.Is.
	ErrUnsatisfiable = concretize.ErrUnsatisfiable
	// ErrBudget matches conflict-budget exhaustion before any model.
	ErrBudget = concretize.ErrBudget
)

// NewestVersion is the default objective: prefer newest versions, then
// fewer installed packages, roots first.
func NewestVersion() Objective { return concretize.NewestVersion{} }

// MinimalChange returns an objective minimizing churn against an
// installed profile; see concretize.MinimalChange.
func MinimalChange(installed repo.Profile) Objective { return concretize.MinimalChange(installed) }

// ParseRoot parses a spec-like request string ("zlib", "zlib@1.2",
// "zlib@1.2:1.4", or the virtual namespace form "virtual:mpi@2:") into a
// Root.
func ParseRoot(s string) (Root, error) { return concretize.ParseRoot(s) }

// Request is one resolution request.
type Request struct {
	// Roots are the targets (with version constraints) that must be
	// satisfied: concrete packages, or virtual names resolved to any
	// provider whose provided version lies in the range. Order and
	// duplicates are irrelevant.
	Roots []Root

	// Objective ranks satisfying resolutions; nil selects NewestVersion.
	Objective Objective

	// MaxConflicts bounds solver effort per backend solve; <= 0 means
	// unbounded. Prefer a context deadline for wall-clock bounds.
	MaxConflicts int64
}

// Key returns the request's canonical shape key: the objective's identity
// plus the canonicalized (sorted, deduplicated) roots. Two requests with
// equal keys are answer-identical against the same universe epoch — the
// property the answer store relies on internally, exported here so
// serving tiers can coalesce identical in-flight requests to one solve and
// read a shape's last good answer (LastGood).
// MaxConflicts is deliberately excluded: budget is an effort cap, not part
// of the request's meaning (serving tiers that let clients pick budgets
// should qualify their coalescing key with it).
func (req Request) Key() string {
	return concretize.ShapeKey(req.Objective, req.Roots)
}

// Result is a concrete resolution: the picks, the effort spent producing
// them, and which shard produced them.
type Result struct {
	// Picks maps each installed package to its chosen version. The map is
	// owned by the caller.
	Picks map[string]version.Version

	// Stats reports the solving shard's search effort.
	Stats Stats

	// Config names the pool shard that solved the answer ("pool/3"), also
	// when the answer store served it.
	Config string
}

// Resolver answers resolution requests. Implementations are safe for
// concurrent use and honor ctx cancellation and deadlines promptly
// without poisoning internal state.
type Resolver interface {
	// Resolve blocks for up to a full solve; cancel through ctx.
	//
	// goarxivlint:blocking
	Resolve(ctx context.Context, req Request) (*Result, error)
}
