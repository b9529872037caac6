package concretize

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/sat"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// DefaultSessionCacheSize is the solution-cache capacity used when
// SessionOptions.CacheSize is zero.
const DefaultSessionCacheSize = 1024

// DefaultSessionMaxActivations is the activation-literal capacity used
// when SessionOptions.MaxActivations is zero.
const DefaultSessionMaxActivations = 4096

// SessionOptions tunes a Session.
type SessionOptions struct {
	// CacheSize bounds the number of memoized resolutions (LRU eviction).
	// Zero selects DefaultSessionCacheSize; a negative value disables the
	// cache entirely, so every request runs the solver.
	CacheSize int

	// MaxActivations bounds the number of memoized root-activation
	// literals (LRU eviction; evicted activations are fixed false in the
	// solver and re-allocated on demand, so diverse request streams cannot
	// grow solver variables without bound). Zero selects
	// DefaultSessionMaxActivations; a negative value means unbounded.
	MaxActivations int

	// Lazy defers clause materialization to first reach: the session
	// encodes nothing at construction and lowers each package (variables,
	// selection structure, requirement clauses, trigger plumbing) the
	// first time any request's reachability walk touches it, sharing the
	// materialized subgraph with every later request. Solver size then
	// tracks what requests actually reach instead of what the universe
	// contains — the only mode that scales to registry-sized universes
	// (see SynthRegistry), at the cost of a small first-touch encode per
	// novel subgraph. Answers are identical to an eager session's (pinned
	// by the lazy-vs-eager differential harness). Ignored by the
	// request-scoped sessions Concretize builds internally, which already
	// scope their skeleton to one request.
	Lazy bool

	// Solver tunes the underlying SAT search (branching polarity, restart
	// schedule, objective-descent step). The zero value selects the
	// defaults; differently-tuned Sessions return cost-identical answers,
	// which is what lets a portfolio race them. See sat.Config.
	Solver sat.Config
}

// Session is a reusable concretization handle bound to one universe: the
// warm path of the resolver. Creating a Session encodes the CNF skeleton
// for the whole universe exactly once; each Resolve call then activates its
// roots through assumption literals and runs branch-and-bound on the shared
// solver, so learnt clauses, VSIDS activity, and saved phases accumulate
// across requests instead of being rebuilt and discarded per call. Optimal
// answers (and definitive unsatisfiability) are memoized in an LRU keyed by
// the canonical request shape (objective key + canonicalized roots), so
// repeat requests are answered without touching the solver at all. Beneath
// the answer cache, a bound memo banks each request shape's lowered
// objective and proven lower bound, so even cache-disabled repeat solves
// skip the objective lowering and usually skip the closing optimality
// refutation.
//
// A live universe grows through Session.Extend (see extend.go): the
// skeleton is widened in place and only the cache/memo entries whose
// recorded reach set intersects the delta are invalidated, which is what
// keeps shape keys (rather than fingerprint-qualified keys) sound across
// epochs.
//
// A Session is safe for concurrent use: cache lookups take a read lock and
// solver access is serialized. The universe must not be mutated behind the
// session's back — growth arrives only via Extend (or, for a shared
// universe, via a sibling session's Extend between this session's own
// Extend calls; see the epoch contract on Extend).
type Session struct {
	u     *repo.Universe
	epoch repo.Epoch // universe epoch the skeleton reflects (guarded by mu)
	full  bool       // skeleton covers the whole universe (Extend requires it)
	lazy  bool       // materialize on first reach (immutable after construction)

	// epochA mirrors epoch for lock-free reads: serving tiers key request
	// coalescing on Epoch(), and an Epoch() that waited on mu would
	// serialize behind in-flight solves — exactly the requests coalescing
	// exists to collapse. Written under mu, read without.
	//
	// goarxivlint:lockfree
	epochA atomic.Uint64

	// Encoder-coverage mirrors for EncodingStats (written under mu at
	// every materialization point, read without — stats endpoints must
	// never queue behind an in-flight solve).
	//
	// goarxivlint:lockfree
	matPkgsA atomic.Int64
	// goarxivlint:lockfree
	uniPkgsA atomic.Int64
	// goarxivlint:lockfree
	matVarsA atomic.Int64

	// mu serializes all solver access (the encoding, activation literals,
	// and the branch-and-bound loop all mutate solver state).
	//
	// goarxivlint:lock
	mu      sync.Mutex
	solver  *sat.Solver
	vars    map[string]*pkgVars
	virts   map[string]*virtVars // encoded virtuals (provider in scope)
	acts    map[string]*list.Element
	actsLRU *list.List // of *actEntry, most-recently-used first
	actsMax int

	// Requirement lowering state, all keyed by "name@range" with a
	// name-index alongside so a delta touching a name finds every affected
	// key without scanning:
	//
	//   - defs: requirement keys recording every dependency site whose
	//     inlined clause (xi [AND z] -> OR matching-candidates) mentions the
	//     key's candidate set. Most keys have exactly one user, so the
	//     clause is emitted directly (no shared indirection literal); a
	//     delta that widens the candidate set detaches each user's clause
	//     and re-runs its declaration.
	//   - sups: support literals z with x_c -> z per matching candidate,
	//     used for condition triggers and (negated) for conflict targets.
	//     Widening is purely additive: new support clauses for new
	//     candidates.
	//   - pendingByName: declarations currently unemittable (dormant
	//     trigger, empty dependency target, vacuous conflict) parked under
	//     the name whose growth would change them.
	defs          map[string]*reqDef
	defsByName    map[string][]string
	sups          map[string]*supEntry
	supsByName    map[string][]string
	pendingByName map[string][]declSite

	// bounds memoizes per-request-shape solve facts that stay valid for
	// the session's lifetime: the reachability order, the lowered
	// objective terms, and — the warm-path keystone — the proven lower
	// bound on the optimal cost. Guarded by mu.
	bounds *lru[*boundEntry]

	// Per-request scratch reused across Resolve calls (guarded by mu):
	// assumption literals, the guarded PB term copy handed to the solver,
	// and the pinned-activation / root-by-part lookups.
	assumpsBuf []sat.Lit
	termsBuf   []sat.PBTerm
	pinnedBuf  map[sat.Lit]bool
	byPartBuf  map[string]Root

	cacheMu sync.RWMutex
	cache   *lru[cacheEntry] // nil when disabled
}

// actEntry is one memoized root-activation literal. target is the root's
// requested name (package or virtual): a delta touching it evicts the
// activation, whose candidate clauses are stale.
type actEntry struct {
	key    string
	target string
	lit    sat.Lit
}

// declID names one declaration — the idx'th dependency or conflict of
// (pkg, ver) — stably across delta-driven index shifts and variable
// reallocation. The encoder re-fetches the declaration and the version's
// current variable through it whenever a parked or widened declaration is
// re-emitted.
type declID struct {
	pkg      string
	ver      version.Version
	conflict bool
	idx      int
}

// declSite is a declaration occurrence with the clause it emitted (zero
// when nothing was emitted): a def usage, or a parked pending entry whose
// pruning clause must be detached on revival.
type declSite struct {
	id  declID
	ref sat.ClauseRef
}

// reqDef is one shared requirement key "name@range": users records every
// dependency site whose requirement clause (xi [AND trigger] -> OR
// matching candidates) was emitted against the key, each with the
// ClauseRef of its inlined clause. When a delta grows the key's candidate
// set, Extend detaches each user's clause and re-runs the declaration so
// the clause is re-emitted over the current candidates.
type reqDef struct {
	name  string
	rng   version.Range
	users []declSite
}

// supEntry is one support key "name@range": lit is forced true whenever a
// matching candidate is selected (x_c -> lit per candidate in seen).
// Widening only ever adds support clauses, so no refs are needed.
type supEntry struct {
	name string
	rng  version.Range
	lit  sat.Lit
	seen map[sat.Lit]bool
}

// NewSession encodes the universe's CNF skeleton and returns a warm handle
// for resolving requests against it.
func NewSession(u *repo.Universe, opts SessionOptions) *Session {
	return newSession(u, u.Names(), opts, true)
}

// newSession builds a session whose skeleton covers only the given
// packages (sorted). Concretize uses this to scope its one-shot session to
// the request's reachable set, so cold-path cost tracks the request, not
// the catalog. full marks a whole-universe session eligible for Extend;
// request-scoped sessions skip the Extend-only site bookkeeping.
func newSession(u *repo.Universe, names []string, opts SessionOptions, full bool) *Session {
	se := &Session{
		u:             u,
		full:          full,
		epoch:         u.Epoch(),
		solver:        sat.NewWithConfig(opts.Solver),
		vars:          make(map[string]*pkgVars),
		virts:         make(map[string]*virtVars),
		defs:          make(map[string]*reqDef),
		defsByName:    make(map[string][]string),
		sups:          make(map[string]*supEntry),
		supsByName:    make(map[string][]string),
		pendingByName: make(map[string][]declSite),
		acts:          make(map[string]*list.Element),
		actsLRU:       list.New(),
		actsMax:       opts.MaxActivations,
		pinnedBuf:     make(map[sat.Lit]bool),
		byPartBuf:     make(map[string]Root),
	}
	se.epochA.Store(uint64(se.epoch))
	if se.actsMax == 0 {
		se.actsMax = DefaultSessionMaxActivations
	}
	// The bound memo shares the activation memo's capacity policy: both
	// grow with the number of distinct request shapes a session serves.
	se.bounds = newLRU[*boundEntry](se.actsMax)
	size := opts.CacheSize
	if size == 0 {
		size = DefaultSessionCacheSize
	}
	if size > 0 {
		se.cache = newLRU[cacheEntry](size)
	}
	// Lazy sessions materialize per reachable subgraph on first touch (see
	// lazy.go); only full-universe sessions qualify — Concretize's
	// request-scoped sessions already cut their skeleton to one closure.
	se.lazy = opts.Lazy && full
	if !se.lazy {
		se.encodeSkeleton(names)
	}
	se.syncEncodingStats()
	return se
}

// Fingerprint returns the content hash of the bound universe at its
// current epoch (memoized by the universe; delta-chained on live
// universes). Cache keys no longer embed it — delta-scoped invalidation
// keeps shape-keyed entries sound — but it remains the external identity
// of what the session is solving against.
func (se *Session) Fingerprint() string {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.u.Fingerprint()
}

// Epoch returns the universe epoch the session's skeleton currently
// reflects. It never blocks — in particular not on an in-flight solve —
// so serving tiers can read it on every request to qualify coalescing
// keys.
//
// goarxivlint:lockfree
func (se *Session) Epoch() repo.Epoch {
	return repo.Epoch(se.epochA.Load())
}

// CacheLen returns the number of memoized resolutions currently held.
func (se *Session) CacheLen() int {
	if se.cache == nil {
		return 0
	}
	se.cacheMu.RLock()
	defer se.cacheMu.RUnlock()
	return se.cache.len()
}

// HasCached reports whether the solution cache currently holds a
// definitive answer for the request-shape key (see ShapeKey). It takes
// only the cache lock — never the session lock — so routing tiers can
// probe every member of a session pool without queuing behind in-flight
// solves. The answer is advisory: a concurrent eviction can invalidate it
// before the probing request lands, which costs that request a solve,
// never its correctness.
func (se *Session) HasCached(key string) bool {
	if se.cache == nil {
		return false
	}
	se.cacheMu.RLock()
	defer se.cacheMu.RUnlock()
	_, ok := se.cache.peek(key)
	return ok
}

// encodeSkeleton lowers the given packages into the solver once, in sorted
// package order: installed/version variables, selection structure,
// exactly-one constraints, virtual provider-selection clauses, and the
// dependency/conflict requirements — conditional ones guarded behind their
// trigger literals. Roots are deliberately absent — they arrive per request
// as assumption literals — so the skeleton with no assumptions is trivially
// satisfiable (install nothing) and the solver can never be poisoned into a
// top-level conflict. The name set must be dependency-closed (all of the
// universe, or a reachability closure, which traverses virtual and
// conditional edges): a requirement on a name wholly outside it is encoded
// as unbuildable (dependencies) or vacuous (conflicts and triggers —
// nothing outside the closure can ever be installed).
func (se *Session) encodeSkeleton(names []string) {
	for _, name := range names {
		se.encodePackage(name)
	}

	// Virtual "needed" variables with provider-selection clauses:
	// y_virt -> OR {x_{q,w} : (q,w) in scope provides virt}. Virtuals with
	// no in-scope provider stay unencoded; requirements on them lower to
	// empty candidate sets below.
	for _, virt := range se.u.VirtualNames() {
		se.encodeVirtual(virt)
	}

	// Requirements per (package, version): dependencies and conflicts,
	// both lowered through the same candidate enumeration and trigger
	// guarding.
	for _, name := range names {
		pv := se.vars[name]
		for i := range pv.pkg.Versions() {
			se.encodeVersionReqs(pv, i)
		}
	}
}

// encodePackage allocates the installed/version variables for one package
// and emits its selection structure (x -> y implications, the y -> OR x
// disjunction, the at-most-one row).
func (se *Session) encodePackage(name string) *pkgVars {
	s := se.solver
	p, _ := se.u.Package(name)
	pv := &pkgVars{pkg: p, installed: s.NewVar()}
	for range p.Versions() {
		pv.vers = append(pv.vers, s.NewVar())
	}
	se.vars[name] = pv
	for _, x := range pv.vers {
		s.AddClause(sat.Lit(x).Neg(), sat.Lit(pv.installed))
	}
	se.emitPackageStructure(pv)
	return pv
}

// emitPackageStructure (re-)emits the widenable per-package constraints:
// y_p -> OR_v x_{p,v} and the at-most-one PB row over the versions. On
// re-emission (a delta grew pv.vers) the previous clause is detached and
// the previous row removed first; both handles are refreshed.
func (se *Session) emitPackageStructure(pv *pkgVars) {
	s := se.solver
	s.DetachClause(pv.orRef)
	or := make([]sat.Lit, 0, len(pv.vers)+1)
	or = append(or, sat.Lit(pv.installed).Neg())
	for _, x := range pv.vers {
		or = append(or, sat.Lit(x))
	}
	pv.orRef, _ = s.AddClauseRef(or...)

	s.RemovePB(pv.amoRef)
	pv.amoRef = sat.PBRef{}
	if len(pv.vers) > 1 {
		terms := make([]sat.PBTerm, len(pv.vers))
		for i, x := range pv.vers {
			terms[i] = sat.PBTerm{Lit: sat.Lit(x), Weight: 1}
		}
		pv.amoRef, _ = s.AddPBRef(terms, 1)
	}
}

// encodeVirtual allocates the "needed" variable and provider-selection
// clause for a virtual, when it has at least one in-scope provider.
func (se *Session) encodeVirtual(virt string) {
	cands := se.scopedCandidates(virt)
	if len(cands) == 0 {
		return
	}
	vv := &virtVars{needed: se.solver.NewVar()}
	se.virts[virt] = vv
	se.emitVirtualSelection(vv, cands)
}

// emitVirtualSelection (re-)emits y_virt -> OR providers, detaching the
// previous clause on widening.
func (se *Session) emitVirtualSelection(vv *virtVars, cands []repo.Candidate) {
	s := se.solver
	s.DetachClause(vv.selRef)
	sel := make([]sat.Lit, 0, len(cands)+1)
	sel = append(sel, sat.Lit(vv.needed).Neg())
	for _, c := range cands {
		sel = append(sel, sat.Lit(se.vars[c.Pkg].vers[c.Index]))
	}
	vv.selRef, _ = s.AddClauseRef(sel...)
}

// encodeVersionReqs lowers every dependency and conflict of version i of
// pv's package through addRequirement.
func (se *Session) encodeVersionReqs(pv *pkgVars, i int) {
	defs := pv.pkg.Versions()
	def := &defs[i]
	xi := sat.Lit(pv.vers[i])
	for j := range def.Deps {
		d := &def.Deps[j]
		se.addRequirement(xi, declID{pkg: pv.pkg.Name, ver: def.Version, idx: j}, d.When, d.Pkg, d.Range, false)
	}
	for j := range def.Conflicts {
		c := &def.Conflicts[j]
		se.addRequirement(xi, declID{pkg: pv.pkg.Name, ver: def.Version, conflict: true, idx: j}, c.When, c.Pkg, c.Range, true)
	}
}

// scopedCandidates enumerates the candidates for a requirement target that
// the session's skeleton actually carries variables for. Out-of-scope
// providers of a virtual are dropped: the reachability closure pulls in
// every provider of any dependency target, so a dropped provider can only
// belong to a conflict or trigger target — and those are vacuous for
// packages that can never be installed.
func (se *Session) scopedCandidates(name string) []repo.Candidate {
	cands, ok := se.u.Candidates(name)
	if !ok {
		return nil
	}
	inScope := cands[:0:0]
	for _, c := range cands {
		if _, ok := se.vars[c.Pkg]; ok {
			inScope = append(inScope, c)
		}
	}
	return inScope
}

// supportLit returns the memoized support literal for "name@rng": a
// variable z with x_c -> z for every in-scope candidate c of name inside
// rng, so z is forced true exactly when some model selection matches the
// key (and is free — never forced — otherwise, keeping clauses guarded on
// z vacuous in models that avoid it). Condition triggers use z directly;
// conflict targets use !z (a spurious true assignment to an unforced z
// only prunes a branch the solver could take anyway, so projecting any
// model onto the package variables stays sound). ok is false when no
// candidate matches yet: the key is dormant and unregistered, and a later
// delta that makes it matchable re-runs the parked declaration, which
// re-requests the key. Widening a live key is purely additive — new
// support clauses for new candidates — so no clause refs are kept.
func (se *Session) supportLit(name string, rng version.Range) (sat.Lit, bool) {
	key := name + "@" + rng.String()
	if en, ok := se.sups[key]; ok {
		return en.lit, true
	}
	var support []sat.Lit
	for _, c := range se.scopedCandidates(name) {
		if rng.Satisfies(c.Matched) {
			support = append(support, sat.Lit(se.vars[c.Pkg].vers[c.Index]))
		}
	}
	if len(support) == 0 {
		return 0, false
	}
	z := sat.Lit(se.solver.NewAuxVar())
	en := &supEntry{name: name, rng: rng, lit: z, seen: make(map[sat.Lit]bool, len(support))}
	for _, x := range support {
		se.solver.AddClause(x.Neg(), z)
		en.seen[x] = true
	}
	se.sups[key] = en
	if se.full {
		se.supsByName[name] = append(se.supsByName[name], key)
	}
	return z, true
}

// defEntry returns the memoized requirement-key entry for "name@rng",
// registering it on first use. The entry carries no solver state of its
// own: each dependency on the key emits its requirement clause directly
// (candidates inlined — the propagation-cheapest form) and records its
// ref-tracked site under users, so a delta that widens the candidate set
// finds every affected clause by key and re-emits it.
func (se *Session) defEntry(name string, rng version.Range) *reqDef {
	key := name + "@" + rng.String()
	if de, ok := se.defs[key]; ok {
		return de
	}
	de := &reqDef{name: name, rng: rng}
	se.defs[key] = de
	se.defsByName[name] = append(se.defsByName[name], key)
	return de
}

// addPending parks a declaration that currently lowers to nothing emittable
// (dormant trigger, dead dependency target, vacuous conflict) under the
// name whose growth would change it. Extend re-runs parked declarations
// when that name is touched; request-scoped sessions never Extend, so they
// skip the bookkeeping.
func (se *Session) addPending(name string, site declSite) {
	if !se.full {
		return
	}
	se.pendingByName[name] = append(se.pendingByName[name], site)
}

// addRequirement emits the clauses for one dependency or conflict of the
// version literal xi, guarded by its condition: for a dependency,
// xi AND z -> OR {x_c : candidate c of target inside rng} (an empty
// candidate set makes xi unbuildable whenever the trigger holds); for a
// conflict, xi AND z -> !z_target. This is the one code path every
// declaration kind lowers through — concrete and virtual targets differ
// only in what Candidates enumerates — and the one Extend re-runs for
// parked, widened, or revived declarations, which is why it takes the
// declaration's stable identity rather than borrowing state from its
// caller.
func (se *Session) addRequirement(xi sat.Lit, id declID, when repo.Condition, target string, rng version.Range, conflict bool) {
	var z sat.Lit
	if !when.IsZero() {
		var live bool
		z, live = se.supportLit(when.Pkg, when.Range)
		if !live {
			// The trigger can never fire yet: dormant, parked under the
			// trigger's name.
			se.addPending(when.Pkg, declSite{id: id})
			return
		}
	}
	guard := func(lits ...sat.Lit) []sat.Lit {
		out := make([]sat.Lit, 0, len(lits)+3)
		out = append(out, xi.Neg())
		if z != 0 {
			out = append(out, z.Neg())
		}
		return append(out, lits...)
	}
	if conflict {
		zt, live := se.supportLit(target, rng)
		if !live {
			// Nothing matching can be installed: vacuous, parked under the
			// target's name.
			se.addPending(target, declSite{id: id})
			return
		}
		se.solver.AddClause(guard(zt.Neg())...)
		return
	}
	matching := se.matchingLits(target, rng)
	if len(matching) == 0 {
		// Dead target: xi is unbuildable (under the trigger) until a delta
		// grows the target; the pruning clause is parked with the
		// declaration so revival can detach it.
		ref, _ := se.solver.AddClauseRef(guard()...)
		se.addPending(target, declSite{id: id, ref: ref})
		return
	}
	ref, _ := se.solver.AddClauseRef(guard(matching...)...)
	if se.full {
		de := se.defEntry(target, rng)
		de.users = append(de.users, declSite{id: id, ref: ref})
	}
}

// activation returns the assumption literal enforcing one root constraint,
// allocating it and its clauses on first use. The clauses are permanent
// implications (a -> installed/needed, a -> one allowed candidate), vacuous
// while a is unassumed, so repeat requests for the same root reuse both the
// literal and any clauses the solver learnt about it. Roots resolve through
// the same candidate enumeration as every other requirement: a package root
// activates its own versions, a virtual root activates the providers whose
// provided version lies in the range.
func (se *Session) activation(r Root) sat.Lit {
	key := r.key()
	if el, ok := se.acts[key]; ok {
		se.actsLRU.MoveToFront(el)
		return el.Value.(*actEntry).lit
	}
	a := sat.Lit(se.solver.NewVar())
	if pv, ok := se.vars[r.Pkg]; ok && !r.Virtual {
		se.solver.AddClause(a.Neg(), sat.Lit(pv.installed))
	} else if vv, ok := se.virts[r.Pkg]; ok {
		se.solver.AddClause(a.Neg(), sat.Lit(vv.needed))
	}
	allowed := []sat.Lit{a.Neg()}
	cands, _ := rootCandidates(se.u, r) // unknown roots were rejected by reachable
	for _, c := range cands {
		if pv, ok := se.vars[c.Pkg]; ok {
			allowed = append(allowed, sat.Lit(pv.vers[c.Index]))
		}
	}
	// With no matching candidate this is the unit clause !a: the root is
	// permanently unsatisfiable, without poisoning the solver.
	se.solver.AddClause(allowed...)
	se.acts[key] = se.actsLRU.PushFront(&actEntry{key: key, target: r.Pkg, lit: a})
	return a
}

// evictActivations trims the activation memo to its capacity, skipping the
// pinned literals of the in-flight request. An evicted activation is fixed
// false, permanently deactivating its implication clauses; a later request
// for the same root spec simply allocates a fresh literal, so eviction
// trades a little re-encoding for a hard bound on per-spec solver growth.
func (se *Session) evictActivations(pinned map[sat.Lit]bool) {
	if se.actsMax < 0 {
		return
	}
	for el := se.actsLRU.Back(); el != nil && len(se.acts) > se.actsMax; {
		prev := el.Prev()
		ent := el.Value.(*actEntry)
		if !pinned[ent.lit] {
			se.solver.AddClause(ent.lit.Neg())
			se.actsLRU.Remove(el)
			delete(se.acts, ent.key)
		}
		el = prev
	}
}

// canonicalRootParts renders the roots in canonical form: Root.key()
// strings ("pkg@range", virtual-namespaced when explicit), sorted and
// deduplicated. Root order and duplicates never change the meaning of a
// request, so canonicalization maximizes cache hits and keeps assumption
// order deterministic.
func canonicalRootParts(roots []Root) []string {
	parts := make([]string, len(roots))
	for i, r := range roots {
		parts[i] = r.key()
	}
	sort.Strings(parts)
	out := parts[:0]
	for i, p := range parts {
		if i == 0 || p != parts[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// ShapeKey returns the canonical request-shape key for (objective, roots):
// the objective's Key plus the sorted, deduplicated root specs. Requests
// with equal shape keys are answer-identical against the same universe
// epoch — the invariant behind the Session's solution cache, exported so
// serving tiers can coalesce identical in-flight requests onto one solve.
// A nil objective selects DefaultObjective, mirroring Resolve.
func ShapeKey(obj Objective, roots []Root) string {
	if obj == nil {
		obj = DefaultObjective
	}
	return shapeKey(obj, canonicalRootParts(roots))
}

// shapeKey joins an objective identity with already-canonicalized root
// parts; Session.Resolve uses it directly to avoid re-canonicalizing.
func shapeKey(obj Objective, parts []string) string {
	return obj.Key() + "\x00" + strings.Join(parts, "\x1f")
}

// Resolve answers one concretization request on the warm path. The result
// contract is identical to Concretize: optimal resolution under the
// request's objective, a *UnsatError, or a wrapped ErrBudget, with
// Stats.Optimal == false when the conflict budget expired after a model
// was found. Stats.SolutionCacheHit marks answers served from the solution
// cache, Stats.BoundMemoHit solves that reused a shape's banked bound, and
// Stats.Epoch the universe epoch the answer was produced at. The returned
// Picks map is owned by the caller.
//
// Canceling ctx (or passing one past its deadline) interrupts an in-flight
// solve promptly — the context is checked between branch-and-bound rounds
// and mapped onto the solver's asynchronous stop flag within rounds — and
// returns an error matching ctx's cause (context.Canceled or
// context.DeadlineExceeded). A canceled request never poisons the Session:
// solver state stays consistent and the next Resolve proceeds normally.
//
// goarxivlint:blocking
func (se *Session) Resolve(ctx context.Context, roots []Root, opts Options) (*Resolution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(roots) == 0 {
		return &Resolution{Picks: map[string]version.Version{}, Stats: Stats{Optimal: true}}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledError(err)
	}
	parts := canonicalRootParts(roots)
	obj := opts.Objective
	if obj == nil {
		obj = DefaultObjective
	}
	// The request-shape key: objective semantics plus canonical roots. It
	// keys the bound memo and the solution cache alike; epochs never enter
	// the key — Extend's delta-scoped invalidation drops exactly the
	// entries a delta could change, so surviving entries stay valid across
	// universe growth.
	shapeKey := shapeKey(obj, parts)
	if res, err, ok := se.cacheGet(shapeKey, roots); ok {
		return res, err
	}
	se.mu.Lock()
	defer se.mu.Unlock()
	// Re-check under the solver lock: another goroutine may have just
	// resolved and cached the same request — and the wait for the lock may
	// have outlived the caller's patience.
	if err := ctx.Err(); err != nil {
		return nil, canceledError(err)
	}
	if res, err, ok := se.cacheGet(shapeKey, roots); ok {
		return res, err
	}
	res, err := se.solveLocked(ctx, roots, parts, shapeKey, obj, opts)
	se.cachePut(shapeKey, res, err)
	return res, err
}

// solveLocked runs branch-and-bound for one request. Callers hold se.mu.
//
// goarxivlint:blocking
func (se *Session) solveLocked(ctx context.Context, roots []Root, parts []string, shapeKey string, obj Objective, opts Options) (*Resolution, error) {
	// The bound memo remembers, per request shape, everything a repeat
	// solve can reuse: the reachability order, the lowered objective
	// terms, and the proven lower bound on the optimal cost. All three
	// stay valid for the session's lifetime — the universe is immutable,
	// the objective is a pure function of (universe, order, roots), and a
	// bound proven under the request's activation assumptions is a fact
	// about the formula, which later requests only extend with learnt
	// clauses (consequences, never new constraints on this shape).
	memo, _ := se.bounds.get(shapeKey)
	memoHit := memo != nil
	var order []string
	var reach map[string]bool
	var objTerms []sat.PBTerm
	var total int64
	if memo != nil {
		order, objTerms, total = memo.order, memo.terms, memo.total
	} else {
		var err error
		order, reach, err = reachable(se.u, roots)
		if err != nil {
			return nil, err
		}
		// First visit of this shape since construction or the last
		// touching delta: a lazy session encodes whatever the closure
		// reaches that isn't materialized yet. A bound-memo hit implies
		// the shape's whole closure already materialized (entries fall
		// whenever a delta touches their reach set), so the warm path
		// skips even the membership scan.
		if se.lazy {
			if err := se.materializeLocked(order, roots); err != nil {
				return nil, err
			}
		}
	}

	// Map context cancellation onto the solver's asynchronous interrupt so
	// a solve stops mid-search, not just between rounds. The watcher is
	// torn down — and the sticky interrupt flag cleared — before the solver
	// lock is released, so a canceled request can never leak a stop signal
	// into the next one.
	if ctx.Done() != nil {
		watcherStop := make(chan struct{})
		var watcher sync.WaitGroup
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			select {
			case <-ctx.Done():
				se.solver.Interrupt()
			case <-watcherStop:
			}
		}()
		defer func() {
			close(watcherStop)
			watcher.Wait()
			se.solver.ClearInterrupt()
		}()
	}

	// Activation assumptions in canonical order (deduplicated roots map to
	// one literal each). The lookup maps and the assumption slice are
	// session-owned scratch: a warm request allocates none of them.
	byPart := se.byPartBuf
	clear(byPart)
	for _, r := range roots {
		byPart[r.key()] = r
	}
	pinned := se.pinnedBuf
	clear(pinned)
	assumps := se.assumpsBuf[:0]
	for _, part := range parts {
		a := se.activation(byPart[part])
		assumps = append(assumps, a)
		pinned[a] = true
	}
	nBase := len(assumps)
	se.assumpsBuf = assumps // retain the (possibly regrown) scratch array
	se.evictActivations(pinned)

	if memo == nil {
		var err error
		objTerms, total, err = se.objectiveTerms(obj, order, roots)
		if err != nil {
			return nil, err
		}
		memo = &boundEntry{order: order, reach: reach, terms: objTerms, total: total}
		se.bounds.put(shapeKey, memo)
		// First visit of this shape on a lazy session: seed saved phases
		// toward the greedy assignment so the descent's first incumbent
		// starts near the optimum. On the version-deep universes lazy
		// sessions exist for (SynthRegistry carries up to 100 versions per
		// package) this replaces a linear walk down hundreds of cost units
		// — each a full solver round — with a handful of rounds; phases
		// are pure heuristics, so seeding can never change the answer.
		// Eager sessions keep their organic phases: on small dense
		// universes the seed measurably degrades the warm steady state
		// (BenchmarkConcretizeVirtualDiamondWarm regressed >2x when seeded
		// — the one-time overwrite shifts the learnt-clause trajectory
		// into a worse attractor) while buying nothing, since their
		// version depth never produces the long descent walks the seed
		// shortcuts.
		if se.lazy {
			se.seedPhases(order, roots)
		}
	}

	s := se.solver
	stats := Stats{Packages: len(order), Epoch: se.epoch, BoundMemoHit: memoHit}
	conflicts0, decisions0, props0 := s.Conflicts, s.Decisions, s.Propagations
	if opts.MaxConflicts > 0 {
		s.MaxConflicts = conflicts0 + opts.MaxConflicts
	} else {
		s.MaxConflicts = 0
	}

	var best map[string]version.Version
	var bestCost int64
	var guard sat.Lit
	var bound sat.PBRef // live guarded bound constraint (zero: none)
	var boundAt int64   // target the live constraint enforces under the guard
	// Retire the active bound guard before every exit: the guard is fixed
	// false and its PB constraint is dropped from the propagation
	// structures, so superseded bounds from this request can never slow
	// down or misprioritize future requests (and solver memory for bound
	// constraints stays constant across the session's lifetime).
	retire := func() {
		if guard != 0 {
			s.RetireGuard(guard)
			guard = 0
			bound = sat.PBRef{}
		}
	}
	defer retire()

	// Objective descent between the proven lower bound and the incumbent.
	// lo tracks the proven lower bound on the optimal cost (an UNSAT
	// answer under a guard at target proves optimum > target); it starts
	// from the memoized bound of earlier requests for the same shape, and
	// whatever this request proves is banked for the next one. Over-eager
	// targets cost at most extra UNSAT rounds and can never change the
	// returned answer.
	cfg := s.Config()
	warmBound := memo.proven // a previous request already proved a bound
	lo := memo.lo            // optimal cost is known to be >= lo
	proved := false          // this request completed a proof round (an
	// UNSAT refutation, or optimality itself) — only then is the bank
	// updated, so a canceled first visit can't masquerade as a warm shape
	defer func() {
		if proved {
			memo.proven = true
			if lo > memo.lo {
				memo.lo = lo
			}
		}
	}()

	finish := func(optimal bool) (*Resolution, error) {
		if err := verify(se.u, roots, best); err != nil {
			return nil, err
		}
		if optimal {
			lo, proved = bestCost, true // no model costs less than the answer
		}
		stats.Cost = bestCost
		stats.Optimal = optimal
		stats.Variables = s.NumVars()
		stats.Conflicts = s.Conflicts - conflicts0
		stats.Decisions = s.Decisions - decisions0
		stats.Propagations = s.Propagations - props0
		return &Resolution{Picks: best, Stats: stats}, nil
	}

	for {
		// A cancellation between rounds is cheaper to honor here than via
		// the interrupt round-trip.
		if err := ctx.Err(); err != nil {
			return nil, canceledError(err)
		}
		st := s.SolveAssuming(assumps)
		stats.SolveCalls++
		switch st {
		case sat.Canceled:
			// The abandoned search's saved phases would pin the next
			// request inside the subspace this one was exploring (for an
			// interrupted refutation, a subspace the solver would have to
			// finish refuting before escaping). Reset them; learnt clauses
			// and activities stay.
			s.ResetPhases()
			cause := ctx.Err()
			if cause == nil {
				cause = context.Canceled
			}
			return nil, canceledError(cause)
		case sat.Unknown:
			// Budget expiry abandons the search mid-flight exactly like a
			// cancellation does, and leaves the same phase-saving trap
			// (see the sat.Canceled case); reset phases here too.
			s.ResetPhases()
			if best == nil {
				return nil, fmt.Errorf("%w after %d conflicts", ErrBudget, s.Conflicts-conflicts0)
			}
			return finish(false)
		case sat.Unsat:
			if best == nil {
				return nil, unsatError(roots)
			}
			// UNSAT under the guard proves optimum > target.
			lo, proved = boundAt+1, true
			if lo >= bestCost {
				return finish(true)
			}
		case sat.Sat:
			picks, err := se.decode(order)
			if err != nil {
				return nil, err
			}
			best, bestCost = picks, se.cost(objTerms)
			stats.Improvements++
			if bestCost <= lo {
				return finish(true)
			}
		}
		// Pick the next bound target in [lo, bestCost-1]. Binary descent
		// probes the midpoint — far from the incumbent, so a warm solver
		// whose saved phases sit on a bad model is propagated straight out
		// of that neighborhood instead of refuting it clause by clause.
		// Linear descent probes just below the incumbent — fewest rounds
		// when the first model is already optimal, which is the norm for a
		// fresh (cold) solver. Adaptive probes linearly once, and bisects
		// from then on if that probe improved (the first model came from
		// stale saved phases, and each further linear probe would hand back
		// only the next model down) or if the shape has a proven bound
		// banked.
		var target int64
		if cfg.Descent == sat.DescentBinary || (cfg.Descent == sat.DescentAdaptive && (warmBound || stats.Improvements > 1)) {
			target = lo + (bestCost-1-lo)/2
		} else {
			target = bestCost - cfg.DescentStep
			if target < lo {
				target = lo
			}
		}
		// Install or strengthen the bound: guard -> objective <= target,
		// encoded as objective + total*guard <= total + target, which is
		// vacuous while the guard is free, so the solver stays reusable.
		// A target below the live constraint's is a pure strengthening and
		// is applied in place — no new variable, constraint, or copy of
		// the objective terms. Only a relaxation (an UNSAT round pushed lo
		// above a still-improvable incumbent's probe) retires the guard
		// and installs a fresh one.
		if bound.Valid() && target < boundAt {
			if !s.TightenPB(bound, total+target) {
				// Unreachable: the guard is unassigned at the top level, so
				// the constraint keeps slack >= total - sum(level-0-true
				// objective weights) >= target >= 0.
				return nil, fmt.Errorf("concretize: internal error: bound %d conflicts at top level", target)
			}
		} else {
			retire()
			if !s.Okay() {
				return finish(true)
			}
			g := sat.Lit(s.NewVar())
			terms := append(append(se.termsBuf[:0], objTerms...), sat.PBTerm{Lit: g, Weight: total})
			se.termsBuf = terms[:0]
			var ok bool
			bound, ok = s.AddPBRef(terms, total+target)
			if !ok {
				// Unreachable in practice (the guarded constraint is
				// vacuous until assumed), kept as a safety net: tightening
				// to bestCost-1 being impossible at the top level proves
				// best optimal; a wider probe proves nothing.
				if target == bestCost-1 {
					return finish(true)
				}
				return nil, fmt.Errorf("concretize: internal error: guarded bound %d rejected at top level", target)
			}
			guard = g
		}
		boundAt = target
		assumps = append(assumps[:nBase], guard)
		se.assumpsBuf = assumps
	}
}

// seedPhases seeds the solver's saved phases with the greedy
// newest-version assignment over the request's reachable packages:
// nothing installed until propagation demands it, and the newest version
// tried first for whatever is. Objectives price versions newest-first
// (index 0 cheapest under NewestVersion, and MinimalChange's tiebreak),
// so the first model the search finds lands at or near the optimum
// instead of wherever default polarities happen to settle — on
// version-deep universes (SynthRegistry carries 100 versions per package)
// the difference between a handful of descent rounds and hundreds. Phase
// saving overwrites the seed as soon as the search assigns a variable,
// and phases steer only which model is found first, never what is
// satisfiable, so seeding cannot change any answer.
// Root packages get a sharper seed: the newest version *their root range
// allows*. The universal newest-first seed would walk a capped root (say
// "pkg@:50" over 100 versions) down through ~lag conflicts before finding
// its first admissible version — and the activity those conflicts bump
// scrambles the branching order for everything below the root, which is
// how a first incumbent ends up far from greedy.
func (se *Session) seedPhases(order []string, roots []Root) {
	s := se.solver
	for _, name := range order {
		pv := se.vars[name]
		s.SetPhase(pv.installed, false)
		for i, x := range pv.vers {
			s.SetPhase(x, i == 0)
		}
	}
	for _, r := range roots {
		cands, ok := rootCandidates(se.u, r)
		if !ok {
			continue
		}
		for ci := 0; ci < len(cands); {
			cj := ci
			for cj < len(cands) && cands[cj].Pkg == cands[ci].Pkg {
				cj++
			}
			// Candidates are newest-first within a package: cands[ci] is
			// the best in-range pick for this package.
			if pv, ok := se.vars[cands[ci].Pkg]; ok {
				for i, x := range pv.vers {
					s.SetPhase(x, i == cands[ci].Index)
				}
			}
			ci = cj
		}
	}
}

// objectiveTerms lowers an Objective's package costs into weighted PB
// terms over the session's solver variables, returning the terms and
// their total weight (the k of the guarded bound constraint). Install
// costs weight y_p, Omit costs weight !y_p, and version costs weight
// x_{p,v}; zero costs produce no term.
//
// Skeleton variables outside the reachable set carry no weight and are
// ignored by decode, so their (arbitrary) assignments never affect the
// request's cost or picks: any model restricted to the reachable set
// extends to a full model by leaving everything else uninstalled.
func (se *Session) objectiveTerms(obj Objective, order []string, roots []Root) ([]sat.PBTerm, int64, error) {
	costs, err := obj.Costs(ObjectiveRequest{Universe: se.u, Order: order, Roots: roots})
	if err != nil {
		return nil, 0, fmt.Errorf("concretize: objective %q: %w", obj.Key(), err)
	}
	inOrder := make(map[string]bool, len(order))
	for _, name := range order {
		inOrder[name] = true
	}
	for name := range costs {
		if !inOrder[name] {
			return nil, 0, fmt.Errorf("concretize: objective %q prices package %q outside the request's reachable set", obj.Key(), name)
		}
	}
	var terms []sat.PBTerm
	var total int64
	for _, name := range order {
		pc, ok := costs[name]
		if !ok {
			continue
		}
		pv := se.vars[name]
		if pc.Install < 0 || pc.Omit < 0 {
			return nil, 0, fmt.Errorf("concretize: objective %q: negative cost for %q", obj.Key(), name)
		}
		if pc.Version != nil && len(pc.Version) != len(pv.vers) {
			return nil, 0, fmt.Errorf("concretize: objective %q: %d version costs for %q (%d versions)",
				obj.Key(), len(pc.Version), name, len(pv.vers))
		}
		if pc.Install > 0 {
			terms = append(terms, sat.PBTerm{Lit: sat.Lit(pv.installed), Weight: pc.Install})
			total += pc.Install
		}
		if pc.Omit > 0 {
			terms = append(terms, sat.PBTerm{Lit: sat.Lit(pv.installed).Neg(), Weight: pc.Omit})
			total += pc.Omit
		}
		for i, w := range pc.Version {
			if w < 0 {
				return nil, 0, fmt.Errorf("concretize: objective %q: negative cost for %q", obj.Key(), name)
			}
			if w > 0 {
				terms = append(terms, sat.PBTerm{Lit: sat.Lit(pv.vers[i]), Weight: w})
				total += w
			}
		}
	}
	return terms, total, nil
}

// cost evaluates the objective under the solver's current model. Negative
// literals (Omit terms) count when their variable is false.
func (se *Session) cost(terms []sat.PBTerm) int64 {
	var c int64
	for _, t := range terms {
		v := se.solver.ValueOf(t.Lit.Var())
		if t.Lit < 0 {
			v = !v
		}
		if v {
			c += t.Weight
		}
	}
	return c
}

// decode reads the current model into a picks map, restricted to the
// request's reachable packages.
func (se *Session) decode(order []string) (map[string]version.Version, error) {
	picks := make(map[string]version.Version)
	for _, name := range order {
		pv := se.vars[name]
		if !se.solver.ValueOf(pv.installed) {
			continue
		}
		chosen := -1
		for i, x := range pv.vers {
			if se.solver.ValueOf(x) {
				if chosen >= 0 {
					return nil, fmt.Errorf("concretize: internal error: %s selects two versions", name)
				}
				chosen = i
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("concretize: internal error: %s installed without a version", name)
		}
		picks[name] = pv.pkg.Versions()[chosen].Version
	}
	return picks, nil
}

// cacheGet looks up a memoized answer. It returns copies the caller owns.
//
// Lock-interleaving note (audited against Extend's delta-scoped
// invalidation): the entry is read under the RLock, the lock released, and
// re-taken exclusively only to promote. An Extend can therefore sweep the
// entry between the peek and the return — but the peek itself is atomic
// with respect to the sweep (both hold cacheMu), so a request observes the
// entry either wholly before the sweep or not at all. A pre-delta answer
// is thus only ever served to a Resolve that overlaps the Extend in time —
// a linearizable ordering (the resolve "happened before" the apply) — and
// its Stats.Epoch reports the pre-delta epoch it was solved at. A Resolve
// whose cacheGet starts after Extend returns can never see the swept
// entry: the sweep completes under cacheMu before Extend's session lock is
// released, so the happens-before edge is the lock itself. touch() cannot
// resurrect a swept entry (it promotes only keys still present). Pinned by
// TestExtendVsCacheGetInterleaving.
func (se *Session) cacheGet(key string, roots []Root) (*Resolution, error, bool) {
	if se.cache == nil {
		return nil, nil, false
	}
	se.cacheMu.RLock()
	ent, ok := se.cache.peek(key)
	se.cacheMu.RUnlock()
	if !ok {
		return nil, nil, false
	}
	// Promote under the write lock (list mutation is not read-safe).
	se.cacheMu.Lock()
	se.cache.touch(key)
	se.cacheMu.Unlock()
	if ent.unsat {
		return nil, unsatError(roots), true
	}
	picks := make(map[string]version.Version, len(ent.picks))
	for p, v := range ent.picks {
		picks[p] = v
	}
	stats := ent.stats
	stats.SolutionCacheHit = true
	return &Resolution{Picks: picks, Stats: stats}, nil, true
}

// cachePut memoizes definitive answers: optimal resolutions and proven
// unsatisfiability. Budget-limited (non-optimal or Unknown) outcomes and
// request errors are never cached. The entry inherits the shape's
// reachable set from the bound memo so Extend can invalidate it precisely;
// callers hold se.mu, which guards the bound memo.
func (se *Session) cachePut(key string, res *Resolution, err error) {
	if se.cache == nil {
		return
	}
	memo, ok := se.bounds.peek(key)
	if !ok {
		// Without a recorded reach set the entry could never be
		// invalidated; skip caching (solveLocked banks the memo before
		// solving, so this is a can't-happen safety net).
		return
	}
	ent := cacheEntry{reach: memo.reach}
	switch {
	case err == nil && res.Stats.Optimal:
		picks := make(map[string]version.Version, len(res.Picks))
		for p, v := range res.Picks {
			picks[p] = v
		}
		ent.picks, ent.stats = picks, res.Stats
	case err != nil && errors.Is(err, ErrUnsatisfiable):
		ent.unsat = true
	default:
		return
	}
	se.cacheMu.Lock()
	se.cache.put(key, ent)
	se.cacheMu.Unlock()
}

// boundEntry memoizes the solve facts one request shape (objective key +
// canonical roots) carries for the session's lifetime: the reachability
// order, the lowered objective terms with their total weight, and the
// proven lower bound on the optimal cost. The terms and order slices are
// shared across requests and must never be mutated; the descent loop
// copies terms into scratch before appending its guard.
type boundEntry struct {
	lo     int64 // optimal cost is proven >= lo for this shape
	proven bool  // a completed proof backs lo (distinguishes a banked
	// optimum of zero from "never proved anything")
	order []string
	reach map[string]bool // names whose growth could change this shape's
	// answer (reachable packages, dependency-target names, root names);
	// Extend drops the entry when a delta touches any of them
	terms []sat.PBTerm
	total int64
}

// cacheEntry is one memoized answer: either an optimal resolution or a
// proof of unsatisfiability. reach mirrors the shape's bound-memo reach
// set (shared map) for delta-scoped invalidation.
type cacheEntry struct {
	picks map[string]version.Version
	stats Stats
	reach map[string]bool
	unsat bool
}

// The memo layers — the solution cache (lru[cacheEntry], callers hold
// cacheMu) and the bound memo (lru[*boundEntry], callers hold mu; unlike
// the solution cache it memoizes facts about the *search*, bounds and
// lowered terms rather than answers, so it stays useful even when the
// solution cache is disabled) — share one LRU core. The activation memo
// keeps its own list: its eviction must skip the in-flight request's
// pinned literals and fix evictees false in the solver.

// lru is a plain least-recently-used map. Callers synchronize.
type lru[V any] struct {
	max int // <0: unbounded
	ll  *list.List
	m   map[string]*list.Element
}

type lruItem[V any] struct {
	key string
	val V
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *lru[V]) len() int { return len(c.m) }

// peek returns the value without promoting it.
func (c *lru[V]) peek(key string) (V, bool) {
	if el, ok := c.m[key]; ok {
		return el.Value.(*lruItem[V]).val, true
	}
	var zero V
	return zero, false
}

// touch promotes the entry to most-recently-used if still present.
func (c *lru[V]) touch(key string) {
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
	}
}

// get is peek + touch.
func (c *lru[V]) get(key string) (V, bool) {
	v, ok := c.peek(key)
	if ok {
		c.touch(key)
	}
	return v, ok
}

// put inserts or replaces the value, promotes it, and evicts the
// least-recently-used entries beyond capacity.
func (c *lru[V]) put(key string, val V) {
	if el, ok := c.m[key]; ok {
		el.Value.(*lruItem[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruItem[V]{key: key, val: val})
	if c.max >= 0 {
		for len(c.m) > c.max {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.m, oldest.Value.(*lruItem[V]).key)
		}
	}
}

// sweep removes every entry drop reports true for. Extend uses it for
// delta-scoped invalidation of the bound memo and the solution cache.
func (c *lru[V]) sweep(drop func(key string, val V) bool) {
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		it := el.Value.(*lruItem[V])
		if drop(it.key, it.val) {
			c.ll.Remove(el)
			delete(c.m, it.key)
		}
		el = next
	}
}
