package concretize

import (
	"container/list"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/sat"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// maxActivations bounds a session's memo of root-activation literals and,
// alongside it, its closure memo (LRU eviction). It bounds the memos, not
// the solver's variables: see evictActivations.
const maxActivations = 4096

// Session is a reusable concretization handle bound to one universe: the
// warm path of the resolver. A new Session encodes nothing. Each request's
// reachable subgraph — the closure of its roots over dependency targets
// and the providers of reached virtuals — is materialized into the shared
// solver the first time any request reaches it (materialize.go), so the
// solver formula tracks the union of what requests reach rather than the
// catalog. Each Resolve call then activates its roots through assumption
// literals and runs branch-and-bound on the shared solver, so learnt
// clauses, VSIDS activity, and saved phases accumulate across requests
// instead of being rebuilt and discarded per call. A Session memoizes no
// answers: its backend's answer store (Answers) does, keyed by the
// canonical request shape (objective key + canonicalized roots), so a
// repeat request never reaches the session at all. What a session does
// memoize beyond its encoding and activations is the closure memo: per
// canonical root set, the roots' reachability closure (closure), which
// depends on no objective, so a new shape over known roots — the same
// roots under another objective or installed profile — skips the
// reachability walk and the materialization scan and lowers only its
// objective.
//
// Against registry-shaped universes (thousands of packages, sparse
// per-root closures) materializing on first reach shrinks the solver
// formula and the session footprint by the catalog-to-working-set ratio;
// EncodingStats reports the coverage. Materialization is purely additive
// once a closure is encoded, and the one hazard — re-emitting a
// dependency clause over a widened candidate set while stale learnt
// clauses pin its old support — is fenced by the same ForgetLearnts
// discipline Extend uses.
//
// A live universe grows through Session.Extend (see extend.go): the
// materialized encoding is widened in place and only the closure-memo
// entries whose recorded reach set intersects the delta are invalidated,
// which is what keeps root-set keys (rather than fingerprint-qualified
// keys) sound across epochs. When a delta would revive a variable the
// solver already fixed false at the top level, the session resets its
// encoding instead (resetEncodingLocked) and requests re-materialize what
// they reach.
//
// A Session is safe for concurrent use: solver access is serialized. The
// universe must not be mutated behind the session's back — growth arrives
// only via Extend (or, for a shared universe, via a sibling session's
// Extend between this session's own Extend calls; see the epoch contract
// on Extend).
type Session struct {
	u     *repo.Universe
	epoch repo.Epoch // universe epoch the encoding reflects (guarded by mu)

	// epochA mirrors epoch for lock-free reads: serving tiers key request
	// coalescing on Epoch(), and an Epoch() that waited on mu would
	// serialize behind in-flight solves — exactly the requests coalescing
	// exists to collapse. Written under mu, read without.
	//
	// goarxivlint:lockfree
	epochA atomic.Uint64

	// Encoder-coverage mirrors for EncodingStats (written under mu at the
	// end of every solve and every Extend, read without — stats endpoints
	// must never queue behind an in-flight solve).
	//
	// goarxivlint:lockfree
	matPkgsA atomic.Int64
	// goarxivlint:lockfree
	uniPkgsA atomic.Int64
	// goarxivlint:lockfree
	matVarsA atomic.Int64
	// goarxivlint:lockfree
	resetsA atomic.Int64

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
	actsMax int        // maxActivations; tests lower it to force eviction

	// Requirement lowering state, by two registration rules:
	//
	//   - deps: every dependency site, keyed by its target name, with the
	//     clause it emitted (xi [AND z] -> OR matching candidates; with no
	//     candidate, the pruning clause xi [AND z] -> false). When the
	//     name grows, extendName detaches each site's clause and re-runs
	//     the dependency over the current candidates.
	//   - sups: support literals z with x_c -> z per matching candidate,
	//     keyed "name@range" with a name index alongside, used for
	//     condition triggers and (negated) for conflict targets. A key
	//     gets its literal at first use, matching or not: an unforced z
	//     keeps the clauses guarded on it vacuous. Widening only adds
	//     support clauses, so nothing guarded on z is ever re-run.
	deps       map[string][]depSite
	sups       map[string]*supEntry
	supsByName map[string][]*supEntry

	// closures memoizes, per canonical root set, the roots' reachability
	// closure, which every objective over those roots shares. An entry
	// stays valid until a delta touches its reach set or the encoding
	// resets, and implies its closure is materialized. Guarded by mu.
	closures *lru[*closure]

	// Per-request scratch reused across Resolve calls (guarded by mu):
	// assumption literals, the decision scope, the lowered objective
	// terms (with room for the bound guard's term), the pinned-activation
	// / root-by-part lookups, and seedPhases' chosen versions and walk
	// queue.
	assumpsBuf []sat.Lit
	scopeBuf   []int
	termsBuf   []sat.PBTerm
	pinnedBuf  map[sat.Lit]bool
	byPartBuf  map[string]Root
	seedBuf    map[string]int
	seedQueue  []string
}

// actEntry is one memoized root-activation literal. target is the root's
// requested name (package or virtual): a delta touching it evicts the
// activation, whose candidate clauses are stale.
type actEntry struct {
	key    string
	target string
	lit    sat.Lit
}

// depSite is one dependency occurrence — the idx'th dependency of (pkg,
// ver), named stably across delta-driven index shifts and variable
// reallocation — with the clause it emitted (zero when the clause
// normalized to a unit or away). extendName detaches the clause and
// re-runs the dependency through it when the target name grows.
type depSite struct {
	pkg string
	ver version.Version
	idx int
	ref sat.ClauseRef
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

// NewSession returns a warm handle for resolving requests against the
// universe. It encodes nothing: requests materialize what they reach.
func NewSession(u *repo.Universe) *Session {
	se := &Session{
		u:         u,
		epoch:     u.Epoch(),
		actsMax:   maxActivations,
		pinnedBuf: make(map[sat.Lit]bool),
		byPartBuf: make(map[string]Root),
		seedBuf:   make(map[string]int),
	}
	se.epochA.Store(uint64(se.epoch))
	se.newEncoding(sat.New())
	se.syncEncodingStats()
	return se
}

// newEncoding installs an empty encoding over the given solver: no
// materialized package or virtual, no requirement bookkeeping, no
// activation, and an empty closure memo (whose entries promise a
// materialized closure).
func (se *Session) newEncoding(s *sat.Solver) {
	se.solver = s
	se.vars = make(map[string]*pkgVars)
	se.virts = make(map[string]*virtVars)
	se.deps = make(map[string][]depSite)
	se.sups = make(map[string]*supEntry)
	se.supsByName = make(map[string][]*supEntry)
	se.acts = make(map[string]*list.Element)
	se.actsLRU = list.New()
	// The closure memo shares the activation memo's capacity policy: both
	// grow with the number of distinct root sets a session serves.
	se.closures = newLRU[*closure](se.actsMax)
}

// resetEncodingLocked drops the whole encoding — the solver with its learnt
// clauses and phases, the materialized packages, the requirement
// bookkeeping, the activations, and the closure memo — and starts over
// with an empty one. It is
// the revival path: a variable the solver fixed false at the top level can
// never be assigned again, so when a delta makes such a version (or
// package, or virtual) buildable again, re-encoding from scratch replaces
// reviving it in place. Nothing is encoded up front, so the reset itself costs O(1);
// requests re-materialize what they reach. Callers hold se.mu.
func (se *Session) resetEncodingLocked() {
	se.newEncoding(sat.New())
	se.resetsA.Add(1)
}

// Epoch returns the universe epoch the session's encoding currently
// reflects. It never blocks — in particular not on an in-flight solve —
// so serving tiers can read it on every request to qualify coalescing
// keys.
//
// goarxivlint:lockfree
func (se *Session) Epoch() repo.Epoch {
	return repo.Epoch(se.epochA.Load())
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

// encodeVersionReqs lowers every dependency (addDependency) and conflict
// of version i of pv's package. A conflict (t, R) lowers to the one clause
// xi AND z -> !z_t through the support literal z_t of t@R, which never
// needs re-emitting: growth of t only adds support clauses.
func (se *Session) encodeVersionReqs(pv *pkgVars, i int) {
	def := &pv.pkg.Versions()[i]
	for j := range def.Deps {
		se.addDependency(pv, i, j)
	}
	for _, c := range def.Conflicts {
		se.solver.AddClause(se.guarded(sat.Lit(pv.vers[i]), c.When, se.supportLit(c.Pkg, c.Range).Neg())...)
	}
}

// guarded returns a declaration's clause for the version literal xi: !xi,
// then !z for a conditional declaration's trigger support literal z, then
// lits.
func (se *Session) guarded(xi sat.Lit, when repo.Condition, lits ...sat.Lit) []sat.Lit {
	out := make([]sat.Lit, 0, len(lits)+2)
	out = append(out, xi.Neg())
	if !when.IsZero() {
		out = append(out, se.supportLit(when.Pkg, when.Range).Neg())
	}
	return append(out, lits...)
}

// addDependency emits the clause for the j'th dependency (t, R) of version
// i of pv's package, guarded by its condition: xi AND z -> OR {x_c :
// candidate c of t inside R}, which prunes xi (under the trigger) while no
// candidate matches. Either way the site is recorded under t, so growth of
// t re-runs it (extendName). It is the one path a dependency lowers
// through, at first encoding and on every re-run — concrete and virtual
// targets differ only in what Candidates enumerates.
func (se *Session) addDependency(pv *pkgVars, i, j int) {
	def := &pv.pkg.Versions()[i]
	d := &def.Deps[j]
	ref, _ := se.solver.AddClauseRef(se.guarded(sat.Lit(pv.vers[i]), d.When, se.matchingLits(d.Pkg, d.Range)...)...)
	se.deps[d.Pkg] = append(se.deps[d.Pkg], depSite{pkg: pv.pkg.Name, ver: def.Version, idx: j, ref: ref})
}

// scopedCandidates enumerates the candidates for a requirement target that
// the session has materialized variables for. Unmaterialized providers of
// a virtual are dropped: the reachability closure pulls in every provider
// of any dependency target, so a dropped provider can only belong to a
// conflict or trigger target — and those are vacuous for packages that
// can never be installed.
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

// supportLit returns the memoized support literal for "name@rng",
// allocating it on first use: a variable z with x_c -> z for every
// in-scope candidate c of name inside rng, so z is forced true exactly
// when some model selection matches the key (and is free — never forced —
// otherwise, keeping clauses guarded on z vacuous in models that avoid
// it). Condition triggers use z directly; conflict targets use !z (a
// spurious true assignment to an unforced z only prunes a branch the
// solver could take anyway, so projecting any model onto the package
// variables stays sound). A key no candidate matches yet gets its literal
// all the same, with no support clause: until a candidate appears it is
// never forced, and when one does, extendName adds its support clause.
func (se *Session) supportLit(name string, rng version.Range) sat.Lit {
	key := name + "@" + rng.String()
	if en, ok := se.sups[key]; ok {
		return en.lit
	}
	en := &supEntry{name: name, rng: rng, lit: sat.Lit(se.solver.NewAuxVar()), seen: make(map[sat.Lit]bool)}
	se.sups[key] = en
	se.supsByName[name] = append(se.supsByName[name], en)
	se.widenSupport(en)
	return en.lit
}

// widenSupport adds the support clause x_c -> z for every matching
// candidate the key has not seen yet.
func (se *Session) widenSupport(en *supEntry) {
	for _, x := range se.matchingLits(en.name, en.rng) {
		if !en.seen[x] {
			en.seen[x] = true
			se.solver.AddClause(x.Neg(), en.lit)
		}
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
// false, permanently deactivating its implication clauses, but its variable
// is never reclaimed; a later request for the same root spec allocates a
// fresh literal. Eviction bounds the memo, not the solver's variables.
func (se *Session) evictActivations(pinned map[sat.Lit]bool) {
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
// request, so canonicalization maximizes store hits and keeps assumption
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
// epoch — the invariant behind the answer store (Answers), exported so
// serving tiers can coalesce identical in-flight requests onto one solve.
// A nil objective selects DefaultObjective, mirroring Resolve.
func ShapeKey(obj Objective, roots []Root) string {
	if obj == nil {
		obj = DefaultObjective
	}
	return obj.Key() + "\x00" + rootsKey(canonicalRootParts(roots))
}

// rootsKey joins canonical root parts into the root set's key: the key of
// the closure memo, and the tail of every shape key over the set.
func rootsKey(parts []string) string {
	return strings.Join(parts, "\x1f")
}

// Resolve answers one concretization request on the warm path. The result
// contract is identical to Concretize: optimal resolution under the
// request's objective, a *UnsatError, or a wrapped ErrBudget, with
// Stats.Optimal == false when the conflict budget expired after a model
// was found, and Stats.Epoch the universe epoch the answer was produced
// at. A session memoizes no answers, so every call does the search
// itself, repeat or not (a request whose verified seed costs the shape's
// floor needs no solve call); a definitive answer carries what
// Answers.Put needs to memoize it. The returned Picks map is owned by the
// caller.
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
	se.mu.Lock()
	defer se.mu.Unlock()
	// Re-check under the solver lock: the wait for it may have outlived
	// the caller's patience.
	if err := ctx.Err(); err != nil {
		return nil, canceledError(err)
	}
	return se.solveLocked(ctx, roots, parts, obj, opts)
}

// closureLocked returns the roots' materialized closure: the memoized one
// for their root set (rootsKey, which carries no epoch: Extend's
// delta-scoped invalidation drops exactly the entries a delta could
// change), or else reachable's, encoding whatever it reaches that isn't
// materialized yet. Callers hold se.mu.
func (se *Session) closureLocked(rootsKey string, roots []Root) (*closure, error) {
	// A closure-memo hit implies the whole closure is materialized: entries
	// fall whenever a delta touches their reach set, and all of them at a
	// reset, so the hit skips even the membership scan.
	if cl, ok := se.closures.get(rootsKey); ok {
		return cl, nil
	}
	order, reach, err := reachable(se.u, roots)
	if err != nil {
		return nil, err
	}
	// Materializing can reset the encoding, which empties the memo, so the
	// closure is filed after it.
	if err := se.materializeLocked(order, roots); err != nil {
		return nil, err
	}
	cl := &closure{order: order, reach: reach}
	se.closures.put(rootsKey, cl)
	return cl, nil
}

// solveLocked runs branch-and-bound for one request. Callers hold se.mu.
//
// goarxivlint:blocking
func (se *Session) solveLocked(ctx context.Context, roots []Root, parts []string, obj Objective, opts Options) (*Resolution, error) {
	// Materialization, activations and bound guards all allocate solver
	// variables, so every solve refreshes the stats mirrors on its way out.
	defer se.syncEncodingStats()
	// A request over a root set the closure memo holds, such as the same
	// roots under a new objective, skips reachability and materialization
	// and lowers only its objective.
	cl, err := se.closureLocked(rootsKey(parts), roots)
	if err != nil {
		return nil, err
	}
	order := cl.order

	// Map context cancellation onto the solver's asynchronous interrupt so
	// a solve stops mid-search, not just between rounds. The callback is
	// stopped — or, when it already started, waited for — and the sticky
	// interrupt flag cleared before the solver lock is released, so a
	// canceled request can never leak a stop signal into the next one.
	if ctx.Done() != nil {
		s := se.solver
		var fired sync.WaitGroup
		fired.Add(1)
		stop := context.AfterFunc(ctx, func() {
			defer fired.Done()
			s.Interrupt()
		})
		defer func() {
			if !stop() {
				fired.Wait()
			}
			s.ClearInterrupt()
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

	// lo tracks the proven lower bound on the optimal cost: it starts at
	// the cost floor lowering computes, and an UNSAT answer under a guard
	// at target proves optimum > target.
	objTerms, total, lo, costs, err := se.objectiveTerms(obj, cl, roots)
	if err != nil {
		return nil, err
	}
	stats := Stats{Packages: len(order), Epoch: se.epoch}
	// Seed saved phases with a greedy model priced by the request's
	// objective. When verify accepts that model it is the descent's first
	// incumbent, so the first solve is already the refutation below its
	// cost, and none runs at all when it costs the floor. A rejected seed
	// still steers the search's first model. Phases are pure heuristics
	// and an accepted seed is a verified resolution priced like any model,
	// so seeding can never change the optimal cost.
	se.seedPhases(order, roots, costs)
	best, bestCost := se.seedModel(order, roots, costs)
	verified := best != nil // best is the accepted seed, which verify has checked
	if verified {
		stats.Improvements++
	}

	s := se.solver
	scope := se.decisionScope(order)
	conflicts0, decisions0, props0 := s.Conflicts, s.Decisions, s.Propagations
	if opts.MaxConflicts > 0 {
		s.MaxConflicts = conflicts0 + opts.MaxConflicts
	} else {
		s.MaxConflicts = 0
	}

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

	finish := func(optimal bool) (*Resolution, error) {
		if !verified {
			if err := verify(se.u, roots, best); err != nil {
				return nil, err
			}
		}
		stats.Cost = bestCost
		stats.Optimal = optimal
		stats.Variables = s.NumVars()
		stats.Conflicts = s.Conflicts - conflicts0
		stats.Decisions = s.Decisions - decisions0
		stats.Propagations = s.Propagations - props0
		return &Resolution{Picks: best, Stats: stats, reach: cl.reach}, nil
	}

	for {
		if best != nil {
			// An incumbent at the proven lower bound is optimal: the first
			// model, an accepted seed priced at the floor, or an UNSAT
			// round that pushed lo up to the incumbent.
			if bestCost <= lo {
				return finish(true)
			}
			// Pick the next bound target in [lo, bestCost-1]. The descent
			// first probes just below the incumbent — fewest rounds when
			// the first incumbent is already optimal, which is the norm for
			// a fresh (cold) solver and for a seeded request — and bisects
			// from then on if that probe improved (the first model came
			// from stale saved phases, and each further linear probe would
			// hand back only the next model down). A midpoint probe sits
			// far from the incumbent, so a warm solver whose saved phases
			// sit on a bad model is propagated straight out of that
			// neighborhood instead of refuting it clause by clause.
			// bestCost > lo here, so the linear probe never undercuts lo.
			target := bestCost - 1
			if stats.Improvements > 1 {
				target = lo + (bestCost-1-lo)/2
			}
			// Install or strengthen the bound: guard -> objective <=
			// target, encoded as objective + total*guard <= total + target,
			// which is vacuous while the guard is free, so the solver stays
			// reusable. A target below the live constraint's is a pure
			// strengthening and is applied in place — no new variable,
			// constraint, or copy of the objective terms. Only a relaxation
			// (an UNSAT round pushed lo above a still-improvable
			// incumbent's probe) retires the guard and installs a fresh
			// one.
			if bound.Valid() && target < boundAt {
				if !s.TightenPB(bound, total+target) {
					// Unreachable: the guard is unassigned at the top level,
					// so the constraint keeps slack >= total -
					// sum(level-0-true objective weights) >= target >= 0.
					return nil, fmt.Errorf("concretize: internal error: bound %d conflicts at top level", target)
				}
			} else {
				retire()
				if !s.Okay() {
					return finish(true)
				}
				// objTerms has room for the guard's term, and the solver
				// copies what it is handed.
				g := sat.Lit(s.NewVar())
				var ok bool
				bound, ok = s.AddPBRef(append(objTerms, sat.PBTerm{Lit: g, Weight: total}), total+target)
				if !ok {
					// Unreachable in practice (the guarded constraint is
					// vacuous until assumed), kept as a safety net:
					// tightening to bestCost-1 being impossible at the top
					// level proves best optimal; a wider probe proves
					// nothing.
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
		// A cancellation between rounds is cheaper to honor here than via
		// the interrupt round-trip.
		if err := ctx.Err(); err != nil {
			return nil, canceledError(err)
		}
		st := s.SolveAssuming(assumps, scope)
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
				return nil, &UnsatError{Roots: append([]Root(nil), roots...), reach: cl.reach}
			}
			// UNSAT under the guard proves optimum > target.
			lo = boundAt + 1
		case sat.Sat:
			picks, err := se.decode(order)
			if err != nil {
				return nil, err
			}
			best, bestCost, verified = picks, se.cost(objTerms), false
			stats.Improvements++
		}
	}
}

// decisionScope lists the solver variables a request's search branches
// on: the installed and version variables of every reachable package.
// The list is also the search's branching priority among variables of
// equal activity (see sat.Solver.SolveAssuming), and its order makes the
// first model the greedy one. Packages come deepest first in reachable's
// breadth-first order, so a package's dependencies are usually decided
// before it and propagation has struck the versions they rule out. Each
// package lists its versions oldest to newest, so the search rejects
// older versions first and selects the newest one left standing. Its
// installed variable comes last, by when the selected version has set
// it; decided first, its false phase would drop a package before its
// dependents are known, a conflict whenever one of them needs it. A
// request whose seed verify accepts starts from the seed and never
// searches for a first model. The order matters where verify rejects the
// seed (13 of TestSeedTightCapFirstVisits' 40 capped registry visits):
// those still find the optimum as their first model and end after one
// refutation. Everything else the session has
// materialized (other requests' closures, activations, support literals,
// virtuals' needed variables) stays unassigned in a scoped model and
// reads false, which the encoding keeps sound: every clause carries the
// negated literal of the version, activation or support variable that
// declared it, reachable is closed under dependency targets and
// providers, and PB rows weigh out-of-reach variables only positively
// (see sat.Solver.SolveAssuming). A root
// virtual's needed variable is forced true by its assumed activation, the
// one clause where it occurs positively, so it never needs a decision.
// The slice is session-owned scratch, valid until the next request.
func (se *Session) decisionScope(order []string) []int {
	scope := se.scopeBuf[:0]
	for i := len(order) - 1; i >= 0; i-- {
		pv := se.vars[order[i]]
		for j := len(pv.vers) - 1; j >= 0; j-- {
			scope = append(scope, pv.vers[j])
		}
		scope = append(scope, pv.installed)
	}
	se.scopeBuf = scope
	return scope
}

// seedPhases seeds the solver's saved phases with a greedy model of the
// request, priced by the objective's own costs: each candidate (package,
// version i) costs Install − Omit + Version[i], what installing the
// package at that version adds over leaving it out. The walk picks each
// root's cheapest in-range candidate (ties to the newest), then follows
// every chosen version's unconditional dependencies: a target that a
// chosen version already satisfies is left alone, and otherwise its
// cheapest in-range candidate is chosen, skipping packages chosen at
// another version. One pass over order then chooses every package still
// unchosen whose cheapest candidate has a negative price, one that costs
// more to leave out than to install, and the walk follows the new
// choices' dependencies in turn. Chosen packages are seeded installed at
// their chosen version; every other reached package uninstalled, with
// every version false. Under NewestVersion this is the newest admissible
// version of everything the roots need, and the pass chooses nothing;
// under MinimalChange it keeps installed packages at their installed
// versions, including one nothing requires, such as the installed
// provider of a virtual whose requirement a swapped-in provider meets.
//
// The installed phases matter as much as the versions: VSIDS activity
// outranks decisionScope's order, so once conflicts bump an installed
// variable the search can decide it before its versions, and a false
// phase there drops a package the greedy model needs. A version-only
// seed, with every installed phase false, made the search slower on
// minimal-change provider swaps than the plain newest-version seed; on
// TestSeedReuseSwapFirstModels' stream it finds an optimal first model
// for 6 of 200 requests, where this seed finds all 200 (193 without the
// pass over order).
//
// The chosen versions are also the descent's first incumbent whenever
// verify accepts them (seedModel). The walk ignores conditional
// dependencies and conflicts, so the seed can miss a model; then it only
// steers which model the search finds first, never what is satisfiable,
// so seeding cannot change the optimal cost. It allocates nothing per
// dependency: candidates are walked in place, and the chosen map and
// queue are session-owned scratch.
func (se *Session) seedPhases(order []string, roots []Root, costs map[string]PkgCost) {
	chosen := se.seedBuf
	clear(chosen)
	se.seedQueue = se.seedQueue[:0]
	for _, r := range roots {
		se.seedChoose(r.Pkg, r.Range, costs)
	}
	se.seedWalk(0, costs)
	walked := len(se.seedQueue)
	for _, name := range order {
		// Install and version costs are non-negative, so only an Omit
		// cost can price a package below zero.
		pc := costs[name]
		if pc.Omit == 0 {
			continue
		}
		if _, ok := chosen[name]; ok {
			continue
		}
		best, price := 0, pc.Install-pc.Omit
		for i, w := range pc.Version { // newest first: a tie keeps the newer version
			if p := pc.Install - pc.Omit + w; i == 0 || p < price {
				best, price = i, p
			}
		}
		if price < 0 {
			chosen[name] = best
			se.seedQueue = append(se.seedQueue, name)
		}
	}
	se.seedWalk(walked, costs)
	s := se.solver
	for _, name := range order {
		pv := se.vars[name]
		ci, ok := chosen[name]
		s.SetPhase(pv.installed, ok)
		for i, x := range pv.vers {
			s.SetPhase(x, ok && i == ci)
		}
	}
}

// seedWalk follows seedPhases' queue from index q to its end, choosing a
// candidate for each unconditional dependency of every chosen version
// (seedChoose), which queues the packages it chooses in turn.
func (se *Session) seedWalk(q int, costs map[string]PkgCost) {
	for ; q < len(se.seedQueue); q++ {
		name := se.seedQueue[q]
		p, _ := se.u.Package(name)
		def := &p.Versions()[se.seedBuf[name]]
		for j := range def.Deps {
			if d := &def.Deps[j]; d.When.IsZero() {
				se.seedChoose(d.Pkg, d.Range, costs)
			}
		}
	}
}

// seedChoose is one step of seedPhases' walk: unless a chosen version
// already satisfies name@rng, it chooses the cheapest in-range candidate
// whose package is not chosen yet and queues it. A concrete target's
// versions are walked in place (as matchingLits does) and a virtual's
// providers through Universe.Virtual, so no candidate list is built. The
// provider index comes grouped by package, each group's versions newest
// first, which is Package.Versions()'s order: each group looks its
// package up once, and a cursor that only moves forward finds each
// entry's version index.
func (se *Session) seedChoose(name string, rng version.Range, costs map[string]PkgCost) {
	chosen := se.seedBuf
	if _, ok := chosen[name]; ok {
		return // a concrete target, satisfied or chosen outside rng
	}
	bestPkg, bestIdx, bestPrice := "", -1, int64(0)
	var pcPkg string // candidates come grouped by package: price each once
	var pc PkgCost
	consider := func(pkg string, i int) {
		if pkg != pcPkg {
			pcPkg, pc = pkg, costs[pkg]
		}
		price := pc.Install - pc.Omit
		if pc.Version != nil {
			price += pc.Version[i]
		}
		if bestIdx < 0 || price < bestPrice {
			bestPkg, bestIdx, bestPrice = pkg, i, price
		}
	}
	if p, ok := se.u.Package(name); ok {
		defs := p.Versions()
		for i := range defs { // newest first: a tie keeps the newer version
			if rng.Satisfies(defs[i].Version) {
				consider(name, i)
			}
		}
	} else {
		provs, _ := se.u.Virtual(name)
		var defs []repo.VersionDef
		i, ci, taken := 0, 0, false
		for k := range provs {
			pr := &provs[k]
			if k == 0 || pr.Pkg != provs[k-1].Pkg {
				p, _ := se.u.Package(pr.Pkg)
				defs, i = p.Versions(), 0
				ci, taken = chosen[pr.Pkg]
			}
			if !rng.Satisfies(pr.Provided) {
				continue
			}
			for !defs[i].Version.Equal(pr.Version) {
				i++
			}
			if taken {
				if ci == i {
					return // a chosen provider satisfies the requirement
				}
				continue
			}
			consider(pr.Pkg, i)
		}
	}
	if bestIdx >= 0 {
		chosen[bestPkg] = bestIdx
		se.seedQueue = append(se.seedQueue, bestPkg)
	}
}

// seedModel reads seedPhases' choices as a resolution — each chosen
// package at its chosen version, every other reached package left out —
// and prices it as cost prices a model: Install + Version[i] for a chosen
// package, Omit for any other. It returns nil when verify rejects the
// picks: the walk ignores conflicts and conditional dependencies, and
// leaves a requirement unmet when it already chose the target outside the
// range. Verify reads only the universe, so an accepted seed is a
// resolution whatever the encoding says.
func (se *Session) seedModel(order []string, roots []Root, costs map[string]PkgCost) (map[string]version.Version, int64) {
	chosen := se.seedBuf
	picks := make(map[string]version.Version, len(chosen))
	var cost int64
	for _, name := range order {
		pc := costs[name]
		i, ok := chosen[name]
		if !ok {
			cost += pc.Omit
			continue
		}
		picks[name] = se.vars[name].pkg.Versions()[i].Version
		cost += pc.Install
		if pc.Version != nil {
			cost += pc.Version[i]
		}
	}
	if verify(se.u, roots, picks) != nil {
		return nil, 0
	}
	return picks, cost
}

// objectiveTerms lowers an Objective's package costs over a closure into
// weighted PB terms over the session's solver variables, their total
// weight (the k of the guarded bound constraint) and the cost floor (the
// descent's starting lo), and returns the validated costs themselves,
// which seedPhases prices its greedy model with. The terms are session
// scratch, valid until the next request, with capacity for one more term:
// the bound guard's. Install costs weight y_p, Omit costs weight !y_p, and
// version costs weight x_{p,v}; zero costs produce no term. A first pass
// validates the costs, counts the terms and sums the floor, so the
// scratch grows at most once. Pricing a package outside order is an
// error: the pass counts the priced names it meets, and only when the
// count falls short of the map is the culprit looked for.
//
// The floor is branch-and-bound's trivial lower bound: every reached
// package costs at least min(Omit, Install + its cheapest version), and a
// root naming a package at least Install + its cheapest version in range
// (rootFloor). Like verify it reads only the universe and the costs, never
// the encoding.
//
// Materialized variables outside the reachable set carry no weight and are
// ignored by decode, so their assignments never affect the request's cost
// or picks: any model restricted to the reachable set extends to a full
// model by leaving everything else uninstalled. That is why the search
// branches only on the reach set (decisionScope, and the scope contract
// of sat.Solver.SolveAssuming), leaving everything else unassigned.
func (se *Session) objectiveTerms(obj Objective, cl *closure, roots []Root) (terms []sat.PBTerm, total, floor int64, costs map[string]PkgCost, err error) {
	order := cl.order
	costs, err = obj.Costs(ObjectiveRequest{Universe: se.u, Order: order, Roots: roots})
	if err != nil {
		return nil, 0, 0, nil, fmt.Errorf("concretize: objective %q: %w", obj.Key(), err)
	}
	n, priced := 0, 0 // order holds each name once
	for _, name := range order {
		pc, ok := costs[name]
		if !ok {
			continue
		}
		priced++
		if pc.Version != nil && len(pc.Version) != len(se.vars[name].vers) {
			return nil, 0, 0, nil, fmt.Errorf("concretize: objective %q: %d version costs for %q (%d versions)",
				obj.Key(), len(pc.Version), name, len(se.vars[name].vers))
		}
		least, nonzero := versionCosts(pc.Version)
		if pc.Install < 0 || pc.Omit < 0 || least < 0 {
			return nil, 0, 0, nil, fmt.Errorf("concretize: objective %q: negative cost for %q", obj.Key(), name)
		}
		floor += min(pc.Omit, pc.Install+least)
		n += nonzero
		if pc.Install > 0 {
			n++
		}
		if pc.Omit > 0 {
			n++
		}
	}
	if priced != len(costs) {
		for name := range costs {
			if !slices.Contains(order, name) {
				return nil, 0, 0, nil, fmt.Errorf("concretize: objective %q prices package %q outside the request's reachable set", obj.Key(), name)
			}
		}
	}
	if terms = se.termsBuf[:0]; cap(terms) < n+1 {
		terms = make([]sat.PBTerm, 0, n+1)
	}
	add := func(l sat.Lit, w int64) {
		if w > 0 {
			terms = append(terms, sat.PBTerm{Lit: l, Weight: w})
			total += w
		}
	}
	for _, name := range order {
		pc, ok := costs[name]
		if !ok {
			continue
		}
		pv := se.vars[name]
		add(sat.Lit(pv.installed), pc.Install)
		add(sat.Lit(pv.installed).Neg(), pc.Omit)
		for i, w := range pc.Version {
			add(sat.Lit(pv.vers[i]), w)
		}
	}
	se.termsBuf = terms
	return terms, total, floor + rootFloor(se.u, roots, costs), costs, nil
}

// versionCosts returns the least of a package's version costs (0 for
// nil) and how many of them are nonzero, each one a term of the lowered
// objective.
func versionCosts(version []int64) (least int64, nonzero int) {
	for i, w := range version {
		if i == 0 || w < least {
			least = w
		}
		if w != 0 {
			nonzero++
		}
	}
	return least, nonzero
}

// rootFloor is what the request's package roots add to the floor: every
// model installs a root's package at a version inside the range of every
// root naming it, so the package's term rises from min(Omit, Install +
// cheapest version) to Install plus the cheapest such version. A package
// no version of which lies in all those ranges makes the request
// unsatisfiable and raises nothing.
func rootFloor(u *repo.Universe, roots []Root, costs map[string]PkgCost) int64 {
	var raise int64
	for i, r := range roots {
		p, ok := u.Package(r.Pkg)
		if r.Virtual || !ok || slices.ContainsFunc(roots[:i], func(q Root) bool { return !q.Virtual && q.Pkg == r.Pkg }) {
			continue // a virtual root, or a package an earlier root raised
		}
		pc := costs[r.Pkg]
		least, found := int64(0), false
	versions:
		for vi, def := range p.Versions() {
			for _, q := range roots[i:] {
				if !q.Virtual && q.Pkg == r.Pkg && !q.Range.Satisfies(def.Version) {
					continue versions
				}
			}
			w := int64(0)
			if pc.Version != nil {
				w = pc.Version[vi]
			}
			if !found || w < least {
				least, found = w, true
			}
		}
		if found {
			cheapest, _ := versionCosts(pc.Version)
			raise += max(0, pc.Install+least-min(pc.Omit, pc.Install+cheapest))
		}
	}
	return raise
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

// closure is reachable's result for one canonical root set: the packages
// the roots reach, in breadth-first order, and the reach set — the names
// whose growth could change an answer over these roots (reachable
// packages, dependency-target names, root names). It depends on the roots
// and the universe alone, so every objective over the same roots shares
// one: the closure memo files it under the root set's key, and Extend
// drops the entry when a delta touches the reach set, which the shapes'
// answers also carry into the answer store. Shared, so never mutated.
type closure struct {
	order []string
	reach map[string]bool
}

// The memo layers — the answer store (lru[*answer], callers hold
// Answers.mu) and the closure memo (lru[*closure], under se.mu) — share
// one LRU core. The activation memo keeps its own list: its eviction must
// skip the in-flight request's pinned literals and fix evictees false in
// the solver.

// lru is a plain least-recently-used map. Callers synchronize.
type lru[V any] struct {
	max int
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
	for len(c.m) > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruItem[V]).key)
	}
}

// sweep removes every entry drop reports true for. Extend uses it for
// delta-scoped invalidation of the closure memo.
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
