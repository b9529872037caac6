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

// maxActivations bounds a session's memoized root-activation literals
// and, alongside them, its closure and bound memos (LRU eviction; an
// evicted activation is fixed false in the solver and re-allocated on
// demand, so diverse request streams cannot grow solver variables without
// bound).
const maxActivations = 4096

// Session is a reusable concretization handle bound to one universe: the
// warm path of the resolver. A new Session encodes nothing. Each request's
// reachable subgraph — the closure of its roots over dependency, conflict,
// trigger, and provides edges — is materialized into the shared solver the
// first time any request reaches it (materialize.go), so the solver formula
// tracks the union of what requests reach rather than the catalog. Each
// Resolve call then activates its roots through assumption literals and
// runs branch-and-bound on the shared solver, so learnt clauses, VSIDS
// activity, and saved phases accumulate across requests instead of being
// rebuilt and discarded per call. A Session memoizes no answers: its
// backend's answer store (Answers) does, keyed by the canonical request
// shape (objective key + canonicalized roots), so a repeat request never
// reaches the session at all. What a session does bank is two memos. The
// closure memo holds, per canonical root set, the roots' reachability
// closure (closure), which depends on no objective, so a new shape over
// known roots — the same roots under another objective or installed
// profile — skips the reachability walk and the materialization scan and
// lowers only its objective. The bound memo holds, per request shape, a
// pointer to that closure, the lowered objective and the proven lower
// bound, so a repeat solve skips the objective lowering too and usually
// skips the closing optimality refutation.
//
// Against registry-shaped universes (thousands of packages, sparse
// per-root closures) materializing on first reach shrinks the solver
// formula and the session footprint by the catalog-to-working-set ratio;
// EncodingStats reports the coverage. Materialization is purely additive
// once a closure is encoded, and the one hazard — re-emitting a
// requirement clause over a widened candidate set while stale learnt
// clauses pin its old support — is fenced by the same ForgetLearnts
// discipline Extend uses.
//
// A live universe grows through Session.Extend (see extend.go): the
// materialized encoding is widened in place and only the closure- and
// bound-memo entries whose recorded reach set intersects the delta are
// invalidated, which is what keeps root-set and shape keys (rather than
// fingerprint-qualified keys) sound across epochs. When a delta would
// revive a variable the solver already fixed false at the top level, the
// session resets its encoding instead (resetEncodingLocked) and requests
// re-materialize what they reach.
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

	// closures memoizes, per canonical root set, the roots' reachability
	// closure, which every objective over those roots shares; bounds
	// memoizes per-request-shape solve facts: the shape's closure, the
	// lowered objective terms, and — the warm-path keystone — the proven
	// lower bound on the optimal cost. Entries of both stay valid until a
	// delta touches their reach set or the encoding resets, and an entry of
	// either implies its closure is materialized. Guarded by mu.
	closures *lru[*closure]
	bounds   *lru[*boundEntry]

	// Per-request scratch reused across Resolve calls (guarded by mu):
	// assumption literals, the decision scope, the guarded PB term copy
	// handed to the solver, the pinned-activation / root-by-part lookups,
	// and seedPhases' chosen versions and walk queue.
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
// activation, and empty closure and bound memos (whose entries promise a
// materialized closure, and name solver variables).
func (se *Session) newEncoding(s *sat.Solver) {
	se.solver = s
	se.vars = make(map[string]*pkgVars)
	se.virts = make(map[string]*virtVars)
	se.defs = make(map[string]*reqDef)
	se.defsByName = make(map[string][]string)
	se.sups = make(map[string]*supEntry)
	se.supsByName = make(map[string][]string)
	se.pendingByName = make(map[string][]declSite)
	se.acts = make(map[string]*list.Element)
	se.actsLRU = list.New()
	// The closure and bound memos share the activation memo's capacity
	// policy: all three grow with the number of distinct root sets or
	// request shapes a session serves.
	se.closures = newLRU[*closure](se.actsMax)
	se.bounds = newLRU[*boundEntry](se.actsMax)
}

// resetEncodingLocked drops the whole encoding — the solver with its learnt
// clauses and phases, the materialized packages, the requirement
// bookkeeping, the activations, and the closure and bound memos — and
// starts over with an empty one. It is
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
	support := se.matchingLits(name, rng)
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
	se.supsByName[name] = append(se.supsByName[name], key)
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
	de := &reqDef{}
	se.defs[key] = de
	se.defsByName[name] = append(se.defsByName[name], key)
	return de
}

// addPending parks a declaration that currently lowers to nothing emittable
// (dormant trigger, dead dependency target, vacuous conflict) under the
// name whose growth would change it. Extend and materialization re-run
// parked declarations when that name is touched.
func (se *Session) addPending(name string, site declSite) {
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
	de := se.defEntry(target, rng)
	de.users = append(de.users, declSite{id: id, ref: ref})
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
// epoch — the invariant behind the answer store (Answers) and the bound
// memo, exported so serving tiers can coalesce identical in-flight
// requests onto one solve.
// A nil objective selects DefaultObjective, mirroring Resolve.
func ShapeKey(obj Objective, roots []Root) string {
	if obj == nil {
		obj = DefaultObjective
	}
	return shapeKey(obj, rootsKey(canonicalRootParts(roots)))
}

// rootsKey joins canonical root parts into the root set's key: the key of
// the closure memo, and the tail of every shape key over the set.
func rootsKey(parts []string) string {
	return strings.Join(parts, "\x1f")
}

// shapeKey joins an objective identity with a root set's key; Session.Resolve
// uses it directly to avoid re-canonicalizing.
func shapeKey(obj Objective, rootsKey string) string {
	return obj.Key() + "\x00" + rootsKey
}

// Resolve answers one concretization request on the warm path. The result
// contract is identical to Concretize: optimal resolution under the
// request's objective, a *UnsatError, or a wrapped ErrBudget, with
// Stats.Optimal == false when the conflict budget expired after a model
// was found. Stats.BoundMemoHit marks solves that reused a shape's banked
// bound, and Stats.Epoch the universe epoch the answer was produced at.
// Every call reaches the solver; a definitive answer carries what
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
	// The request-shape key: objective semantics plus the canonical root
	// set's key, which alone keys the closure memo. The shape key keys the
	// bound memo; epochs never enter either key — Extend's delta-scoped
	// invalidation drops exactly the entries a delta could change, so
	// surviving entries stay valid across universe growth.
	rootsKey := rootsKey(parts)
	shapeKey := shapeKey(obj, rootsKey)
	se.mu.Lock()
	defer se.mu.Unlock()
	// Re-check under the solver lock: the wait for it may have outlived
	// the caller's patience.
	if err := ctx.Err(); err != nil {
		return nil, canceledError(err)
	}
	return se.solveLocked(ctx, roots, parts, rootsKey, shapeKey, obj, opts)
}

// closureLocked returns the roots' materialized closure: the memoized one
// for their root set, or else reachable's, encoding whatever it reaches
// that isn't materialized yet. Callers hold se.mu.
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
func (se *Session) solveLocked(ctx context.Context, roots []Root, parts []string, rootsKey, shapeKey string, obj Objective, opts Options) (*Resolution, error) {
	// The bound memo remembers, per request shape, everything a repeat
	// solve can reuse: the roots' closure, the lowered objective terms, and
	// the proven lower bound on the optimal cost. All three stay valid
	// until a delta touches the shape or the encoding resets — the
	// objective is a pure function of (universe, order, roots), and a
	// bound proven under the request's activation assumptions is a fact
	// about the formula, which later requests only extend with learnt
	// clauses (consequences, never new constraints on this shape). A miss
	// on a root set the closure memo holds, such as the same roots under a
	// new objective, lowers only the objective.
	memo, _ := se.bounds.get(shapeKey)
	memoHit := memo != nil
	var cl *closure
	if memo != nil {
		cl = memo.cl
	} else {
		var err error
		if cl, err = se.closureLocked(rootsKey, roots); err != nil {
			return nil, err
		}
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

	if memo == nil {
		objTerms, total, costs, err := se.objectiveTerms(obj, order, roots)
		if err != nil {
			return nil, err
		}
		memo = &boundEntry{cl: cl, terms: objTerms, total: total}
		se.bounds.put(shapeKey, memo)
		// First visit of this shape: seed saved phases with a greedy model
		// priced by the request's objective, so the descent's first
		// incumbent is usually already optimal and one refutation closes
		// it. A repeat visit keeps the phases the last solve saved, which
		// sit on this shape's last answer or its neighbors. Phases are pure
		// heuristics, so seeding can never change the optimal cost.
		se.seedPhases(order, roots, costs)
	}

	s := se.solver
	objTerms, total := memo.terms, memo.total
	scope := se.decisionScope(order)
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
		return &Resolution{Picks: best, Stats: stats, reach: cl.reach}, nil
	}

	for {
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
		// Pick the next bound target in [lo, bestCost-1]. The descent
		// first probes just below the incumbent — fewest rounds when the
		// first model is already optimal, which is the norm for a fresh
		// (cold) solver and for a seeded first visit — and bisects from
		// then on if that probe improved (the first model came from stale
		// saved phases, and each further linear probe would hand back only
		// the next model down) or if the shape has a proven bound banked.
		// A midpoint probe sits far from the incumbent, so a warm solver
		// whose saved phases sit on a bad model is propagated straight out
		// of that neighborhood instead of refuting it clause by clause.
		// bestCost > lo here, so the linear probe never undercuts lo.
		target := bestCost - 1
		if warmBound || stats.Improvements > 1 {
			target = lo + (bestCost-1-lo)/2
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
// dependents are known, a conflict whenever one of them needs it. On a
// first visit, where seedPhases' greedy model is consistent (as on a
// registry first visit, capped or not), that first model is optimal and
// the descent ends after one refutation. Everything else the session has
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
// The walk ignores conditional dependencies and conflicts, so the seed
// can miss a model; phases steer only which model the search finds
// first, never what is satisfiable, so seeding cannot change the optimal
// cost. It allocates nothing per dependency: candidates are walked in
// place, and the chosen map and queue are session-owned scratch.
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
// providers through Universe.Virtual, so no candidate list is built.
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
		for _, pr := range provs {
			if !rng.Satisfies(pr.Provided) {
				continue
			}
			p, _ := se.u.Package(pr.Pkg)
			i := p.IndexOf(pr.Version)
			if ci, ok := chosen[pr.Pkg]; ok {
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

// objectiveTerms lowers an Objective's package costs into weighted PB
// terms over the session's solver variables, returning the terms, their
// total weight (the k of the guarded bound constraint), and the validated
// costs themselves, which seedPhases prices its greedy model with.
// Install costs weight y_p, Omit costs weight !y_p, and version costs
// weight x_{p,v}; zero costs produce no term. Pricing a package outside
// order is an error: the walk over order counts the priced names it
// meets, and only when the count falls short of the map is the culprit
// looked for.
//
// Materialized variables outside the reachable set carry no weight and are
// ignored by decode, so their assignments never affect the request's cost
// or picks: any model restricted to the reachable set extends to a full
// model by leaving everything else uninstalled. That is why the search
// branches only on the reach set (decisionScope, and the scope contract
// of sat.Solver.SolveAssuming), leaving everything else unassigned.
func (se *Session) objectiveTerms(obj Objective, order []string, roots []Root) ([]sat.PBTerm, int64, map[string]PkgCost, error) {
	costs, err := obj.Costs(ObjectiveRequest{Universe: se.u, Order: order, Roots: roots})
	if err != nil {
		return nil, 0, nil, fmt.Errorf("concretize: objective %q: %w", obj.Key(), err)
	}
	var terms []sat.PBTerm
	var total int64
	priced := 0 // order holds each name once
	for _, name := range order {
		pc, ok := costs[name]
		if !ok {
			continue
		}
		priced++
		pv := se.vars[name]
		if pc.Install < 0 || pc.Omit < 0 {
			return nil, 0, nil, fmt.Errorf("concretize: objective %q: negative cost for %q", obj.Key(), name)
		}
		if pc.Version != nil && len(pc.Version) != len(pv.vers) {
			return nil, 0, nil, fmt.Errorf("concretize: objective %q: %d version costs for %q (%d versions)",
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
				return nil, 0, nil, fmt.Errorf("concretize: objective %q: negative cost for %q", obj.Key(), name)
			}
			if w > 0 {
				terms = append(terms, sat.PBTerm{Lit: sat.Lit(pv.vers[i]), Weight: w})
				total += w
			}
		}
	}
	if priced != len(costs) {
		for name := range costs {
			if !slices.Contains(order, name) {
				return nil, 0, nil, fmt.Errorf("concretize: objective %q prices package %q outside the request's reachable set", obj.Key(), name)
			}
		}
	}
	return terms, total, costs, nil
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
// one: the closure memo files it under the root set's key, each bound
// entry over the set points at it, and Extend drops the memo's entry and
// every such bound entry when a delta touches the reach set, which the
// shapes' answers also carry into the answer store. Shared, so never
// mutated.
type closure struct {
	order []string
	reach map[string]bool
}

// boundEntry memoizes the solve facts one request shape (objective key +
// canonical roots) carries until a delta touches it: the roots' shared
// closure, the lowered objective terms with their total weight, and the
// proven lower bound on the optimal cost. The terms slice is shared across
// requests and must never be mutated; the descent loop copies terms into
// scratch before appending its guard.
type boundEntry struct {
	lo     int64 // optimal cost is proven >= lo for this shape
	proven bool  // a completed proof backs lo (distinguishes a banked
	// optimum of zero from "never proved anything")
	cl    *closure
	terms []sat.PBTerm
	total int64
}

// The memo layers — the answer store (lru[*answer], callers hold
// Answers.mu), the closure memo (lru[*closure]) and the bound memo
// (lru[*boundEntry]), both under se.mu — share one LRU core. The activation memo keeps its own list: its eviction
// must skip the in-flight request's pinned literals and fix evictees false
// in the solver.

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
// delta-scoped invalidation of the closure and bound memos.
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
