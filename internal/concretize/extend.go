package concretize

import (
	"fmt"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/sat"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// Extend grows the session's materialized encoding in place to absorb one
// append-only delta, instead of rebuilding the session: new versions of
// materialized packages get fresh variables and clauses, widenable
// constraints touched by the delta (exactly-one rows, requirement clauses,
// provider selections) are re-emitted through their handles, parked
// declarations whose targets the delta grew are revived, and only the
// bound-memo entries whose recorded reach set intersects the delta's
// touched names are invalidated (the answer store, which lives above the
// session, applies the same rule in Answers.Invalidate). Packages no
// request has reached stay unencoded: the first request to reach them
// materializes their post-delta definitions. Activation literals for untouched roots —
// and everything the solver learnt about them — survive. A delta that
// would make a version, package, or virtual buildable again after the
// solver fixed it false at the top level resets the encoding instead
// (resetEncodingLocked).
//
// The epoch contract: when the bound universe is at the session's epoch,
// Extend applies the delta to it (repo.Universe.Apply) and then extends
// the encoding; when the universe is already exactly one epoch ahead — a
// sibling session sharing the universe applied this same delta first,
// which is how a pool broadcasts — Extend trusts the caller that d
// is that delta and only extends the encoding. Any other epoch gap is an
// error: the universe changed behind the session's back.
//
// A validation failure mutates nothing. Callers must serialize Extend
// against their own concurrent Resolves only in the sense that Resolve
// calls issued concurrently will simply order before or after the
// extension (both hold the session lock); a resolver layer that needs "no
// request observes a half-applied broadcast" adds its own barrier
// (resolve.PoolResolver does).
//
// goarxivlint:blocking cancel=none
func (se *Session) Extend(d *repo.Delta) (repo.Epoch, error) {
	se.mu.Lock()
	defer se.mu.Unlock()
	// Fault-injection site, before any mutation: an injected error aborts
	// cleanly here (universe untouched) — unless a sibling session already
	// applied the delta, in which case this session's encoding is left one
	// epoch behind the shared universe, the state the caller's rebuild
	// path must handle.
	if err := fpExtend.Inject(""); err != nil {
		return se.epoch, fmt.Errorf("concretize: extend: %w", err)
	}
	switch ue := se.u.Epoch(); {
	case ue == se.epoch:
		if _, err := se.u.Apply(d); err != nil {
			return se.epoch, err
		}
	case ue == se.epoch+1:
		// A sibling session sharing the universe already applied this
		// delta; only the encoding needs to catch up.
	default:
		return se.epoch, fmt.Errorf("concretize: universe at epoch %d, session encoding at epoch %d: universe mutated behind the session", ue, se.epoch)
	}
	se.extendLocked(d)
	se.epoch = se.u.Epoch()
	se.epochA.Store(uint64(se.epoch))
	return se.epoch, nil
}

// extendLocked absorbs a delta the universe has already applied: it
// extends the encoding (or resets it) and invalidates what the delta could
// change. Callers hold se.mu.
//
// goarxivlint:blocking cancel=none
func (se *Session) extendLocked(d *repo.Delta) {
	dirty := dirtyNames(d)
	if se.extendEncodingLocked(d) {
		// Activations whose target name is dirty carry stale candidate
		// clauses: deactivate them permanently (a later request
		// re-allocates).
		for el := se.actsLRU.Front(); el != nil; {
			next := el.Next()
			ent := el.Value.(*actEntry)
			if dirty[ent.target] {
				se.solver.AddClause(ent.lit.Neg())
				se.actsLRU.Remove(el)
				delete(se.acts, ent.key)
			}
			el = next
		}
	} else {
		se.resetEncodingLocked()
	}

	// Delta-scoped invalidation: closure- and bound-memo entries fall only
	// when their recorded reach set intersects the dirty names; everything
	// else — including the learnt clauses and phases backing those shapes,
	// unless the encoding reset — survives the delta untouched.
	se.closures.sweep(func(_ string, cl *closure) bool { return touches(cl.reach, dirty) })
	se.bounds.sweep(func(_ string, b *boundEntry) bool { return touches(b.cl.reach, dirty) })
	se.syncEncodingStats()
}

// extendEncodingLocked widens the materialized encoding for the delta's
// versions of materialized packages; the rest of the delta waits for the
// first request that reaches it. It reports false — leaving the encoding
// half-extended, for the caller to reset — when the delta would revive a
// variable the solver fixed false at the top level.
func (se *Session) extendEncodingLocked(d *repo.Delta) bool {
	s := se.solver
	adds := d.Adds()

	// Learnt clauses are consequences of the formula as it was; widening a
	// clause (detach + re-add a weaker one) can invalidate them, and stale
	// level-0 learnt units would be folded into re-added clauses by
	// normalization, silently narrowing them forever. Forget learnts and
	// rebuild the level-0 trail from axioms FIRST, before any re-adds —
	// but only when the delta touches a materialized package: otherwise
	// nothing is detached, and the learnt clauses (and the warmth they
	// encode) survive the delta intact.
	for _, a := range adds {
		if _, ok := se.vars[a.Pkg]; ok {
			s.ForgetLearnts()
			break
		}
	}

	// Variables and selection structure for the new versions. Within a
	// package group Adds() orders versions descending, so insertion
	// indices ascend and earlier recorded indices stay valid. touched
	// collects the names whose widenable structures the new variables
	// affect: the packages and the virtuals their new versions provide.
	type newVer struct {
		pv  *pkgVars
		idx int
	}
	var newVers []newVer
	var touched []string
	inTouched := make(map[string]bool)
	touch := func(name string) {
		if !inTouched[name] {
			inTouched[name] = true
			touched = append(touched, name)
		}
	}
	for gi := 0; gi < len(adds); {
		gj := gi
		for gj < len(adds) && adds[gj].Pkg == adds[gi].Pkg {
			gj++
		}
		group := adds[gi:gj]
		gi = gj
		pv, ok := se.vars[group[0].Pkg]
		if !ok {
			continue
		}
		if s.FixedFalse(sat.Lit(pv.installed)) {
			// Every version died at the top level; a new one would have
			// to revive the package.
			return false
		}
		for _, a := range group {
			idx := pv.pkg.IndexOf(a.Def.Version)
			x := s.NewVar()
			pv.vers = append(pv.vers, 0)
			copy(pv.vers[idx+1:], pv.vers[idx:])
			pv.vers[idx] = x
			s.AddClause(sat.Lit(x).Neg(), sat.Lit(pv.installed))
			newVers = append(newVers, newVer{pv, idx})
			for _, pr := range a.Def.Provides {
				touch(pr.Virtual)
			}
		}
		se.emitPackageStructure(pv)
		touch(pv.pkg.Name)
	}

	// Re-examine the touched names before the new versions' own
	// requirements exist, so every declaration re-run here predates the
	// delta.
	for _, name := range touched {
		if !se.extendName(name) {
			return false
		}
	}
	// Requirements for the new versions, over candidate sets that already
	// include the whole delta.
	for _, nv := range newVers {
		se.encodeVersionReqs(nv.pv, nv.idx)
	}
	return true
}

// extendName re-examines one touched name: requirement clauses keyed on
// it are re-emitted over the widened candidate set, support keys gain
// clauses for new candidates, its provider-selection clause (when the name
// is a virtual) is re-emitted, and declarations parked under it are
// re-run. It reports false, mid-way, when that would revive a variable
// the solver fixed false at the top level.
func (se *Session) extendName(name string) bool {
	s := se.solver

	// Requirement keys: every dependency site that lowered against a key
	// on this name has its inlined requirement clause detached and its
	// declaration re-run, re-emitting the clause over the current
	// candidate set.
	for _, key := range se.defsByName[name] {
		de := se.defs[key]
		users := de.users
		de.users = nil
		for _, site := range users {
			s.DetachClause(site.ref)
			if !se.rerunDecl(site.id) {
				return false
			}
		}
	}

	// Support keys widen additively: one new support clause per candidate
	// not yet seen. Existing conflict and trigger clauses against the
	// support literal need no rewrite.
	for _, key := range se.supsByName[name] {
		en := se.sups[key]
		for _, x := range se.matchingLits(en.name, en.rng) {
			if en.seen[x] {
				continue
			}
			en.seen[x] = true
			s.AddClause(x.Neg(), en.lit)
		}
	}

	// Provider selection: widen (or first-encode) the virtual's selection
	// clause. A "needed" variable killed at the top level (every provider
	// died) cannot take a new provider.
	if vv, ok := se.virts[name]; ok {
		if s.FixedFalse(sat.Lit(vv.needed)) {
			return false
		}
		se.emitVirtualSelection(vv, se.scopedCandidates(name))
	} else if se.u.IsVirtual(name) {
		se.encodeVirtual(name)
	}

	// Parked declarations: consume the name's pending list and re-run each
	// site against the current universe (it re-parks itself if still
	// unemittable).
	sites := se.pendingByName[name]
	delete(se.pendingByName, name)
	for _, site := range sites {
		s.DetachClause(site.ref)
		if !se.rerunDecl(site.id) {
			return false
		}
	}
	return true
}

// rerunDecl re-lowers one declaration, identified stably, against the
// current universe and variables. It reports false instead when the
// declaring version died at the top level and the re-run would revive it:
// an unconditional dependency that now has candidates. A conflict or a
// conditional dependency never forces a version false at the top level
// (its clause carries a trigger or a target literal nothing fixes true
// there), and a dependency that still has no candidate would kill the
// version again, so those re-run in place.
func (se *Session) rerunDecl(id declID) bool {
	pv := se.vars[id.pkg]
	idx := pv.pkg.IndexOf(id.ver)
	xi := sat.Lit(pv.vers[idx])
	def := &pv.pkg.Versions()[idx]
	if id.conflict {
		c := def.Conflicts[id.idx]
		se.addRequirement(xi, id, c.When, c.Pkg, c.Range, true)
		return true
	}
	dd := def.Deps[id.idx]
	if dd.When.IsZero() && se.solver.FixedFalse(xi) && len(se.matchingLits(dd.Pkg, dd.Range)) > 0 {
		return false
	}
	se.addRequirement(xi, id, dd.When, dd.Pkg, dd.Range, false)
	return true
}

// matchingLits enumerates the current in-scope candidate literals for a
// requirement key, in Universe.Candidates order. A concrete target is its
// own only candidate package, so its versions are walked in place (newest
// first) instead of copying the candidate list: materializing a closure
// lowers every dependency of every version through here.
func (se *Session) matchingLits(name string, rng version.Range) []sat.Lit {
	var out []sat.Lit
	if _, ok := se.u.Package(name); ok {
		if pv, ok := se.vars[name]; ok {
			defs := pv.pkg.Versions()
			for i := range defs {
				if rng.Satisfies(defs[i].Version) {
					out = append(out, sat.Lit(pv.vers[i]))
				}
			}
		}
		return out
	}
	for _, c := range se.scopedCandidates(name) {
		if rng.Satisfies(c.Matched) {
			out = append(out, sat.Lit(se.vars[c.Pkg].vers[c.Index]))
		}
	}
	return out
}
