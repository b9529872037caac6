package concretize

// Materialization: a Session encodes nothing at construction.
// solveLocked materializes the request's reachable subgraph the first time
// any request touches it, and later requests share everything already
// encoded. The key soundness property is that steady-state materialization
// is *purely additive*: the reachability closure pulls in every dependency
// target and every provider of any dep'd or rooted virtual, so a
// requirement clause is complete over its candidate set the moment it is
// first emitted, and learnt clauses / saved phases survive first touches.
// The only events that force a clause detach — and therefore a
// ForgetLearnts, exactly as in Extend — are revivals of work a delta
// parked under a then-unreached name, and widening a virtual's provider
// selection when a later batch materializes more of its providers.
// materializeHazard detects those cases before any mutation. A revival
// that would have to bring back a variable the solver fixed false at the
// top level resets the encoding and materializes the closure afresh.

import (
	"fmt"

	"github.com/paper-repo-growth/go-arxiv/internal/sat"
)

// EncodingStats is a point-in-time snapshot of how much of the bound
// universe a session's solver formula actually carries. MaterializedPackages
// tracks the union of subgraphs requests have reached since the last reset
// — the number that makes registry-scale universes servable at all.
type EncodingStats struct {
	// MaterializedPackages counts packages with encoded variables and
	// clauses.
	MaterializedPackages int
	// UniversePackages counts packages in the bound universe.
	UniversePackages int
	// SolverVars is the solver's current variable count (package,
	// version, activation, support, and guard variables alike).
	SolverVars int
	// Resets counts encoding resets: deltas that made a version, package,
	// or virtual buildable again after the solver had fixed it false at
	// the top level, answered by dropping the encoding and
	// re-materializing on demand.
	Resets int
}

// EncodingStats returns the session's encoder-coverage counters. It never
// blocks — in particular not on an in-flight solve — so stats endpoints
// can poll it on every request; the counters are atomic mirrors written
// under the session lock at every materialization point.
//
// goarxivlint:lockfree
func (se *Session) EncodingStats() EncodingStats {
	return EncodingStats{
		MaterializedPackages: int(se.matPkgsA.Load()),
		UniversePackages:     int(se.uniPkgsA.Load()),
		SolverVars:           int(se.matVarsA.Load()),
		Resets:               int(se.resetsA.Load()),
	}
}

// syncEncodingStats refreshes the atomic stats mirrors from the encoder
// state. Callers hold se.mu (NewSession runs before the handle escapes).
func (se *Session) syncEncodingStats() {
	se.matPkgsA.Store(int64(len(se.vars)))
	se.uniPkgsA.Store(int64(se.u.NumPackages()))
	se.matVarsA.Store(int64(se.solver.NumVars()))
}

// materializeLocked brings one request's reachable subgraph into the
// solver (see materializeBatch). When the batch would revive a variable
// the solver fixed false at the top level, the encoding resets and the
// closure is materialized again from nothing, where no declaration is
// parked and no variable is dead; a second revival is therefore an
// internal error. Callers hold se.mu; order must be a reachability closure
// over the current universe. Apart from that internal error, the only
// error path is the injection site, which fires before any mutation.
func (se *Session) materializeLocked(order []string, roots []Root) error {
	if err := fpMaterialize.Inject(""); err != nil {
		return fmt.Errorf("concretize: materialize: %w", err)
	}
	if !se.materializeBatch(order, roots) {
		se.resetEncodingLocked()
		if !se.materializeBatch(order, roots) {
			return fmt.Errorf("concretize: internal error: materializing %d packages after an encoding reset revived a dead variable", len(order))
		}
	}
	se.syncEncodingStats()
	return nil
}

// materializeBatch encodes every order package without variables, then
// runs the touched names (the fresh packages, the virtuals they provide,
// and any first-rooted virtual) through extendName, exactly as a delta
// does: provider selections widen and parked declarations revive.
// Requirements of the fresh packages are emitted last, after the touched
// names, so a declaration that parks itself in this batch (a dormant
// trigger on a still-unreached name) is not immediately revived. It
// reports false, leaving the encoding half-built for the caller to reset,
// when extendName would revive a dead variable.
func (se *Session) materializeBatch(order []string, roots []Root) bool {
	var fresh []string
	for _, name := range order {
		if _, ok := se.vars[name]; !ok {
			fresh = append(fresh, name)
		}
	}

	// touched: every name whose widenable structures this batch can
	// affect. Fresh packages (parked declarations under them revive, def
	// and support keys on them widen), the virtuals they provide
	// (selection clauses widen), and root virtuals not yet encoded (their
	// "needed" variable must exist before activation looks it up).
	touched := make([]string, 0, len(fresh)*2)
	inTouched := make(map[string]bool, len(fresh)*2)
	add := func(name string) {
		if !inTouched[name] {
			inTouched[name] = true
			touched = append(touched, name)
		}
	}
	for _, name := range fresh {
		add(name)
		p, _ := se.u.Package(name)
		for _, def := range p.Versions() {
			for _, pr := range def.Provides {
				add(pr.Virtual)
			}
		}
	}
	for _, r := range roots {
		name := r.Pkg
		if _, ok := se.virts[name]; ok {
			continue // already encoded (and complete: see materializeHazard)
		}
		if !se.u.IsVirtual(name) {
			continue
		}
		if _, isPkg := se.u.Package(name); isPkg && !r.Virtual {
			continue // bare name binds package-first; the package covers it
		}
		add(name)
	}
	if len(touched) == 0 {
		return true
	}

	// Detaches invalidate learnt clauses (stale level-0 learnt units would
	// be folded into re-added clauses by normalization, silently narrowing
	// them forever), so when this batch will detach anything, learnts are
	// dropped FIRST — before any mutation — mirroring Extend.
	if se.materializeHazard(touched) {
		se.solver.ForgetLearnts()
	}

	// Variables and selection structure for every fresh package, before
	// anything lowers requirements against them.
	for _, name := range fresh {
		se.encodePackage(name)
	}

	// Widen support keys and provider selections with the freshly
	// materialized candidates, re-run definitions and parked declarations,
	// and encode first-referenced virtuals.
	for _, name := range touched {
		if !se.extendName(name) {
			return false
		}
	}

	// Requirements of the fresh packages, now that every package they can
	// reference — the whole closure — has its structure in place.
	for _, name := range fresh {
		pv := se.vars[name]
		for i := range pv.pkg.Versions() {
			se.encodeVersionReqs(pv, i)
		}
	}
	return true
}

// materializeHazard reports whether materializing the touched names will
// detach any live clause, or meet a parked site whose declaring version
// died at level 0: a definition key on a touched name re-emits every
// user's requirement clause; an already-encoded virtual re-emits its
// provider selection; a parked declaration holding a pruning clause
// detaches it on revival. The dead-version case counts so that a death
// resting only on a learnt clause is released before rerunDecl judges
// whether reviving the version needs a reset. Dormant-trigger revivals
// with live declaring versions are additive and do not count.
func (se *Session) materializeHazard(touched []string) bool {
	for _, name := range touched {
		if len(se.defsByName[name]) > 0 {
			return true
		}
		if _, ok := se.virts[name]; ok {
			return true
		}
		for _, site := range se.pendingByName[name] {
			if site.ref.Valid() {
				return true
			}
			if pv, ok := se.vars[site.id.pkg]; ok {
				if idx := pv.pkg.IndexOf(site.id.ver); idx >= 0 && se.solver.FixedFalse(sat.Lit(pv.vers[idx])) {
					return true
				}
			}
		}
	}
	return false
}
