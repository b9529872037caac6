package concretize

// Materialization: a Session encodes nothing at construction.
// solveLocked materializes the request's reachable subgraph the first time
// any request touches it, and later requests share everything already
// encoded. The key soundness property is that steady-state materialization
// is *purely additive*: the reachability closure pulls in every dependency
// target and every provider of any dep'd or rooted virtual, so a
// dependency clause is complete over its candidate set the moment it is
// first emitted, and learnt clauses / saved phases survive first touches.
// A batch grows the encoding exactly as a delta does — one touched-name
// set, extendName over it, then the new versions' requirements (grow, in
// extend.go) — and the only events that force a clause detach, and
// therefore a ForgetLearnts exactly as in Extend, are re-running
// dependency sites recorded under a name the batch first materializes (a
// delta gave a materialized version a dependency on a then-unreached
// name) and widening a virtual's provider selection when a later batch
// materializes more of its providers. materializeHazard detects those
// cases before any mutation. A re-run that would have to bring back a
// variable the solver fixed false at the top level resets the encoding
// and materializes the closure afresh.

import "fmt"

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
// under the session lock at the end of every solve and every Extend.
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
// closure is materialized again from nothing, where no dependency site
// waits on an unmaterialized name and no variable is dead; a second
// revival is therefore an internal error. Callers hold se.mu; order must
// be a reachability closure over the current universe. Apart from that
// internal error, the only error path is the injection site, which fires
// before any mutation.
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
	return nil
}

// materializeBatch encodes every order package without variables and
// grows the encoding over them exactly as a delta does (grow): the touched
// names are the fresh packages, each followed by the virtuals it provides,
// and any first-rooted virtual, and the new versions are every version of
// the fresh packages, whose requirements are lowered after the touched
// names, once every package they can reference has its structure in
// place. It reports false, leaving the encoding half-built for the caller
// to reset, when extendName would revive a dead variable.
func (se *Session) materializeBatch(order []string, roots []Root) bool {
	var g growth
	var fresh []string
	for _, name := range order {
		if _, ok := se.vars[name]; ok {
			continue
		}
		fresh = append(fresh, name)
		g.touch(name)
		p, _ := se.u.Package(name)
		for _, def := range p.Versions() {
			for _, pr := range def.Provides {
				g.touch(pr.Virtual)
			}
		}
	}
	// Root virtuals not yet encoded: their "needed" variable must exist
	// before activation looks it up.
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
		g.touch(name)
	}
	if len(g.touched) == 0 {
		return true
	}

	// Detaches invalidate learnt clauses (stale level-0 learnt units would
	// be folded into re-added clauses by normalization, silently narrowing
	// them forever), so when this batch will detach anything, learnts are
	// dropped FIRST — before any mutation — mirroring Extend.
	if se.materializeHazard(g.touched) {
		se.solver.ForgetLearnts()
	}

	// Variables and selection structure for every fresh package, before
	// anything lowers requirements against them.
	for _, name := range fresh {
		pv := se.encodePackage(name)
		for i := range pv.vers {
			g.vers = append(g.vers, newVersion{pv, i})
		}
	}
	return se.grow(&g)
}

// materializeHazard reports whether materializing the touched names will
// detach any live clause: every dependency site recorded under a touched
// name has its clause detached and re-run (a dead target's pruning clause
// included, so a death resting only on a learnt clause is released before
// rerunDep judges whether reviving the version needs a reset), and an
// already-encoded virtual re-emits its provider selection. Support keys
// widen by adding clauses only, so they do not count.
func (se *Session) materializeHazard(touched []string) bool {
	for _, name := range touched {
		if len(se.deps[name]) > 0 {
			return true
		}
		if _, ok := se.virts[name]; ok {
			return true
		}
	}
	return false
}
