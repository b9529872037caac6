package repo

import (
	"errors"
	"fmt"
	"sort"

	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// Epoch counts the deltas applied to a Universe: 0 for a freshly built
// catalog, incremented by every successful Apply. Layers above use it to
// agree on which universe revision an artifact (an extended skeleton, a
// resolution) corresponds to.
type Epoch uint64

// Epoch returns the universe's current epoch.
func (u *Universe) Epoch() Epoch { return u.epoch }

// Live reports whether the universe is delta-managed: at least one Apply
// has happened, so direct Add mutation is frozen.
func (u *Universe) Live() bool { return u.live }

// VersionAdd is one entry of a Delta: a new version definition for a
// (possibly new) package.
type VersionAdd struct {
	Pkg string
	Def VersionDef
}

// Delta is an append-only batch of universe growth: new versions on
// existing packages, entirely new packages, and — through the new
// versions' declarations — new provides edges and dependencies. A delta
// can only strengthen the catalog's content monotonically: nothing is ever
// removed or redefined, which is what lets warm sessions extend their
// encoded skeletons in place instead of rebuilding.
//
// Build a delta with Add (same string-literal surface as Universe.Add),
// then hand it to Universe.Apply. The zero value is an empty delta. A
// Delta is not safe for concurrent mutation; once built it is read-only
// and may be applied to any number of universes (a pool broadcasts one
// delta across shards).
type Delta struct {
	adds []VersionAdd
}

// NewDelta returns an empty delta.
func NewDelta() *Delta { return &Delta{} }

// Add appends one (package, version) with its declarations, mirroring
// Universe.Add: it panics on a malformed version string (deltas, like
// universes, are built from literals). Duplicate detection is deferred to
// Validate/Apply, which know the target universe.
func (d *Delta) Add(pkg, ver string, decls ...Decl) {
	v := version.MustParse(ver)
	def := VersionDef{Version: v}
	for _, dc := range decls {
		switch dc := dc.(type) {
		case Dependency:
			def.Deps = append(def.Deps, dc)
		case Conflict:
			def.Conflicts = append(def.Conflicts, dc)
		case Provides:
			def.Provides = append(def.Provides, dc)
		}
	}
	d.adds = append(d.adds, VersionAdd{Pkg: pkg, Def: def})
}

// Len returns the number of version additions.
func (d *Delta) Len() int { return len(d.adds) }

// Adds returns the additions in canonical order: package name ascending,
// then version descending (newest first, matching universe iteration
// order). The canonical order makes every skeleton-extension artifact
// derived from the delta independent of the order Add was called in. The
// slice is owned by the delta.
//
// goarxivlint:owned owned by the delta; callers must not mutate
func (d *Delta) Adds() []VersionAdd {
	sort.SliceStable(d.adds, func(i, j int) bool {
		if d.adds[i].Pkg != d.adds[j].Pkg {
			return d.adds[i].Pkg < d.adds[j].Pkg
		}
		return d.adds[i].Def.Version.Compare(d.adds[j].Def.Version) > 0
	})
	return d.adds
}

// Validate checks the delta against a target universe incrementally: only
// the delta's own additions and their declaration targets are examined —
// never the rest of the universe, which Apply trusts to be sound already.
// All violations are collected and joined (nil when the delta is
// applicable):
//
//   - no (package, version) may duplicate one already in the universe, or
//     another addition in the same delta;
//   - a newly provided virtual name must not collide with a concrete
//     package name (existing or added), and a new package name must not
//     collide with an existing virtual;
//   - every dependency and conflict target and every condition trigger
//     must name a package or virtual known to the universe or introduced
//     by this delta (append-only growth can only reference forward).
//
// As with Universe.Validate, a dependency range no candidate satisfies is
// not an error — it is a legitimate unsatisfiable constraint.
func (d *Delta) Validate(u *Universe) error {
	var errs []error
	newPkgs := make(map[string]bool)
	newVirts := make(map[string]bool)
	for _, a := range d.adds {
		newPkgs[a.Pkg] = true
		for _, pr := range a.Def.Provides {
			newVirts[pr.Virtual] = true
		}
	}
	known := func(name string) bool {
		if _, ok := u.pkgs[name]; ok {
			return true
		}
		return u.IsVirtual(name) || newPkgs[name] || newVirts[name]
	}

	seen := make(map[string]bool, len(d.adds))
	for _, a := range d.adds {
		key := a.Pkg + "\x00" + a.Def.Version.String()
		if seen[key] {
			errs = append(errs, fmt.Errorf("repo: delta adds %s@%s twice", a.Pkg, a.Def.Version))
		}
		seen[key] = true
		if p, ok := u.pkgs[a.Pkg]; ok && p.indexOf(a.Def.Version) >= 0 {
			errs = append(errs, fmt.Errorf("repo: delta re-adds existing version %s@%s", a.Pkg, a.Def.Version))
		}
	}

	for virt := range newVirts {
		if _, ok := u.pkgs[virt]; ok || newPkgs[virt] {
			errs = append(errs, fmt.Errorf("repo: delta-provided virtual %q collides with a concrete package name", virt))
		}
	}
	for pkg := range newPkgs {
		if _, exists := u.pkgs[pkg]; !exists && u.IsVirtual(pkg) {
			errs = append(errs, fmt.Errorf("repo: delta package %q collides with an existing virtual name", pkg))
		}
	}

	for _, a := range d.adds {
		checkWhen := func(kind string, w Condition) {
			if !w.IsZero() && !known(w.Pkg) {
				errs = append(errs, fmt.Errorf("repo: delta %s@%s %s condition triggers on unknown name %q",
					a.Pkg, a.Def.Version, kind, w.Pkg))
			}
		}
		for _, dep := range a.Def.Deps {
			if !known(dep.Pkg) {
				errs = append(errs, fmt.Errorf("repo: delta %s@%s depends on unknown name %q",
					a.Pkg, a.Def.Version, dep.Pkg))
			}
			checkWhen("dependency", dep.When)
		}
		for _, c := range a.Def.Conflicts {
			if !known(c.Pkg) {
				errs = append(errs, fmt.Errorf("repo: delta %s@%s conflicts with unknown name %q",
					a.Pkg, a.Def.Version, c.Pkg))
			}
			checkWhen("conflict", c.When)
		}
	}
	return errors.Join(errs...)
}

// Apply grows the universe by one epoch: the delta is validated
// incrementally (Delta.Validate) and its additions inserted in canonical
// order, updating the virtual/provider index in place — O(delta) work
// beyond the insertions themselves, never O(universe).
//
// On a validation error nothing is mutated and the current epoch is
// returned with the error. The first successful Apply marks the universe
// live, freezing direct Add mutation for good.
//
// Apply is not safe for use concurrent with readers: callers that share
// the universe across sessions (resolve.PoolResolver) must quiesce
// or lock out requests around it, which is exactly what the serving
// layer's Apply broadcast does.
func (u *Universe) Apply(d *Delta) (Epoch, error) {
	if err := d.Validate(u); err != nil {
		return u.epoch, err
	}
	for _, a := range d.Adds() {
		u.insertDef(a.Pkg, a.Def)
	}
	u.live = true
	u.epoch++
	return u.epoch, nil
}
