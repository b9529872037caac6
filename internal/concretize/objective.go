package concretize

import (
	"fmt"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// Objective shapes what "best" means for one resolution request. The
// branch-and-bound loop minimizes the total cost an objective assigns to a
// candidate resolution; exchanging the objective never changes which
// requests are satisfiable, only which of the satisfying resolutions is
// returned.
//
// Implementations must be deterministic pure functions of their inputs and
// safe for concurrent use: a Session may evaluate the same objective from
// multiple requests, and a pool may evaluate it on several shards at
// once.
type Objective interface {
	// Key returns a stable identifier for the objective's semantics,
	// mixed into the request-shape key (ShapeKey). Two objectives that can
	// rank resolutions differently must return different Keys; an
	// objective parameterized by data (e.g. an installed profile) must
	// fold that data into its Key.
	Key() string

	// Costs assigns non-negative costs over the request's reachable
	// packages. Packages absent from the returned map contribute no cost;
	// naming a package outside req.Order is an error.
	Costs(req ObjectiveRequest) (map[string]PkgCost, error)
}

// ObjectiveRequest is the read-only context an Objective prices: the
// universe, the packages reachable from the request's roots (in BFS order
// from the roots), and the roots themselves. Implementations must not
// mutate any field.
type ObjectiveRequest struct {
	Universe *repo.Universe
	Order    []string
	Roots    []Root
}

// rootSet returns the set of concrete package names carrying root weight,
// resolved through the same rootCandidates helper the activation encoder
// uses: a root naming a virtual expands to exactly the providers able to
// satisfy its range, so a resolved virtual costs what its chosen provider
// costs — and a provider that cannot satisfy the root (provided version
// outside the range) is never promoted to root rank just for providing
// something.
func (req ObjectiveRequest) rootSet() map[string]bool {
	set := make(map[string]bool, len(req.Roots))
	for _, r := range req.Roots {
		cands, _ := rootCandidates(req.Universe, r)
		for _, c := range cands {
			set[c.Pkg] = true
		}
	}
	return set
}

// PkgCost is one package's contribution to the objective.
type PkgCost struct {
	// Install is charged when the package is installed.
	Install int64
	// Omit is charged when the package is NOT installed. Change-averse
	// objectives use it to price removing an already-installed package.
	Omit int64
	// Version[i] is charged when version i (newest-first index, parallel
	// to Package.Versions()) is selected. Nil charges nothing; otherwise
	// the length must equal the package's version count.
	Version []int64
}

// DefaultObjective is the objective used when a request does not name one.
var DefaultObjective Objective = NewestVersion{}

// NewestVersion is the classic Spack-style objective: prefer newest
// versions, then fewer installed packages, layered lexicographically in
// root-first order:
//
//  1. root version-lag: one step away from a root's newest version weighs
//     more than every dependency downgrade and install combined;
//  2. dependency version-lag: one step weighs more than installing every
//     reachable package, so the optimizer never downgrades a version just
//     to drop an optional package;
//  3. installed-package count (1 per package) breaks remaining ties in
//     favor of smaller installs.
type NewestVersion struct{}

// Key implements Objective.
func (NewestVersion) Key() string { return "newest" }

// Costs implements Objective.
func (NewestVersion) Costs(req ObjectiveRequest) (map[string]PkgCost, error) {
	isRoot := req.rootSet()
	depStep := int64(len(req.Order)) + 1
	maxDepSum := int64(0)
	for _, name := range req.Order {
		if p, ok := req.Universe.Package(name); ok && !isRoot[name] {
			maxDepSum += depStep * int64(p.NumVersions()-1)
		}
	}
	rootStep := int64(len(req.Order)) + maxDepSum + 1
	costs := make(map[string]PkgCost, len(req.Order))
	for _, name := range req.Order {
		p, ok := req.Universe.Package(name)
		if !ok {
			return nil, fmt.Errorf("concretize: objective: unknown package %q", name)
		}
		step := depStep
		if isRoot[name] {
			step = rootStep
		}
		pc := PkgCost{Install: 1}
		if n := p.NumVersions(); n > 1 {
			pc.Version = make([]int64, n)
			for i := 1; i < n; i++ {
				pc.Version[i] = int64(i) * step
			}
		}
		costs[name] = pc
	}
	return costs, nil
}

// MinimalChange returns an objective that minimizes churn against an
// installed profile: every change — re-picking an installed package at a
// different version, removing an installed package, or installing a new
// one — costs one (uniform) change step, and change count dominates
// everything else. Remaining ties break toward newest versions, then fewer
// installs, so fresh packages still concretize sensibly. A profile version
// the catalog no longer carries counts any re-pick of that package as a
// change. The profile is captured by reference and must not be mutated
// while the objective is in use.
func MinimalChange(installed repo.Profile) Objective {
	return minimalChange{installed: installed, key: "minchange:" + installed.Fingerprint()}
}

type minimalChange struct {
	installed repo.Profile
	key       string // Key, computed once: the profile is not mutated
}

// Key implements Objective; the profile's content hash keeps cached
// answers from leaking between different installed states. A request
// reads it several times (the serving tier's coalescing key, the answer
// store's key, the session's shape key), so it is hashed once, when the
// objective is built.
func (m minimalChange) Key() string { return m.key }

// Costs implements Objective.
func (m minimalChange) Costs(req ObjectiveRequest) (map[string]PkgCost, error) {
	// Tie-break budget: version lag (prefer newest) plus one per install.
	// One change step must dominate the whole budget.
	maxTie := int64(len(req.Order))
	for _, name := range req.Order {
		if p, ok := req.Universe.Package(name); ok {
			nv := p.NumVersions()
			maxTie += int64(nv) * int64(nv-1) / 2 // sum of lags 0..nv-1 upper bound
		}
	}
	changeStep := maxTie + 1
	costs := make(map[string]PkgCost, len(req.Order))
	for _, name := range req.Order {
		p, ok := req.Universe.Package(name)
		if !ok {
			return nil, fmt.Errorf("concretize: objective: unknown package %q", name)
		}
		nv := p.NumVersions()
		pc := PkgCost{Install: 1}
		if nv > 0 {
			pc.Version = make([]int64, nv)
			for i := 0; i < nv; i++ {
				pc.Version[i] = int64(i) // newest-first tiebreak
			}
		}
		if _, present := m.installed[name]; present {
			keep := m.installed.VersionIndex(req.Universe, name)
			for i := 0; i < nv; i++ {
				if i != keep {
					pc.Version[i] += changeStep // re-pick at a different version
				}
			}
			pc.Omit = changeStep // removing an installed package
		} else {
			pc.Install += changeStep // installing a new package
		}
		costs[name] = pc
	}
	return costs, nil
}

// ObjectiveFunc adapts a plain cost function (custom weights) into an
// Objective. ID must be non-empty and uniquely identify the function's
// semantics: it namespaces the shape key, so two ObjectiveFuncs sharing
// an ID would silently serve each other's stored resolutions.
type ObjectiveFunc struct {
	ID string
	Fn func(req ObjectiveRequest) (map[string]PkgCost, error)
}

// Key implements Objective.
func (o ObjectiveFunc) Key() string { return "func:" + o.ID }

// Costs implements Objective. An empty ID is rejected here — every solve
// evaluates Costs before anything is stored, so the error fires before a
// colliding shape key can be written or read.
func (o ObjectiveFunc) Costs(req ObjectiveRequest) (map[string]PkgCost, error) {
	if o.ID == "" {
		return nil, fmt.Errorf("ObjectiveFunc requires a non-empty ID (it namespaces the shape key)")
	}
	return o.Fn(req)
}
