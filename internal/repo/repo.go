// Package repo models a package universe: package names, their available
// versions, per-version declarations, and the indexes the concretizer in
// internal/concretize lowers them from. It is the input side of the
// resolution stack, playing the role Spack's package repository plays for
// its concretizer: the catalog that resolution requests are solved
// against. The catalog is live, not static — see "Live growth" below.
//
// # Declaration model
//
// Each (package, version) carries a list of declarations:
//
//   - Dependency: the named target must be installed at a version inside
//     Range. The target may be a concrete package or a virtual name (see
//     below).
//   - Conflict: the declaring version cannot coexist with the named target
//     at any version inside Range.
//   - Provides: the declaring version provides the named virtual interface
//     at a virtual version (Spack's "provides(mpi@3)", Debian's Provides).
//
// Dependencies and conflicts may additionally be conditional: a Condition
// ("when" trigger) names a target (package or virtual) and a range, and the
// declaration constrains only in resolutions where that trigger is selected
// inside the range (npm-style optional/peer activation, Spack's when=).
// The zero Condition is unconditional.
//
// # Virtuals and candidates
//
// A virtual is a name that no concrete package owns; it exists only through
// Provides declarations and is usable anywhere a package name is: as a
// dependency or conflict target, as a condition trigger, and (through the
// concretizer) as a request root. The Universe maintains a virtual-name
// index, and Candidates unifies the two namespaces: for any requirement
// target it enumerates the concrete (package, version) selections able to
// satisfy it, each carrying the version that requirement ranges are matched
// against — the package's own version for a concrete target, the provided
// virtual version for a provider. Every layer above (encoder, reachability,
// verification, objectives) lowers requirements through this one interface
// instead of special-casing declaration types.
//
// # Live growth
//
// A Universe carries a monotone Epoch, bumped by Apply(Delta). A Delta is
// a validated batch of additions — new versions of existing packages, new
// packages, new providers — and is growth-only: nothing is ever retracted,
// mirroring how release streams behave and what lets downstream encoders
// extend state in place rather than rebuild (see
// internal/concretize.Session.Extend). Delta.Validate checks a delta
// against the universe it will apply to without mutating it; Apply is
// all-or-nothing. Fingerprints chain per epoch — each epoch's fingerprint
// hashes the previous one plus the delta — so two universes with equal
// content but different growth histories remain distinguishable.
package repo

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// Condition guards a declaration: the declaration constrains only when the
// named target (a package or virtual) is selected at a version inside
// Range. The zero Condition is unconditional.
type Condition struct {
	Pkg   string
	Range version.Range
}

// IsZero reports whether the condition is the unconditional zero value.
func (c Condition) IsZero() bool { return c.Pkg == "" }

// String renders the condition for diagnostics ("" when unconditional).
func (c Condition) String() string {
	if c.IsZero() {
		return ""
	}
	return "when " + c.Pkg + "@" + c.Range.String()
}

// Dependency is a constraint declared by one package version: the named
// target (package or virtual) must be installed at a version inside Range —
// but only in resolutions where When holds (always, for the zero When).
type Dependency struct {
	Pkg   string
	Range version.Range
	When  Condition
}

// Conflict declares that the declaring package version cannot coexist with
// the named target (package or virtual) at any version inside Range — but
// only in resolutions where When holds (always, for the zero When).
type Conflict struct {
	Pkg   string
	Range version.Range
	When  Condition
}

// Provides declares that the declaring package version provides the named
// virtual interface at virtual version Version. Requirements on the virtual
// match against Version, not the provider's own version.
type Provides struct {
	Virtual string
	Version version.Version
}

// Decl is a dependency, conflict, or provides declaration accepted by
// Universe.Add.
type Decl interface{ isDecl() }

func (Dependency) isDecl() {}
func (Conflict) isDecl()   {}
func (Provides) isDecl()   {}

// Dep builds an unconditional Dependency from string forms. It panics on a
// malformed range; intended for package definitions and tests where inputs
// are literals.
func Dep(pkg, rng string) Dependency {
	return Dependency{Pkg: pkg, Range: version.MustParseRange(rng)}
}

// DepWhen builds a conditional Dependency: pkg@rng required only when
// whenPkg is selected at a version in whenRng. Panics on malformed ranges.
func DepWhen(pkg, rng, whenPkg, whenRng string) Dependency {
	return Dependency{Pkg: pkg, Range: version.MustParseRange(rng),
		When: Condition{Pkg: whenPkg, Range: version.MustParseRange(whenRng)}}
}

// Confl builds an unconditional Conflict from string forms; panics on a
// malformed range.
func Confl(pkg, rng string) Conflict {
	return Conflict{Pkg: pkg, Range: version.MustParseRange(rng)}
}

// ConflWhen builds a conditional Conflict: pkg@rng forbidden only when
// whenPkg is selected at a version in whenRng. Panics on malformed ranges.
func ConflWhen(pkg, rng, whenPkg, whenRng string) Conflict {
	return Conflict{Pkg: pkg, Range: version.MustParseRange(rng),
		When: Condition{Pkg: whenPkg, Range: version.MustParseRange(whenRng)}}
}

// Prov builds a Provides from string forms; panics on a malformed version.
func Prov(virtual, ver string) Provides {
	return Provides{Virtual: virtual, Version: version.MustParse(ver)}
}

// VersionDef is one concrete version of a package together with the
// declarations it carries.
type VersionDef struct {
	Version   version.Version
	Deps      []Dependency
	Conflicts []Conflict
	Provides  []Provides
}

// Package is a named package with its available versions, newest first.
type Package struct {
	Name     string
	versions []VersionDef
}

// Versions returns the package's version definitions ordered newest first.
// The returned slice is owned by the package; callers must not mutate it.
//
// goarxivlint:owned borrowed view; callers must not mutate
func (p *Package) Versions() []VersionDef { return p.versions }

// NumVersions returns the number of available versions.
func (p *Package) NumVersions() int { return len(p.versions) }

// Newest returns the highest available version; the zero Version if the
// package has none.
func (p *Package) Newest() version.Version {
	if len(p.versions) == 0 {
		return version.Version{}
	}
	return p.versions[0].Version
}

// IndexOf returns the newest-first index of v among the package's
// versions, or -1 when absent. Skeleton extension uses it to re-locate a
// version's slot after delta insertions shift indices.
func (p *Package) IndexOf(v version.Version) int { return p.indexOf(v) }

// indexOf returns the newest-first index of v, or -1 when absent.
func (p *Package) indexOf(v version.Version) int {
	for i := range p.versions {
		if p.versions[i].Version.Equal(v) {
			return i
		}
	}
	return -1
}

// Provider is one entry of the virtual-name index: a concrete (package,
// version) providing a virtual at a provided virtual version.
type Provider struct {
	Pkg      string          // providing package name
	Version  version.Version // the provider's own version
	Provided version.Version // virtual version it provides
}

// Candidate is one concrete (package, version) able to satisfy a
// requirement on a name. Matched is the version requirement ranges are
// compared against: the package's own version for a concrete target, the
// provided virtual version for a provider of a virtual.
type Candidate struct {
	Pkg     string
	Index   int             // into Package.Versions() (newest first)
	Version version.Version // the candidate package's own version
	Matched version.Version // version matched against requirement ranges
}

// Universe is a catalog of packages that resolution requests are solved
// against. The zero value is not usable; call New.
type Universe struct {
	pkgs     map[string]*Package
	virtuals map[string][]Provider // virtual name -> providers (canonical order)

	// names memoizes the sorted package-name slice (read-heavy: every
	// fingerprint and skeleton encode walks it). Add invalidates it;
	// Apply updates it incrementally (copy-on-write merge). atomic so
	// concurrent readers (e.g. pool shards fingerprinting lazily)
	// never race; racing rebuilders produce identical slices.
	names atomic.Pointer[[]string]

	// fp memoizes the content fingerprint. Add invalidates it; Apply
	// replaces it with the delta-chained hash in O(delta).
	fp atomic.Pointer[string]

	// epoch counts applied deltas; live marks the universe as
	// delta-managed, freezing direct Add mutation.
	epoch Epoch
	live  bool
}

// New returns an empty universe.
func New() *Universe {
	return &Universe{
		pkgs:     make(map[string]*Package),
		virtuals: make(map[string][]Provider),
	}
}

// Add declares one (package, version) with its declarations. It panics on a
// malformed version string or a duplicate (package, version) pair:
// universes are static catalogs built from literals, and a silent overwrite
// would hide definition bugs. Add is not safe for use concurrent with
// readers; build the universe fully before sharing it. Once the universe
// has gone live (its first Apply), Add panics: further growth must arrive
// as epoch-versioned deltas.
func (u *Universe) Add(pkg, ver string, decls ...Decl) {
	if u.live {
		panic("repo: Add on a live universe (after Apply); use a Delta")
	}
	v := version.MustParse(ver)
	def := VersionDef{Version: v}
	for _, d := range decls {
		switch d := d.(type) {
		case Dependency:
			def.Deps = append(def.Deps, d)
		case Conflict:
			def.Conflicts = append(def.Conflicts, d)
		case Provides:
			def.Provides = append(def.Provides, d)
		}
	}
	if p, ok := u.pkgs[pkg]; ok && p.indexOf(v) >= 0 {
		panic(fmt.Sprintf("repo: duplicate version %s@%s", pkg, ver))
	}
	u.insertDef(pkg, def)
	u.names.Store(nil) // invalidate the memoized sorted name slice
	u.fp.Store(nil)    // invalidate the memoized fingerprint
}

// insertDef inserts one version definition keeping newest-first order and
// indexes its provides declarations. The caller has already rejected
// duplicates (Add panics, Apply validates).
func (u *Universe) insertDef(pkg string, def VersionDef) {
	p := u.pkgs[pkg]
	if p == nil {
		p = &Package{Name: pkg}
		u.pkgs[pkg] = p
	}
	i := sort.Search(len(p.versions), func(i int) bool {
		return p.versions[i].Version.Compare(def.Version) <= 0
	})
	p.versions = append(p.versions, VersionDef{})
	copy(p.versions[i+1:], p.versions[i:])
	p.versions[i] = def

	for _, pr := range def.Provides {
		u.addProvider(pr.Virtual, Provider{Pkg: pkg, Version: def.Version, Provided: pr.Version})
	}
}

// addProvider inserts into the virtual index keeping canonical order:
// provider package name ascending, then provider version newest first, then
// provided version newest first. Canonical order makes every index-derived
// artifact (encodings, reachability walks) independent of Add order.
func (u *Universe) addProvider(virtual string, pr Provider) {
	provs := u.virtuals[virtual]
	i := sort.Search(len(provs), func(i int) bool {
		if provs[i].Pkg != pr.Pkg {
			return provs[i].Pkg > pr.Pkg
		}
		if c := provs[i].Version.Compare(pr.Version); c != 0 {
			return c < 0
		}
		return provs[i].Provided.Compare(pr.Provided) <= 0
	})
	provs = append(provs, Provider{})
	copy(provs[i+1:], provs[i:])
	provs[i] = pr
	u.virtuals[virtual] = provs
}

// Package looks up a package by name.
func (u *Universe) Package(name string) (*Package, bool) {
	p, ok := u.pkgs[name]
	return p, ok
}

// IsVirtual reports whether name is a virtual (has at least one provider).
// A name that is both a concrete package and a virtual target is a
// validation error; lookups resolve the package first.
func (u *Universe) IsVirtual(name string) bool {
	_, ok := u.virtuals[name]
	return ok
}

// Virtual returns the providers of a virtual name in canonical order. The
// returned slice is owned by the universe; callers must not mutate it.
//
// goarxivlint:owned borrowed view; callers must not mutate
func (u *Universe) Virtual(name string) ([]Provider, bool) {
	provs, ok := u.virtuals[name]
	return provs, ok
}

// VirtualNames returns all virtual names in sorted order.
func (u *Universe) VirtualNames() []string {
	names := make([]string, 0, len(u.virtuals))
	for n := range u.virtuals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NumVirtuals returns the number of virtual names with at least one
// provider.
func (u *Universe) NumVirtuals() int { return len(u.virtuals) }

// Candidates enumerates the concrete (package, version) selections able to
// satisfy a requirement on name: the package's own versions when name is a
// concrete package, or every provider entry (carrying its provided virtual
// version as Matched) when name is a virtual. ok is false when the name is
// neither. This is the single lowering interface requirement targets,
// condition triggers, and request roots all resolve through.
func (u *Universe) Candidates(name string) ([]Candidate, bool) {
	if p, ok := u.pkgs[name]; ok {
		out := make([]Candidate, len(p.versions))
		for i := range p.versions {
			v := p.versions[i].Version
			out[i] = Candidate{Pkg: name, Index: i, Version: v, Matched: v}
		}
		return out, true
	}
	if provs, ok := u.virtuals[name]; ok {
		out := make([]Candidate, 0, len(provs))
		for _, pr := range provs {
			p := u.pkgs[pr.Pkg]
			out = append(out, Candidate{
				Pkg:     pr.Pkg,
				Index:   p.indexOf(pr.Version),
				Version: pr.Version,
				Matched: pr.Provided,
			})
		}
		return out, true
	}
	return nil, false
}

// TargetPackages returns the concrete package names a requirement on name
// can resolve to: {name} for a package, the deduplicated sorted provider
// package set for a virtual, nil for an unknown name. Reachability walks
// traverse requirement edges through it.
func (u *Universe) TargetPackages(name string) []string {
	if _, ok := u.pkgs[name]; ok {
		return []string{name}
	}
	provs, ok := u.virtuals[name]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(provs))
	for _, pr := range provs { // canonical order: grouped by package name
		if len(out) == 0 || out[len(out)-1] != pr.Pkg {
			out = append(out, pr.Pkg)
		}
	}
	return out
}

// Names returns all package names in sorted order. The slice is memoized
// (rebuilt after Add) and shared: callers must not mutate it.
//
// goarxivlint:owned memoized shared slice; callers must not mutate
func (u *Universe) Names() []string {
	if cached := u.names.Load(); cached != nil {
		return *cached
	}
	names := make([]string, 0, len(u.pkgs))
	for n := range u.pkgs {
		names = append(names, n)
	}
	sort.Strings(names)
	u.names.Store(&names)
	return names
}

// NumPackages returns the number of packages in the universe.
func (u *Universe) NumPackages() int { return len(u.pkgs) }

// NumVersions returns the total number of (package, version) pairs.
func (u *Universe) NumVersions() int {
	n := 0
	for _, p := range u.pkgs {
		n += len(p.versions)
	}
	return n
}

// fingerprintTag versions the Fingerprint serialization. It is bumped
// whenever the serialized declaration schema changes (v2: provides lines
// and condition fields), so cache keys derived from universes written under
// an older schema can never collide with keys written under the current
// one.
const fingerprintTag = "go-arxiv-universe-v2\n"

// Fingerprint returns a stable content hash of the universe: the SHA-256
// (hex) of a canonical serialization covering every package name, its
// versions newest-first, and each version's dependency, conflict, and
// provides declarations — including condition triggers — with their ranges.
// Two universes built from the same declarations hash identically
// regardless of Add order (version insertion is sorted); any change to a
// name, version, range, provided virtual, or condition changes the hash.
// The serialization carries a schema tag, so a schema change (new
// declaration kinds) changes every hash at once.
//
// The hash is memoized: the full O(universe) serialization runs at most
// once per mutation. On a live universe, Apply replaces the memo with a
// delta-chained hash (previous fingerprint + canonical delta), so
// fingerprinting stays O(delta) per epoch; the chained value identifies
// the universe's delta history, meaning two universes with identical
// content reached through different delta partitionings hash differently.
func (u *Universe) Fingerprint() string {
	if cached := u.fp.Load(); cached != nil {
		return *cached
	}
	h := sha256.New()
	h.Write([]byte(fingerprintTag))
	for _, name := range u.Names() {
		p := u.pkgs[name]
		fmt.Fprintf(h, "p %q\n", name)
		for _, def := range p.versions {
			fmt.Fprintf(h, "v %q\n", def.Version.String())
			for _, d := range def.Deps {
				fmt.Fprintf(h, "d %q %q %q %q\n", d.Pkg, d.Range.String(), d.When.Pkg, d.When.Range.String())
			}
			for _, c := range def.Conflicts {
				fmt.Fprintf(h, "c %q %q %q %q\n", c.Pkg, c.Range.String(), c.When.Pkg, c.When.Range.String())
			}
			for _, pr := range def.Provides {
				fmt.Fprintf(h, "P %q %q\n", pr.Virtual, pr.Version.String())
			}
		}
	}
	fp := hex.EncodeToString(h.Sum(nil))
	u.fp.Store(&fp)
	return fp
}

// Validate checks declaration integrity, collecting every violation and
// returning them joined via errors.Join (nil when the universe is sound):
//
//   - every dependency and conflict target must name a package or a virtual
//     with at least one provider;
//   - every condition trigger must likewise name a package or a virtual;
//   - a virtual name must not collide with a concrete package name (the
//     namespaces are resolved package-first everywhere, so a collision
//     would shadow the providers).
//
// A dependency range that no candidate satisfies is NOT an error — it is a
// legitimate (unsatisfiable) constraint the solver reports as such.
func (u *Universe) Validate() error {
	var errs []error
	for _, virt := range u.VirtualNames() {
		if _, ok := u.pkgs[virt]; ok {
			provs := u.virtuals[virt]
			errs = append(errs, fmt.Errorf(
				"repo: virtual %q (provided by %s@%s) collides with a concrete package name",
				virt, provs[0].Pkg, provs[0].Version))
		}
	}
	known := func(name string) bool {
		if _, ok := u.pkgs[name]; ok {
			return true
		}
		return u.IsVirtual(name)
	}
	for _, name := range u.Names() {
		p := u.pkgs[name]
		for _, def := range p.versions {
			checkWhen := func(kind string, w Condition) {
				if !w.IsZero() && !known(w.Pkg) {
					errs = append(errs, fmt.Errorf("repo: %s@%s %s condition triggers on unknown name %q",
						name, def.Version, kind, w.Pkg))
				}
			}
			for _, d := range def.Deps {
				if !known(d.Pkg) {
					errs = append(errs, fmt.Errorf("repo: %s@%s depends on unknown name %q",
						name, def.Version, d.Pkg))
				}
				checkWhen("dependency", d.When)
			}
			for _, c := range def.Conflicts {
				if !known(c.Pkg) {
					errs = append(errs, fmt.Errorf("repo: %s@%s conflicts with unknown name %q",
						name, def.Version, c.Pkg))
				}
				checkWhen("conflict", c.When)
			}
		}
	}
	return errors.Join(errs...)
}
