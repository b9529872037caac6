package repo

import (
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

func TestAddOrdersNewestFirst(t *testing.T) {
	u := New()
	u.Add("zlib", "1.2.8")
	u.Add("zlib", "1.2.11")
	u.Add("zlib", "1.1")
	p, ok := u.Package("zlib")
	if !ok {
		t.Fatal("zlib not found")
	}
	var got []string
	for _, def := range p.Versions() {
		got = append(got, def.Version.String())
	}
	want := []string{"1.2.11", "1.2.8", "1.1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("versions = %v, want %v", got, want)
	}
	if p.Newest().String() != "1.2.11" {
		t.Errorf("Newest = %s", p.Newest())
	}
}

func TestAddDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add should panic")
		}
	}()
	u := New()
	u.Add("zlib", "1.2.8")
	u.Add("zlib", "1.2.8")
}

func TestDeclsRecorded(t *testing.T) {
	u := New()
	u.Add("libdwarf", "20130729",
		Dep("libelf", "0.8.12"),
		Confl("mpich", ":"))
	u.Add("libelf", "0.8.12")
	u.Add("mpich", "3.0.4")
	p, _ := u.Package("libdwarf")
	def := p.Versions()[0]
	if len(def.Deps) != 1 || def.Deps[0].Pkg != "libelf" {
		t.Errorf("deps = %+v", def.Deps)
	}
	if !def.Deps[0].Range.Satisfies(version.MustParse("0.8.12")) {
		t.Error("dep range should admit 0.8.12")
	}
	if len(def.Conflicts) != 1 || def.Conflicts[0].Pkg != "mpich" {
		t.Errorf("conflicts = %+v", def.Conflicts)
	}
	if err := u.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateUnknownReferences(t *testing.T) {
	u := New()
	u.Add("a", "1.0", Dep("ghost", ":"))
	if err := u.Validate(); err == nil {
		t.Error("Validate should reject dependency on unknown package")
	}
	u2 := New()
	u2.Add("a", "1.0", Confl("ghost", ":"))
	if err := u2.Validate(); err == nil {
		t.Error("Validate should reject conflict with unknown package")
	}
}

// TestValidateReportsAllErrors: Validate collects every integrity
// violation via errors.Join instead of stopping at the first — one pass
// over a broken universe names each problem.
func TestValidateReportsAllErrors(t *testing.T) {
	u := New()
	u.Add("a", "1.0",
		Dep("ghostdep", ":"),
		Confl("ghostconfl", ":"),
		DepWhen("b", ":", "ghosttrigger", "2:"),
		ConflWhen("b", ":", "ghosttrigger2", ":"))
	u.Add("b", "1.0", Prov("a", "1.0")) // virtual "a" collides with package "a"
	err := u.Validate()
	if err == nil {
		t.Fatal("Validate accepted a universe with five violations")
	}
	for _, want := range []string{
		"ghostdep", "ghostconfl", "ghosttrigger", "ghosttrigger2", "collides",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q:\n%v", want, err)
		}
	}
}

// TestValidateVirtualReferences: dependency, conflict, and trigger targets
// naming a virtual (with at least one provider) are sound; Provides itself
// introduces the virtual.
func TestValidateVirtualReferences(t *testing.T) {
	u := New()
	u.Add("app", "1.0",
		Dep("mpi", "2:"),
		ConflWhen("mpi", ":1", "toggle", ":"),
		DepWhen("extra", ":", "mpi", "3:"))
	u.Add("ompi", "4.0", Prov("mpi", "3.0"))
	u.Add("toggle", "1.0")
	u.Add("extra", "1.0")
	if err := u.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNamesAndCounts(t *testing.T) {
	u, root := SynthDiamond(3, 4)
	if root != "app" {
		t.Errorf("root = %q", root)
	}
	// app + 3 mids + base
	if got := u.NumPackages(); got != 5 {
		t.Errorf("NumPackages = %d, want 5", got)
	}
	if got := u.NumVersions(); got != 20 {
		t.Errorf("NumVersions = %d, want 20", got)
	}
	names := u.Names()
	want := []string{"app", "base", "mid0", "mid1", "mid2"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("Names = %v, want %v", names, want)
	}
}

func TestSynthGeneratorsValidateAndAreDeterministic(t *testing.T) {
	type gen struct {
		name  string
		build func() (*Universe, string)
	}
	gens := []gen{
		{"diamond", func() (*Universe, string) { return SynthDiamond(4, 5) }},
		{"chain", func() (*Universe, string) { return SynthChain(8, 4) }},
		{"dense", func() (*Universe, string) { return SynthDense(12, 4, 3, 7) }},
		{"unsatweb", func() (*Universe, string) { return SynthUnsatWeb(4, 3) }},
		{"virtualdiamond", func() (*Universe, string) { return SynthVirtualDiamond(3, 2, 4) }},
		{"condchain", func() (*Universe, string) { return SynthConditionalChain(5, 3) }},
	}
	for _, g := range gens {
		u1, root1 := g.build()
		u2, root2 := g.build()
		if err := u1.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", g.name, err)
		}
		if root1 != root2 {
			t.Errorf("%s: roots differ: %q vs %q", g.name, root1, root2)
		}
		if !reflect.DeepEqual(u1.Names(), u2.Names()) {
			t.Errorf("%s: package sets differ between runs", g.name)
		}
		// Structural determinism: identical version lists and declarations.
		for _, name := range u1.Names() {
			p1, _ := u1.Package(name)
			p2, _ := u2.Package(name)
			if !reflect.DeepEqual(p1.Versions(), p2.Versions()) {
				t.Errorf("%s: package %s differs between runs", g.name, name)
			}
		}
	}
}

// TestVirtualIndexAndCandidates: the virtual-name index is canonical
// (provider order independent of Add order) and Candidates unifies the
// package and virtual namespaces, carrying the matched version each.
func TestVirtualIndexAndCandidates(t *testing.T) {
	build := func(flip bool) *Universe {
		u := New()
		add := func() {
			u.Add("ompi", "4.0", Prov("mpi", "3.0"))
			u.Add("ompi", "3.0", Prov("mpi", "2.1"))
		}
		if flip {
			u.Add("mpich", "1.5", Prov("mpi", "1.0"))
			add()
		} else {
			add()
			u.Add("mpich", "1.5", Prov("mpi", "1.0"))
		}
		return u
	}
	a, b := build(false), build(true)
	if !a.IsVirtual("mpi") || a.IsVirtual("ompi") || a.NumVirtuals() != 1 {
		t.Fatalf("virtual index wrong: %v", a.VirtualNames())
	}
	pa, _ := a.Virtual("mpi")
	pb, _ := b.Virtual("mpi")
	if !reflect.DeepEqual(pa, pb) {
		t.Errorf("provider order depends on Add order:\n a: %v\n b: %v", pa, pb)
	}

	cands, ok := a.Candidates("mpi")
	if !ok || len(cands) != 3 {
		t.Fatalf("Candidates(mpi) = %v, %v", cands, ok)
	}
	for _, c := range cands {
		p, _ := a.Package(c.Pkg)
		if !p.Versions()[c.Index].Version.Equal(c.Version) {
			t.Errorf("candidate %v: Index does not address Version", c)
		}
		if c.Matched.Equal(c.Version) {
			t.Errorf("virtual candidate %v: Matched should be the provided version", c)
		}
	}
	pkgCands, ok := a.Candidates("ompi")
	if !ok || len(pkgCands) != 2 || !pkgCands[0].Matched.Equal(pkgCands[0].Version) {
		t.Errorf("package candidates wrong: %v, %v", pkgCands, ok)
	}
	if _, ok := a.Candidates("ghost"); ok {
		t.Error("Candidates accepted an unknown name")
	}

	if got := a.TargetPackages("mpi"); !reflect.DeepEqual(got, []string{"mpich", "ompi"}) {
		t.Errorf("TargetPackages(mpi) = %v", got)
	}
	if got := a.TargetPackages("ompi"); !reflect.DeepEqual(got, []string{"ompi"}) {
		t.Errorf("TargetPackages(ompi) = %v", got)
	}
	if got := a.TargetPackages("ghost"); got != nil {
		t.Errorf("TargetPackages(ghost) = %v, want nil", got)
	}
}

// TestNamesMemoized: Names is sorted and reflects every Add.
func TestNamesMemoized(t *testing.T) {
	u := New()
	u.Add("b", "1.0")
	u.Add("a", "1.0")
	if n := u.Names(); !reflect.DeepEqual(n, []string{"a", "b"}) {
		t.Fatalf("Names = %v", n)
	}
	u.Add("c", "1.0")
	if got := u.Names(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Names after Add = %v", got)
	}
}

func TestSynthChainShape(t *testing.T) {
	u, root := SynthChain(5, 3)
	if root != "chain0" {
		t.Errorf("root = %q", root)
	}
	if u.NumPackages() != 5 || u.NumVersions() != 15 {
		t.Errorf("got %d pkgs %d versions", u.NumPackages(), u.NumVersions())
	}
	// Last link has no deps; first links have exactly one per version.
	last, _ := u.Package("chain4")
	for _, def := range last.Versions() {
		if len(def.Deps) != 0 {
			t.Errorf("chain4@%s should have no deps", def.Version)
		}
	}
	first, _ := u.Package("chain0")
	for _, def := range first.Versions() {
		if len(def.Deps) != 1 || def.Deps[0].Pkg != "chain1" {
			t.Errorf("chain0@%s deps = %+v", def.Version, def.Deps)
		}
	}
}
