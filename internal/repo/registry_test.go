package repo

import (
	"fmt"
	"testing"
)

// TestSynthRegistryDeterministic: the family is pure arithmetic — two
// builds at the same scale must hold the same catalog, and scale changes
// must change it.
func TestSynthRegistryDeterministic(t *testing.T) {
	a, rootA := SynthRegistry(300, 7)
	b, rootB := SynthRegistry(300, 7)
	if rootA != "reg0" || rootB != "reg0" {
		t.Fatalf("roots %q, %q; want reg0", rootA, rootB)
	}
	if !sameContent(a, b) {
		t.Fatal("same scale, different catalogs")
	}
	c, _ := SynthRegistry(300, 8)
	if sameContent(a, c) {
		t.Fatal("different scales build the same catalog")
	}
}

// TestSynthRegistryShape pins the structural properties the lazy-encoder
// suites lean on: exact package/version counts, validity, a hub tier of
// dependency-free leaves, and sparse near-block fan-out everywhere else —
// the shape that keeps any single root's reachable closure tiny relative
// to the registry.
func TestSynthRegistryShape(t *testing.T) {
	const pkgs, versions = 300, 7
	u, root := SynthRegistry(pkgs, versions)
	if err := u.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := u.NumPackages(); got != pkgs {
		t.Fatalf("NumPackages %d, want %d", got, pkgs)
	}
	if got := u.NumVersions(); got != pkgs*versions {
		t.Fatalf("NumVersions %d, want %d", got, pkgs*versions)
	}

	hubs := pkgs / 8
	if hubs > 32 {
		hubs = 32
	}
	hubStart := pkgs - hubs
	for i := 0; i < pkgs; i++ {
		p, ok := u.Package(fmt.Sprintf("reg%d", i))
		if !ok {
			t.Fatalf("missing package reg%d", i)
		}
		if got := len(p.Versions()); got != versions {
			t.Fatalf("reg%d: %d versions, want %d", i, got, versions)
		}
		nDeps := len(p.Versions()[0].Deps)
		if i >= hubStart {
			if nDeps != 0 {
				t.Fatalf("hub reg%d has %d deps, want 0 (hubs are leaves)", i, nDeps)
			}
			continue
		}
		if nDeps < 1 || nDeps > 5 {
			t.Fatalf("reg%d has %d deps, want 1..5 (sparse fan-out)", i, nDeps)
		}
		// Acyclicity by construction: every dependency points strictly
		// forward in package order.
		for _, d := range p.Versions()[0].Deps {
			var j int
			if _, err := fmt.Sscanf(d.Pkg, "reg%d", &j); err != nil || j <= i {
				t.Fatalf("reg%d depends on %s: not strictly forward", i, d.Pkg)
			}
		}
	}

	// The root's reachable closure is bounded by its block plus the hub
	// tier (~90 packages) regardless of registry size — the scale-free
	// bound that gives a lazy encoder its edge.
	reach := map[string]bool{}
	var walk func(name string)
	walk = func(name string) {
		if reach[name] {
			return
		}
		reach[name] = true
		p, _ := u.Package(name)
		for _, def := range p.Versions() {
			for _, d := range def.Deps {
				walk(d.Pkg)
			}
		}
	}
	walk(root)
	if len(reach) < 2 || len(reach) > 120 {
		t.Fatalf("root closure %d of %d packages — registry not sparse", len(reach), pkgs)
	}
}
