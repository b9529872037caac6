package repo

import (
	"reflect"
	"testing"
)

// sameContent reports whether two universes hold the same catalog: equal
// packages with equal version definitions in the same order, and an equal
// provider index. It compares the maps themselves, so no mutation of
// either can hide from it.
func sameContent(a, b *Universe) bool {
	return reflect.DeepEqual(a.pkgs, b.pkgs) && reflect.DeepEqual(a.virtuals, b.virtuals)
}

// TestContentStableAcrossAddOrder: versions and providers are kept
// sorted, so interleaving Add calls differently builds the same catalog.
func TestContentStableAcrossAddOrder(t *testing.T) {
	a := New()
	a.Add("app", "2.0", Dep("lib", ":"))
	a.Add("app", "1.0")
	a.Add("lib", "1.0", Confl("app", "1"))

	b := New()
	b.Add("lib", "1.0", Confl("app", "1"))
	b.Add("app", "1.0")
	b.Add("app", "2.0", Dep("lib", ":"))

	if !sameContent(a, b) {
		t.Error("content differs across Add order")
	}
}

// TestSynthVirtualGeneratorsDeterministic: the virtual/conditional
// families are pure functions of their arguments and carry the
// declarations they advertise.
func TestSynthVirtualGeneratorsDeterministic(t *testing.T) {
	v1, root1 := SynthVirtualDiamond(3, 2, 4)
	v2, root2 := SynthVirtualDiamond(3, 2, 4)
	if root1 != root2 || !sameContent(v1, v2) {
		t.Error("SynthVirtualDiamond not deterministic")
	}
	if v1.NumVirtuals() != 3 {
		t.Errorf("NumVirtuals = %d, want 3", v1.NumVirtuals())
	}
	if provs, _ := v1.Virtual("virt0"); len(provs) != 2*4 {
		t.Errorf("virt0 has %d provider entries, want 8", len(provs))
	}
	if err := v1.Validate(); err != nil {
		t.Errorf("SynthVirtualDiamond invalid: %v", err)
	}

	c1, _ := SynthConditionalChain(4, 3)
	c2, _ := SynthConditionalChain(4, 3)
	if !sameContent(c1, c2) {
		t.Error("SynthConditionalChain not deterministic")
	}
	if err := c1.Validate(); err != nil {
		t.Errorf("SynthConditionalChain invalid: %v", err)
	}
	conds := 0
	for _, name := range c1.Names() {
		p, _ := c1.Package(name)
		for _, def := range p.Versions() {
			for _, d := range def.Deps {
				if !d.When.IsZero() {
					conds++
				}
			}
			for _, cf := range def.Conflicts {
				if !cf.When.IsZero() {
					conds++
				}
			}
		}
	}
	if conds == 0 {
		t.Error("SynthConditionalChain emitted no conditional declarations")
	}
}

// TestSynthDenseConflictsDeterministic: the conflict-bearing generator is a
// pure function of its arguments, degenerates to SynthDense at
// conflictsPer == 0, and actually emits conflicts otherwise.
func TestSynthDenseConflictsDeterministic(t *testing.T) {
	u1, _ := SynthDenseConflicts(12, 4, 3, 2, 77)
	u2, _ := SynthDenseConflicts(12, 4, 3, 2, 77)
	if !sameContent(u1, u2) {
		t.Error("two builds with identical arguments differ")
	}

	plain, _ := SynthDense(12, 4, 3, 77)
	zero, _ := SynthDenseConflicts(12, 4, 3, 0, 77)
	if !sameContent(plain, zero) {
		t.Error("conflictsPer == 0 must reproduce SynthDense exactly")
	}
	if sameContent(u1, plain) {
		t.Error("conflictsPer > 0 produced no observable conflicts")
	}

	conflicts := 0
	for _, name := range u1.Names() {
		p, _ := u1.Package(name)
		for _, def := range p.Versions() {
			conflicts += len(def.Conflicts)
		}
	}
	if conflicts == 0 {
		t.Error("expected at least one conflict declaration")
	}
	if err := u1.Validate(); err != nil {
		t.Errorf("generated universe fails validation: %v", err)
	}
}

// TestSameContentSensitive: the oracle behind the determinism and
// rejected-delta checks sees every kind of content change — an extra
// version, a different range, a dependency turned conflict, a renamed
// package — so those checks cannot pass by comparing too little.
func TestSameContentSensitive(t *testing.T) {
	base := func() *Universe {
		u := New()
		u.Add("app", "1.0", Dep("lib", ":2"))
		u.Add("lib", "1.0")
		return u
	}

	mutations := map[string]func() *Universe{
		"extra version": func() *Universe {
			u := base()
			u.Add("lib", "2.0")
			return u
		},
		"different range": func() *Universe {
			u := New()
			u.Add("app", "1.0", Dep("lib", ":3"))
			u.Add("lib", "1.0")
			return u
		},
		"dep becomes conflict": func() *Universe {
			u := New()
			u.Add("app", "1.0", Confl("lib", ":2"))
			u.Add("lib", "1.0")
			return u
		},
		"renamed package": func() *Universe {
			u := New()
			u.Add("app", "1.0", Dep("lib2", ":2"))
			u.Add("lib2", "1.0")
			return u
		},
	}
	for name, build := range mutations {
		if sameContent(build(), base()) {
			t.Errorf("%s: content change not seen", name)
		}
	}
	if !sameContent(base(), base()) {
		t.Error("identical content compares unequal")
	}
}

// TestSameContentDistinguishesProvidesAndWhen: catalogs that differ only in
// a Provides or When declaration compare unequal, so a check that a
// rejected delta left the provider index or a trigger untouched is real.
func TestSameContentDistinguishesProvidesAndWhen(t *testing.T) {
	builds := map[string]func() *Universe{
		"base": func() *Universe {
			u := New()
			u.Add("app", "1.0", Dep("lib", ":2"))
			u.Add("lib", "1.0")
			return u
		},
		"provides added": func() *Universe {
			u := New()
			u.Add("app", "1.0", Dep("lib", ":2"))
			u.Add("lib", "1.0", Prov("iface", "1.0"))
			return u
		},
		"provided version differs": func() *Universe {
			u := New()
			u.Add("app", "1.0", Dep("lib", ":2"))
			u.Add("lib", "1.0", Prov("iface", "2.0"))
			return u
		},
		"provided virtual renamed": func() *Universe {
			u := New()
			u.Add("app", "1.0", Dep("lib", ":2"))
			u.Add("lib", "1.0", Prov("iface2", "1.0"))
			return u
		},
		"dep gains a condition": func() *Universe {
			u := New()
			u.Add("app", "1.0", DepWhen("lib", ":2", "lib", "1:"))
			u.Add("lib", "1.0")
			return u
		},
		"condition range differs": func() *Universe {
			u := New()
			u.Add("app", "1.0", DepWhen("lib", ":2", "lib", "2:"))
			u.Add("lib", "1.0")
			return u
		},
	}
	for a, buildA := range builds {
		for b, buildB := range builds {
			if a != b && sameContent(buildA(), buildB()) {
				t.Errorf("%s and %s compare equal", a, b)
			}
		}
	}

	uncond := New()
	uncond.Add("app", "1.0", Confl("lib", ":"))
	uncond.Add("lib", "1.0")
	cond := New()
	cond.Add("app", "1.0", ConflWhen("lib", ":", "lib", ":"))
	cond.Add("lib", "1.0")
	if sameContent(uncond, cond) {
		t.Error("conditional and unconditional conflict compare equal")
	}
}
