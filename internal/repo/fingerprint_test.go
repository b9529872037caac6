package repo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// TestFingerprintStableAcrossAddOrder: the hash covers content, not build
// order — versions are kept sorted, so interleaving Add calls differently
// must not change it.
func TestFingerprintStableAcrossAddOrder(t *testing.T) {
	a := New()
	a.Add("app", "2.0", Dep("lib", ":"))
	a.Add("app", "1.0")
	a.Add("lib", "1.0", Confl("app", "1"))

	b := New()
	b.Add("lib", "1.0", Confl("app", "1"))
	b.Add("app", "1.0")
	b.Add("app", "2.0", Dep("lib", ":"))

	fa, fb := a.Fingerprint(), b.Fingerprint()
	if fa != fb {
		t.Errorf("fingerprints differ across Add order:\n a: %s\n b: %s", fa, fb)
	}
	if len(fa) != 64 || strings.Trim(fa, "0123456789abcdef") != "" {
		t.Errorf("fingerprint %q is not lowercase sha256 hex", fa)
	}
}

// TestFingerprintSensitive: any content change — extra version, different
// range, dep vs conflict, renamed target — must change the hash.
func TestFingerprintSensitive(t *testing.T) {
	base := func() *Universe {
		u := New()
		u.Add("app", "1.0", Dep("lib", ":2"))
		u.Add("lib", "1.0")
		return u
	}
	fp := base().Fingerprint()

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
		if got := build().Fingerprint(); got == fp {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
	if got := base().Fingerprint(); got != fp {
		t.Error("fingerprint not reproducible for identical content")
	}
}

// TestFingerprintDistinguishesProvidesAndWhen is the cache-poisoning
// regression test for the richer declaration schema: two universes
// differing ONLY in a Provides or When declaration must hash differently —
// otherwise a fingerprint-keyed cache could serve a resolution computed
// under different provider or trigger semantics.
func TestFingerprintDistinguishesProvidesAndWhen(t *testing.T) {
	base := func() *Universe {
		u := New()
		u.Add("app", "1.0", Dep("lib", ":2"))
		u.Add("lib", "1.0")
		return u
	}
	fp := base().Fingerprint()

	mutations := map[string]func() *Universe{
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
	seen := map[string]string{"base": fp}
	for name, build := range mutations {
		got := build().Fingerprint()
		for prev, prevFP := range seen {
			if got == prevFP {
				t.Errorf("%s: fingerprint collides with %s", name, prev)
			}
		}
		seen[name] = got
	}
	// Conditional vs unconditional conflict must differ too.
	uncond := New()
	uncond.Add("app", "1.0", Confl("lib", ":"))
	uncond.Add("lib", "1.0")
	cond := New()
	cond.Add("app", "1.0", ConflWhen("lib", ":", "lib", ":"))
	cond.Add("lib", "1.0")
	if uncond.Fingerprint() == cond.Fingerprint() {
		t.Error("conditional and unconditional conflict hash identically")
	}
}

// TestFingerprintSchemaTagged: the serialization carries the v2 schema tag,
// so the hash of even a trivially small universe differs from what the
// untagged v1 serialization would produce (guarding against silent schema
// reuse if the tag were dropped).
func TestFingerprintSchemaTagged(t *testing.T) {
	u := New()
	u.Add("solo", "1.0")
	// Recompute what an untagged serialization of this universe hashes to.
	h := sha256.New()
	fmt.Fprintf(h, "p %q\n", "solo")
	fmt.Fprintf(h, "v %q\n", "1.0")
	untagged := hex.EncodeToString(h.Sum(nil))
	if u.Fingerprint() == untagged {
		t.Error("fingerprint is not schema-tagged")
	}
}

// TestSynthVirtualGeneratorsDeterministic: the virtual/conditional
// families are pure functions of their arguments and carry the
// declarations they advertise.
func TestSynthVirtualGeneratorsDeterministic(t *testing.T) {
	v1, root1 := SynthVirtualDiamond(3, 2, 4)
	v2, root2 := SynthVirtualDiamond(3, 2, 4)
	if root1 != root2 || v1.Fingerprint() != v2.Fingerprint() {
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
	if c1.Fingerprint() != c2.Fingerprint() {
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
	if u1.Fingerprint() != u2.Fingerprint() {
		t.Error("two builds with identical arguments differ")
	}

	plain, _ := SynthDense(12, 4, 3, 77)
	zero, _ := SynthDenseConflicts(12, 4, 3, 0, 77)
	if plain.Fingerprint() != zero.Fingerprint() {
		t.Error("conflictsPer == 0 must reproduce SynthDense exactly")
	}
	if u1.Fingerprint() == plain.Fingerprint() {
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
