package repo

import (
	"strings"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

func TestProfileCanonicalAndFingerprint(t *testing.T) {
	a := Profile{"zlib": version.MustParse("1.2"), "app": version.MustParse("3.0")}
	if got, want := a.Canonical(), "app@3.0,zlib@1.2"; got != want {
		t.Fatalf("Canonical = %q, want %q", got, want)
	}
	b := ProfileOf(map[string]version.Version{
		"app":  version.MustParse("3.0"),
		"zlib": version.MustParse("1.2"),
	})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal profiles must fingerprint identically")
	}
	b["zlib"] = version.MustParse("1.3")
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different profiles must fingerprint differently")
	}
	if Profile(nil).Canonical() != "" {
		t.Fatal("empty profile canonical form must be empty")
	}
}

func TestProfileValidate(t *testing.T) {
	u := New()
	u.Add("zlib", "1.2")
	if err := (Profile{"zlib": version.MustParse("1.2")}).Validate(u); err != nil {
		t.Fatalf("valid profile: %v", err)
	}
	// A version missing from the catalog is allowed (stale install)...
	if err := (Profile{"zlib": version.MustParse("9.9")}).Validate(u); err != nil {
		t.Fatalf("stale version must validate: %v", err)
	}
	// ...but an unknown package is not.
	err := (Profile{"ghost": version.MustParse("1.0")}).Validate(u)
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("unknown package: err = %v", err)
	}
}

func TestProfileVersionIndex(t *testing.T) {
	u := New()
	u.Add("zlib", "1.2")
	u.Add("zlib", "1.3")
	u.Add("zlib", "1.4")
	p := Profile{"zlib": version.MustParse("1.3")}
	if got := p.VersionIndex(u, "zlib"); got != 1 {
		t.Fatalf("VersionIndex = %d, want 1 (newest-first)", got)
	}
	if got := p.VersionIndex(u, "ghost"); got != -1 {
		t.Fatalf("unknown package index = %d, want -1", got)
	}
	stale := Profile{"zlib": version.MustParse("0.9")}
	if got := stale.VersionIndex(u, "zlib"); got != -1 {
		t.Fatalf("stale version index = %d, want -1", got)
	}
}

func TestSynthPigeonhole(t *testing.T) {
	u, root := SynthPigeonhole(4)
	if root != "nest" {
		t.Fatalf("root = %q", root)
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	// pigeons + nest packages; each pigeon has pigeons-1 versions.
	if got, want := u.NumPackages(), 5; got != want {
		t.Fatalf("NumPackages = %d, want %d", got, want)
	}
	if got, want := u.NumVersions(), 1+4*3; got != want {
		t.Fatalf("NumVersions = %d, want %d", got, want)
	}
	// Determinism.
	u2, _ := SynthPigeonhole(4)
	if !sameContent(u, u2) {
		t.Fatal("SynthPigeonhole must be deterministic")
	}
}
