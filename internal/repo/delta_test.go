package repo

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// seedUniverse builds the base catalog the delta tests grow.
func seedUniverse() *Universe {
	u := New()
	u.Add("app", "2.0", Dep("lib", "1:"))
	u.Add("app", "1.0", Dep("lib", ":"))
	u.Add("lib", "1.5", Dep("base", ":"))
	u.Add("lib", "1.0")
	u.Add("base", "1.0")
	u.Add("mpich", "3.0", Prov("mpi", "3.0"))
	return u
}

func TestApplyGrowsUniverse(t *testing.T) {
	u := seedUniverse()
	if u.Epoch() != 0 || u.Live() {
		t.Fatalf("fresh universe: epoch=%d live=%v", u.Epoch(), u.Live())
	}

	d := NewDelta()
	d.Add("lib", "2.0", Dep("base", ":"))
	d.Add("newpkg", "1.0", Dep("lib", "2:"))
	d.Add("openmpi", "4.0", Prov("mpi", "4.0"))
	epoch, err := u.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || u.Epoch() != 1 || !u.Live() {
		t.Fatalf("after Apply: epoch=%d live=%v", u.Epoch(), u.Live())
	}

	lib, _ := u.Package("lib")
	if lib.NumVersions() != 3 || lib.Newest().String() != "2.0" {
		t.Fatalf("lib after delta: %d versions, newest %s", lib.NumVersions(), lib.Newest())
	}
	if lib.IndexOf(version.MustParse("2.0")) != 0 || lib.IndexOf(version.MustParse("1.0")) != 2 {
		t.Fatalf("lib version order wrong after insert")
	}
	if _, ok := u.Package("newpkg"); !ok {
		t.Fatalf("newpkg missing after delta")
	}
	provs, ok := u.Virtual("mpi")
	if !ok || len(provs) != 2 {
		t.Fatalf("mpi providers after delta: %v ok=%v", provs, ok)
	}
}

func TestApplyFreezesDirectAdd(t *testing.T) {
	u := seedUniverse()
	d := NewDelta()
	d.Add("base", "2.0")
	if _, err := u.Apply(d); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Add on a live universe did not panic")
		}
	}()
	u.Add("base", "3.0")
}

// TestApplyKeepsMemoizedNamesWarm: after Apply, Names is the sorted union
// of the old names and the delta's new packages, and a slice Names
// returned before Apply is left as it was.
func TestApplyKeepsMemoizedNamesWarm(t *testing.T) {
	u := seedUniverse()
	before := u.Names()
	snapshot := append([]string(nil), before...)

	d := NewDelta()
	d.Add("aaa", "1.0")
	d.Add("zzz", "1.0")
	d.Add("lib", "9.0") // existing package: no name change
	if _, err := u.Apply(d); err != nil {
		t.Fatal(err)
	}
	after := u.Names()
	want := append([]string{"aaa", "zzz"}, snapshot...)
	sort.Strings(want)
	if strings.Join(after, ",") != strings.Join(want, ",") {
		t.Fatalf("merged names = %v, want %v", after, want)
	}
	if strings.Join(before, ",") != strings.Join(snapshot, ",") {
		t.Fatalf("pre-Apply names slice mutated in place")
	}
}

// TestDeltaApplyIndependentOfAddOrder: versions and providers are inserted
// sorted, so the order of a delta's Add calls does not change the grown
// catalog.
func TestDeltaApplyIndependentOfAddOrder(t *testing.T) {
	build := func(addOrder []int) *Universe {
		u := seedUniverse()
		d := NewDelta()
		adds := []func(){
			func() { d.Add("lib", "2.0", Dep("base", ":")) },
			func() { d.Add("extra", "1.0") },
			func() { d.Add("lib", "3.0") },
		}
		for _, i := range addOrder {
			adds[i]()
		}
		if _, err := u.Apply(d); err != nil {
			t.Fatal(err)
		}
		return u
	}

	if !sameContent(build([]int{0, 1, 2}), build([]int{2, 0, 1})) {
		t.Fatal("grown catalog depends on Add call order")
	}
}

func TestDeltaValidateRejects(t *testing.T) {
	cases := []struct {
		name  string
		build func(d *Delta)
		want  string
	}{
		{"dup within delta", func(d *Delta) {
			d.Add("extra", "1.0")
			d.Add("extra", "1.0")
		}, "twice"},
		{"dup vs universe", func(d *Delta) {
			d.Add("lib", "1.5")
		}, "re-adds existing version"},
		{"virtual collides with package", func(d *Delta) {
			d.Add("extra", "1.0", Prov("base", "1.0"))
		}, "collides with a concrete package"},
		{"package collides with virtual", func(d *Delta) {
			d.Add("mpi", "1.0")
		}, "collides with an existing virtual"},
		{"unknown dep target", func(d *Delta) {
			d.Add("extra", "1.0", Dep("ghost", ":"))
		}, "depends on unknown name"},
		{"unknown conflict target", func(d *Delta) {
			d.Add("extra", "1.0", Confl("ghost", ":"))
		}, "conflicts with unknown name"},
		{"unknown trigger", func(d *Delta) {
			d.Add("extra", "1.0", DepWhen("lib", ":", "ghost", ":"))
		}, "triggers on unknown name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := seedUniverse()
			d := NewDelta()
			tc.build(d)
			epoch, err := u.Apply(d)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Apply error = %v, want substring %q", err, tc.want)
			}
			if epoch != 0 || u.Epoch() != 0 || u.Live() {
				t.Fatalf("failed Apply advanced the epoch")
			}
			if !sameContent(u, seedUniverse()) {
				t.Fatalf("failed Apply mutated the universe")
			}
		})
	}

	// Forward references within one delta are legal: a new package may
	// depend on another new package or newly provided virtual.
	u := seedUniverse()
	d := NewDelta()
	d.Add("front", "1.0", Dep("back", ":"), Dep("newvirt", ":"))
	d.Add("back", "1.0", Prov("newvirt", "1.0"))
	if _, err := u.Apply(d); err != nil {
		t.Fatalf("forward-referencing delta rejected: %v", err)
	}
}

// TestApplyRejectsWholeDelta: Apply is all or nothing. A delta whose last
// entry is invalid leaves none of its valid entries behind: not a new
// version of an existing package, and not a new provider of an existing
// virtual.
func TestApplyRejectsWholeDelta(t *testing.T) {
	u := seedUniverse()
	d := NewDelta()
	d.Add("lib", "3.0", Dep("base", ":"))
	d.Add("openmpi", "4.0", Prov("mpi", "4.0"))
	d.Add("extra", "1.0", Dep("ghost", ":"))
	if _, err := u.Apply(d); err == nil {
		t.Fatal("delta with an unknown dependency target applied")
	}
	if !sameContent(u, seedUniverse()) {
		t.Fatal("rejected delta left some of its entries behind")
	}
	if p, _ := u.Package("lib"); len(p.Versions()) != 2 {
		t.Fatalf("lib has %d versions after a rejected delta, want 2", len(p.Versions()))
	}
	if provs, _ := u.Virtual("mpi"); len(provs) != 1 {
		t.Fatalf("mpi has %d providers after a rejected delta, want 1", len(provs))
	}
}

// FuzzDeltaApply drives random delta streams against a seed universe:
// every valid delta must apply with a strictly increasing epoch and leave
// the same catalog as an independent replay of the same history, and the
// grown universe must be structurally identical to one built from scratch
// with the same content; injected invalid deltas must be rejected without
// mutating anything.
func FuzzDeltaApply(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x10, 0xff}, uint8(3))
	f.Add([]byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0x07, 0x31}, uint8(5))
	f.Add([]byte{0x00}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, steps uint8) {
		next := func(i int) int {
			if len(data) == 0 {
				return 0
			}
			return int(data[i%len(data)])
		}
		u := seedUniverse()
		shadow := seedUniverse() // replays the valid deltas only
		fresh := New()           // accumulates the union via direct Add
		union := []struct {
			pkg, ver string
			decls    []Decl
		}{
			{"app", "2.0", []Decl{Dep("lib", "1:")}},
			{"app", "1.0", []Decl{Dep("lib", ":")}},
			{"lib", "1.5", []Decl{Dep("base", ":")}},
			{"lib", "1.0", nil},
			{"base", "1.0", nil},
			{"mpich", "3.0", []Decl{Prov("mpi", "3.0")}},
		}

		nSteps := int(steps%8) + 1
		verSeq := 100 // fresh version numbers, never colliding with the seed
		pkgSeq := 0
		for step := 0; step < nSteps; step++ {
			d := NewDelta()
			nAdds := next(step)%3 + 1
			invalid := next(step+7)%5 == 0 // one in five deltas is poisoned
			for a := 0; a < nAdds; a++ {
				sel := next(step*13 + a*3)
				verSeq++
				ver := fmt.Sprintf("%d.0", verSeq)
				var pkg string
				var decls []Decl
				switch sel % 4 {
				case 0: // new version of an existing package
					pkg = []string{"app", "lib", "base"}[sel%3]
					decls = []Decl{Dep("base", ":")}
					if pkg == "base" {
						decls = nil
					}
				case 1: // brand-new package depending into the seed
					pkgSeq++
					pkg = fmt.Sprintf("fz%d", pkgSeq)
					decls = []Decl{Dep("lib", ":")}
				case 2: // new provider of the seed virtual
					pkgSeq++
					pkg = fmt.Sprintf("fzp%d", pkgSeq)
					decls = []Decl{Prov("mpi", ver)}
				case 3: // conditional declaration riding on seed names
					pkg = "lib"
					decls = []Decl{DepWhen("base", ":", "app", ":")}
				}
				d.Add(pkg, ver, decls...)
				if !invalid {
					union = append(union, struct {
						pkg, ver string
						decls    []Decl
					}{pkg, ver, decls})
				}
			}
			if invalid {
				d.Add("ix", "1.0", Dep("no-such-name", ":")) // poison pill
			}

			preEpoch := u.Epoch()
			epoch, err := u.Apply(d)
			if invalid {
				if err == nil {
					t.Fatalf("step %d: poisoned delta applied", step)
				}
				if u.Epoch() != preEpoch || !sameContent(u, shadow) {
					t.Fatalf("step %d: rejected delta mutated the universe", step)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: valid delta rejected: %v", step, err)
			}
			if epoch != preEpoch+1 {
				t.Fatalf("step %d: epoch %d after %d", step, epoch, preEpoch)
			}
			if _, err := shadow.Apply(d); err != nil {
				t.Fatalf("step %d: shadow replay rejected: %v", step, err)
			}
			if !sameContent(u, shadow) {
				t.Fatalf("step %d: replay does not reproduce the catalog", step)
			}
		}

		// Structural equivalence with a from-scratch build of the union.
		for _, a := range union {
			fresh.Add(a.pkg, a.ver, a.decls...)
		}
		if got, want := u.Names(), fresh.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("names diverge from scratch build:\n  live:  %v\n  fresh: %v", got, want)
		}
		for _, name := range u.Names() {
			lp, _ := u.Package(name)
			fp, _ := fresh.Package(name)
			if lp.NumVersions() != fp.NumVersions() {
				t.Fatalf("%s: %d versions live, %d fresh", name, lp.NumVersions(), fp.NumVersions())
			}
			for i := range lp.Versions() {
				if !lp.Versions()[i].Version.Equal(fp.Versions()[i].Version) {
					t.Fatalf("%s: version order diverges at %d", name, i)
				}
			}
		}
		lv, fv := u.VirtualNames(), fresh.VirtualNames()
		if strings.Join(lv, ",") != strings.Join(fv, ",") {
			t.Fatalf("virtuals diverge: %v vs %v", lv, fv)
		}
		for _, virt := range lv {
			lc, _ := u.Candidates(virt)
			fc, _ := fresh.Candidates(virt)
			if len(lc) != len(fc) {
				t.Fatalf("%s: %d candidates live, %d fresh", virt, len(lc), len(fc))
			}
		}
	})
}
