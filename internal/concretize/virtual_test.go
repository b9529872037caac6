package concretize

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// curatedMPI builds the classic virtual-interface universe: an app depends
// abstractly on "mpi", which no concrete package owns; two providers
// provide it at different virtual versions, and the dependency's range
// filters which providers qualify.
func curatedMPI() *repo.Universe {
	u := repo.New()
	u.Add("app", "2.0", repo.Dep("mpi", "2:"))
	u.Add("app", "1.0", repo.Dep("mpi", ":"))
	u.Add("openmpi", "4.1", repo.Prov("mpi", "3.1"), repo.Dep("zlib", ":"))
	u.Add("openmpi", "3.0", repo.Prov("mpi", "3.0"), repo.Dep("zlib", ":"))
	u.Add("mvapich", "2.3", repo.Prov("mpi", "1.0"))
	u.Add("zlib", "1.3")
	return u
}

// TestVirtualProviderSelection: a dependency on a virtual must install a
// provider whose provided version lies in the range — here only openmpi
// provides mpi at 2 or newer, so app@2.0 forces it (and its own deps).
func TestVirtualProviderSelection(t *testing.T) {
	u := curatedMPI()
	if err := u.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	res := mustConcretize(t, u, []Root{MustParseRoot("app")})
	want := map[string]string{"app": "2.0", "openmpi": "4.1", "zlib": "1.3"}
	if got := pickStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("picks = %v, want %v", got, want)
	}
}

// TestVirtualRootForms: a virtual name works as a request root, both bare
// (package-first fallback) and under the explicit virtual: namespace, with
// provider-range filtering; both forms return identical resolutions.
func TestVirtualRootForms(t *testing.T) {
	u := curatedMPI()
	bare := mustConcretize(t, u, []Root{MustParseRoot("mpi")})
	explicit := mustConcretize(t, u, []Root{MustParseRoot("virtual:mpi")})
	if !reflect.DeepEqual(pickStrings(bare), pickStrings(explicit)) {
		t.Errorf("bare %v vs explicit %v", pickStrings(bare), pickStrings(explicit))
	}
	// An unconstrained virtual root: every provider sits at its own newest
	// version (zero lag either way), so the install count decides — the
	// dependency-free mvapich beats openmpi+zlib.
	want := map[string]string{"mvapich": "2.3"}
	if got := pickStrings(bare); !reflect.DeepEqual(got, want) {
		t.Errorf("picks = %v, want %v", got, want)
	}

	// Range filtering on the provided version: mpi@3: only openmpi grants.
	hi := mustConcretize(t, u, []Root{MustParseRoot("virtual:mpi@3:")})
	want = map[string]string{"openmpi": "4.1", "zlib": "1.3"}
	if got := pickStrings(hi); !reflect.DeepEqual(got, want) {
		t.Errorf("picks = %v, want %v", got, want)
	}

	// A range no provider grants is unsatisfiable, not unknown.
	if _, err := Concretize(u, []Root{MustParseRoot("virtual:mpi@9:")}, Options{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("err = %v, want ErrUnsatisfiable", err)
	}
}

// TestVirtualRootObjective: the chosen provider of a virtual root carries
// root-rank weight — keeping the provider at its newest version must beat
// keeping its dependency newest, exactly as for a concrete root (the
// virtual analogue of TestRootNewnessBeatsDependencyNewness).
func TestVirtualRootObjective(t *testing.T) {
	u := repo.New()
	// prov@2.0 pins z to the 1 series; prov@1.0 frees z. At dependency
	// rank the two downgrades would tie; at root rank prov must win.
	u.Add("prov", "2.0", repo.Prov("v", "2.0"), repo.Dep("z", "1"))
	u.Add("prov", "1.0", repo.Prov("v", "1.0"), repo.Dep("z", ":"))
	u.Add("z", "2.0")
	u.Add("z", "1.0")
	res := mustConcretize(t, u, []Root{MustParseRoot("virtual:v")})
	want := map[string]string{"prov": "2.0", "z": "1.0"}
	if got := pickStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("picks = %v, want %v (provider must be weighed at root rank)", got, want)
	}
}

// TestVirtualRootRangeScopesRootRank is the regression test for an
// objective-weighting bug: only providers able to satisfy a virtual root's
// range may carry root rank. Here helper also provides v — but at 1.0,
// outside the root's "3:" range — so its version-lag must stay at
// dependency rank: the optimizer keeps the actual root target (provA)
// newest and downgrades helper, never the reverse.
func TestVirtualRootRangeScopesRootRank(t *testing.T) {
	u := repo.New()
	u.Add("provA", "2.0", repo.Prov("v", "3.0"), repo.Dep("helper", ":1"))
	u.Add("provA", "1.0", repo.Prov("v", "3.0"), repo.Dep("helper", ":"))
	u.Add("helper", "3.0", repo.Prov("v", "1.0"))
	u.Add("helper", "2.0", repo.Prov("v", "1.0"))
	u.Add("helper", "1.0", repo.Prov("v", "1.0"))
	res := mustConcretize(t, u, []Root{MustParseRoot("virtual:v@3:")})
	want := map[string]string{"provA": "2.0", "helper": "1.0"}
	if got := pickStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("picks = %v, want %v (out-of-range provider was promoted to root rank)", got, want)
	}
}

// TestConflictOnVirtual: a conflict naming a virtual forbids any provider
// whose provided version lies in the range.
func TestConflictOnVirtual(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.Dep("mpi", ":"), repo.Dep("tool", ":"))
	u.Add("tool", "2.0", repo.Confl("mpi", "2:")) // newest tool rejects modern mpi
	u.Add("tool", "1.0")
	u.Add("ompi", "4.0", repo.Prov("mpi", "3.0"))
	u.Add("mpich", "1.5", repo.Prov("mpi", "1.0"))
	res := mustConcretize(t, u, []Root{MustParseRoot("app")})
	got := pickStrings(res)
	// Newest tool (2.0) outweighs the provider downgrade: mpich wins.
	want := map[string]string{"app": "1.0", "tool": "2.0", "mpich": "1.5"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("picks = %v, want %v", got, want)
	}
}

// TestConditionalDependency: a dependency guarded by a When trigger must
// stay dormant until the trigger package is selected in range, and then
// bind with its full range semantics.
func TestConditionalDependency(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.DepWhen("plugin", ":", "feature", "2:"))
	u.Add("feature", "3.0")
	u.Add("feature", "1.0")
	u.Add("plugin", "1.0")

	// Trigger absent: the dependency is dormant, nothing extra installs.
	res := mustConcretize(t, u, []Root{MustParseRoot("app")})
	want := map[string]string{"app": "1.0"}
	if got := pickStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("picks = %v, want %v", got, want)
	}

	// Trigger in range: the dependency activates.
	res = mustConcretize(t, u, []Root{MustParseRoot("app"), MustParseRoot("feature")})
	want = map[string]string{"app": "1.0", "feature": "3.0", "plugin": "1.0"}
	if got := pickStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("picks = %v, want %v", got, want)
	}

	// Trigger selected below the When range: still dormant.
	res = mustConcretize(t, u, []Root{MustParseRoot("app"), MustParseRoot("feature@:1")})
	want = map[string]string{"app": "1.0", "feature": "1.0"}
	if got := pickStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("picks = %v, want %v", got, want)
	}
}

// TestConditionalConflict: a conflict guarded by a When trigger bites only
// when the trigger is selected in range — the optimizer dodges it by
// lagging the trigger when that is cheaper than the conflict.
func TestConditionalConflict(t *testing.T) {
	u := repo.New()
	u.Add("a", "1.0", repo.ConflWhen("b", ":", "mode", "2:"))
	u.Add("b", "1.0")
	u.Add("mode", "2.0")
	u.Add("mode", "1.0")

	// Without the trigger rooted, a and b coexist.
	res := mustConcretize(t, u, []Root{MustParseRoot("a"), MustParseRoot("b")})
	if len(res.Picks) != 2 {
		t.Fatalf("picks = %v, want a and b", pickStrings(res))
	}

	// Rooting mode too: mode@2 would arm the conflict, so the optimizer
	// must lag mode to 1.0 (a root version-step, the only legal model).
	res = mustConcretize(t, u, []Root{MustParseRoot("a"), MustParseRoot("b"), MustParseRoot("mode")})
	want := map[string]string{"a": "1.0", "b": "1.0", "mode": "1.0"}
	if got := pickStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("picks = %v, want %v", got, want)
	}

	// Pinning the trigger in range makes the pair unsatisfiable.
	_, err := Concretize(u, []Root{MustParseRoot("a"), MustParseRoot("b"), MustParseRoot("mode@2:")}, Options{})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("err = %v, want ErrUnsatisfiable", err)
	}
}

// TestConditionalDepOnVirtual: condition triggers and dependency targets
// compose — a dependency on a virtual guarded by a trigger whose own
// target is a virtual.
func TestConditionalDepOnVirtual(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.DepWhen("logsink", ":", "telemetry", "2:"))
	u.Add("otel", "1.0", repo.Prov("telemetry", "2.0"))
	u.Add("statsd", "1.0", repo.Prov("telemetry", "1.0"))
	u.Add("filelog", "1.0", repo.Prov("logsink", "1.0"))
	if err := u.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// Selecting the low provider leaves the dependency dormant.
	res := mustConcretize(t, u, []Root{MustParseRoot("app"), MustParseRoot("statsd")})
	if _, ok := res.Picks["filelog"]; ok {
		t.Errorf("dormant conditional dep installed its target: %v", pickStrings(res))
	}

	// Selecting a provider inside the trigger range activates it.
	res = mustConcretize(t, u, []Root{MustParseRoot("app"), MustParseRoot("otel")})
	if _, ok := res.Picks["filelog"]; !ok {
		t.Errorf("active conditional dep missing its target: %v", pickStrings(res))
	}
}

// TestUnknownRootTyped: unknown roots surface as *UnknownPackageError with
// the namespace preserved — including an explicit virtual: root naming a
// concrete package, which must not fall back to the package namespace.
func TestUnknownRootTyped(t *testing.T) {
	u := curatedMPI()
	cases := []struct {
		spec    string
		virtual bool
	}{
		{"ghost", false},
		{"virtual:ghost", true},
		{"virtual:zlib", true}, // a package, but not a virtual
		{"ghost@1.2:", false},
	}
	for _, tc := range cases {
		_, err := Concretize(u, []Root{MustParseRoot(tc.spec)}, Options{})
		var ue *UnknownPackageError
		if !errors.As(err, &ue) {
			t.Errorf("%s: err = %v, want *UnknownPackageError", tc.spec, err)
			continue
		}
		if errors.Is(err, ErrUnsatisfiable) {
			t.Errorf("%s: unknown root must not match ErrUnsatisfiable", tc.spec)
		}
		if ue.Virtual != tc.virtual {
			t.Errorf("%s: Virtual = %v, want %v", tc.spec, ue.Virtual, tc.virtual)
		}
		// The error names the root that failed.
		wantPkg := strings.TrimPrefix(tc.spec, VirtualPrefix)
		wantPkg, _, _ = strings.Cut(wantPkg, "@")
		if ue.Pkg != wantPkg {
			t.Errorf("%s: Pkg = %q, want %q", tc.spec, ue.Pkg, wantPkg)
		}
	}

	// Warm path agrees with cold.
	sess := NewSession(u)
	_, err := sess.Resolve(context.Background(), []Root{MustParseRoot("virtual:ghost")}, Options{})
	var ue *UnknownPackageError
	if !errors.As(err, &ue) || !ue.Virtual {
		t.Errorf("warm err = %v, want virtual *UnknownPackageError", err)
	}
}

// TestSessionVirtualDiamondRace hammers one Session over a
// SynthVirtualDiamond universe from 8 goroutines with overlapping requests
// — virtual roots included — under -race in CI. Competing providers make
// the optima tie-prone, so answers are checked for cost equality against
// precomputed cold answers and independently re-verified.
func TestSessionVirtualDiamondRace(t *testing.T) {
	u, root := repo.SynthVirtualDiamond(3, 2, 4)
	type expect struct {
		roots []Root
		cost  int64
		unsat bool
	}
	var pool []expect
	for _, spec := range [][]string{
		{root},
		{"virtual:virt0"},
		{"virt1@:2", root},
		{"prov0_1", "virtual:virt2"},
		{root + "@:3", "vbase@2:"},
		{"virtual:virt0@9:"}, // no provider provides 9+: unsatisfiable
		{"vbase"},
		{"virt2@2", "virt0"},
	} {
		var roots []Root
		for _, s := range spec {
			roots = append(roots, MustParseRoot(s))
		}
		e := expect{roots: roots}
		cold, err := Concretize(u, roots, Options{})
		if err != nil {
			if !errors.Is(err, ErrUnsatisfiable) {
				t.Fatalf("cold %v: %v", spec, err)
			}
			e.unsat = true
		} else {
			e.cost = cold.Stats.Cost
		}
		pool = append(pool, e)
	}

	sess := NewSession(u)
	store := NewAnswers(4) // force hit/miss/evict interleaving
	const goroutines, iters = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e := pool[(g*5+i)%len(pool)]
				res, err := storeResolve(store, sess, e.roots, Options{})
				if e.unsat {
					if !errors.Is(err, ErrUnsatisfiable) {
						t.Errorf("goroutine %d: err = %v, want ErrUnsatisfiable", g, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("goroutine %d: Resolve: %v", g, err)
					continue
				}
				if verr := verify(u, e.roots, res.Picks); verr != nil {
					t.Errorf("goroutine %d: verify: %v", g, verr)
				}
				if res.Stats.Cost != e.cost {
					t.Errorf("goroutine %d: cost drifted: got %d, want %d (%v)",
						g, res.Stats.Cost, e.cost, pickStrings(res))
				}
			}
		}(g)
	}
	wg.Wait()
}
