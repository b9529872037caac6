package concretize

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/sat"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// oldestObjective prefers the oldest version of every package: a pure
// custom-weights objective used to prove the objective actually steers
// the optimizer.
var oldestObjective = ObjectiveFunc{
	ID: "oldest",
	Fn: func(req ObjectiveRequest) (map[string]PkgCost, error) {
		costs := make(map[string]PkgCost, len(req.Order))
		for _, name := range req.Order {
			p, _ := req.Universe.Package(name)
			n := p.NumVersions()
			pc := PkgCost{Install: 1, Version: make([]int64, n)}
			for i := 0; i < n; i++ {
				pc.Version[i] = int64(n - 1 - i) // newest costs most
			}
			costs[name] = pc
		}
		return costs, nil
	},
}

func TestExplicitNewestMatchesDefault(t *testing.T) {
	u, root := repo.SynthDense(24, 6, 3, 11)
	roots := []Root{{Pkg: root}}
	def, err := Concretize(u, roots, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := Concretize(u, roots, Options{Objective: NewestVersion{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Picks, exp.Picks) || def.Stats.Cost != exp.Stats.Cost {
		t.Fatalf("explicit NewestVersion differs from default:\n%v (cost %d)\n%v (cost %d)",
			def.Picks, def.Stats.Cost, exp.Picks, exp.Stats.Cost)
	}
}

func TestCustomObjectiveSteersPicks(t *testing.T) {
	u := repo.New()
	u.Add("app", "2.0", repo.Dep("lib", ":"))
	u.Add("app", "1.0", repo.Dep("lib", ":"))
	u.Add("lib", "2.0")
	u.Add("lib", "1.0")
	roots := []Root{MustParseRoot("app")}

	newest, err := Concretize(u, roots, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if newest.Picks["app"].String() != "2.0" || newest.Picks["lib"].String() != "2.0" {
		t.Fatalf("newest picks = %v", newest.Picks)
	}

	oldest, err := Concretize(u, roots, Options{Objective: oldestObjective})
	if err != nil {
		t.Fatal(err)
	}
	if oldest.Picks["app"].String() != "1.0" || oldest.Picks["lib"].String() != "1.0" {
		t.Fatalf("oldest picks = %v", oldest.Picks)
	}
}

func TestMinimalChangeKeepsInstalledVersions(t *testing.T) {
	u := repo.New()
	u.Add("app", "2.0", repo.Dep("lib", ":"))
	u.Add("app", "1.0", repo.Dep("lib", ":"))
	u.Add("lib", "3.0")
	u.Add("lib", "2.0")
	u.Add("lib", "1.0")
	roots := []Root{MustParseRoot("app")}
	installed := repo.Profile{"lib": version.MustParse("2.0")}

	res, err := Concretize(u, roots, Options{Objective: MinimalChange(installed)})
	if err != nil {
		t.Fatal(err)
	}
	// app is a new install either way; lib must stay at its installed 2.0
	// (NewestVersion would move it to 3.0), and among app's versions the
	// newest wins the tiebreak.
	if res.Picks["lib"].String() != "2.0" {
		t.Fatalf("lib = %s, want installed 2.0 kept", res.Picks["lib"])
	}
	if res.Picks["app"].String() != "2.0" {
		t.Fatalf("app = %s, want 2.0 (newest tiebreak)", res.Picks["app"])
	}
}

func TestMinimalChangeAvoidsRemovals(t *testing.T) {
	// app@2.0 pulls libnew, app@1.0 pulls libold. With {app@1.0, libold}
	// installed, the zero-change answer keeps app@1.0; the newest
	// objective would upgrade to app@2.0, dropping libold for libnew.
	u := repo.New()
	u.Add("app", "2.0", repo.Dep("libnew", ":"))
	u.Add("app", "1.0", repo.Dep("libold", ":"))
	u.Add("libnew", "1.0")
	u.Add("libold", "1.0")
	roots := []Root{MustParseRoot("app")}

	newest, err := Concretize(u, roots, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if newest.Picks["app"].String() != "2.0" {
		t.Fatalf("newest app = %v", newest.Picks)
	}

	installed := repo.Profile{
		"app":    version.MustParse("1.0"),
		"libold": version.MustParse("1.0"),
	}
	keep, err := Concretize(u, roots, Options{Objective: MinimalChange(installed)})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"app": "1.0", "libold": "1.0"}
	if len(keep.Picks) != len(want) {
		t.Fatalf("picks = %v, want %v", keep.Picks, want)
	}
	for pkg, v := range want {
		if keep.Picks[pkg].String() != v {
			t.Fatalf("picks = %v, want %v", keep.Picks, want)
		}
	}
}

func TestMinimalChangeFixpoint(t *testing.T) {
	// Resolving the same roots against a profile that IS a previous
	// optimal resolution must return exactly that resolution (zero
	// changes are achievable, and zero changes pin every pick), across
	// seeded universes.
	for seed := int64(0); seed < 12; seed++ {
		u, root := repo.SynthDense(18, 5, 3, seed)
		roots := []Root{{Pkg: root}}
		base, err := Concretize(u, roots, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		again, err := Concretize(u, roots, Options{Objective: MinimalChange(repo.ProfileOf(base.Picks))})
		if err != nil {
			t.Fatalf("seed %d: minimal-change: %v", seed, err)
		}
		if !reflect.DeepEqual(base.Picks, again.Picks) {
			t.Fatalf("seed %d: minimal-change against own profile moved picks:\n%v\n%v",
				seed, base.Picks, again.Picks)
		}
	}
}

func TestObjectiveCacheSeparation(t *testing.T) {
	u := repo.New()
	u.Add("app", "2.0")
	u.Add("app", "1.0")
	sess := NewSession(u, SessionOptions{})
	store := NewAnswers(4)
	roots := []Root{MustParseRoot("app")}

	newest, err := storeResolve(store, sess, roots, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oldest, err := storeResolve(store, sess, roots, Options{Objective: oldestObjective})
	if err != nil {
		t.Fatal(err)
	}
	if newest.Picks["app"].String() != "2.0" || oldest.Picks["app"].String() != "1.0" {
		t.Fatalf("newest=%v oldest=%v", newest.Picks, oldest.Picks)
	}
	if store.Len() != 2 {
		t.Fatalf("store Len = %d, want 2 (one per objective)", store.Len())
	}
	// Repeats hit their own objective's entry.
	n2, err := storeResolve(store, sess, roots, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !n2.Stats.SolutionCacheHit || n2.Picks["app"].String() != "2.0" {
		t.Fatalf("newest repeat: hit=%v picks=%v", n2.Stats.SolutionCacheHit, n2.Picks)
	}
	o2, err := storeResolve(store, sess, roots, Options{Objective: oldestObjective})
	if err != nil {
		t.Fatal(err)
	}
	if !o2.Stats.SolutionCacheHit || o2.Picks["app"].String() != "1.0" {
		t.Fatalf("oldest repeat: hit=%v picks=%v", o2.Stats.SolutionCacheHit, o2.Picks)
	}
}

func TestMinimalChangeKeyDependsOnProfile(t *testing.T) {
	a := MinimalChange(repo.Profile{"x": version.MustParse("1.0")})
	b := MinimalChange(repo.Profile{"x": version.MustParse("2.0")})
	if a.Key() == b.Key() {
		t.Fatal("different profiles must produce different objective keys")
	}
	c := MinimalChange(repo.Profile{"x": version.MustParse("1.0")})
	if a.Key() != c.Key() {
		t.Fatal("equal profiles must produce equal objective keys")
	}
	if a.Key() == (NewestVersion{}).Key() || a.Key() == oldestObjective.Key() {
		t.Fatal("objective key namespaces must not collide")
	}
}

func TestObjectiveValidation(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0")
	roots := []Root{MustParseRoot("app")}
	cases := []struct {
		name string
		obj  Objective
		want string
	}{
		{"unknown package", ObjectiveFunc{ID: "bad-pkg", Fn: func(req ObjectiveRequest) (map[string]PkgCost, error) {
			return map[string]PkgCost{"ghost": {Install: 1}}, nil
		}}, "outside the request's reachable set"},
		{"wrong version count", ObjectiveFunc{ID: "bad-len", Fn: func(req ObjectiveRequest) (map[string]PkgCost, error) {
			return map[string]PkgCost{"app": {Version: []int64{1, 2, 3}}}, nil
		}}, "version costs"},
		{"negative cost", ObjectiveFunc{ID: "neg", Fn: func(req ObjectiveRequest) (map[string]PkgCost, error) {
			return map[string]PkgCost{"app": {Install: -1}}, nil
		}}, "negative cost"},
		{"objective error", ObjectiveFunc{ID: "boom", Fn: func(req ObjectiveRequest) (map[string]PkgCost, error) {
			return nil, errors.New("boom")
		}}, "boom"},
		// An empty ID would collide every custom objective onto the cache
		// key "func:", silently serving one function's answers for another.
		{"empty ObjectiveFunc ID", ObjectiveFunc{Fn: func(req ObjectiveRequest) (map[string]PkgCost, error) {
			return nil, nil
		}}, "non-empty ID"},
	}
	for _, tc := range cases {
		_, err := Concretize(u, roots, Options{Objective: tc.obj})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want contains %q", tc.name, err, tc.want)
		}
	}
}

func TestDescentConfigDifferential(t *testing.T) {
	// Solver configurations — polarity, restart schedule — must never
	// change the answer, only the search path: every config agrees with
	// the default-config oracle on cost (and on picks for the monotone
	// family, whose optimum is unique).
	configs := []SessionOptions{
		{},
		{Solver: sat.Config{PositiveFirst: true, RestartBase: 40}},
		{Solver: sat.Config{PositiveFirst: true, RestartBase: 400}},
	}
	for seed := int64(0); seed < 10; seed++ {
		u, root := repo.SynthDense(20, 6, 3, seed)
		roots := []Root{{Pkg: root}}
		oracle, err := Concretize(u, roots, Options{})
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		for i, so := range configs {
			res, err := NewSession(u, so).Resolve(context.Background(), roots, Options{})
			if err != nil {
				t.Fatalf("seed %d config %d: %v", seed, i, err)
			}
			if res.Stats.Cost != oracle.Stats.Cost {
				t.Fatalf("seed %d config %d: cost %d, oracle %d", seed, i, res.Stats.Cost, oracle.Stats.Cost)
			}
			if !reflect.DeepEqual(res.Picks, oracle.Picks) {
				t.Fatalf("seed %d config %d: picks diverge:\n%v\n%v", seed, i, res.Picks, oracle.Picks)
			}
		}
	}
	// Conflict-bearing family: optima can tie, so compare cost and
	// satisfiability only.
	for seed := int64(0); seed < 10; seed++ {
		u, root := repo.SynthDenseConflicts(20, 6, 3, 2, seed)
		roots := []Root{{Pkg: root}}
		oracle, oracleErr := Concretize(u, roots, Options{})
		for i, so := range configs {
			res, err := NewSession(u, so).Resolve(context.Background(), roots, Options{})
			if oracleErr != nil {
				if !errors.Is(err, ErrUnsatisfiable) || !errors.Is(oracleErr, ErrUnsatisfiable) {
					t.Fatalf("seed %d config %d: err %v, oracle %v", seed, i, err, oracleErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d config %d: %v", seed, i, err)
			}
			if res.Stats.Cost != oracle.Stats.Cost {
				t.Fatalf("seed %d config %d: cost %d, oracle %d", seed, i, res.Stats.Cost, oracle.Stats.Cost)
			}
		}
	}
}
