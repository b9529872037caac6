package resolve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// TestVirtualRootTable: the serving surface accepts virtual names as
// request roots in both forms and surfaces unknown targets as the typed
// *UnknownPackageError — previously an unknown root produced only a
// stringly error from deep inside the encoder.
func TestVirtualRootTable(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.Dep("mpi", ":"))
	u.Add("ompi", "4.0", repo.Prov("mpi", "3.0"), repo.Dep("hwloc", ":"))
	u.Add("mpich", "1.5", repo.Prov("mpi", "1.0"))
	u.Add("hwloc", "2.9")
	r := NewPoolResolver(u, 1, SessionOptions{})

	cases := []struct {
		spec        string
		wantErr     bool
		wantVirtual bool // UnknownPackageError.Virtual
		wantPkg     string
		wantPick    string // a package that must appear in the picks
	}{
		{spec: "app", wantPick: "app"},
		{spec: "mpi", wantPick: "mpich"},           // bare virtual: provider installed
		{spec: "virtual:mpi@2:", wantPick: "ompi"}, // namespaced + provider-range filter
		{spec: "ghost", wantErr: true, wantPkg: "ghost"},
		{spec: "virtual:ghost", wantErr: true, wantVirtual: true, wantPkg: "ghost"},
		{spec: "virtual:app", wantErr: true, wantVirtual: true, wantPkg: "app"}, // package, not virtual
	}
	for _, tc := range cases {
		root, err := ParseRoot(tc.spec)
		if err != nil {
			t.Fatalf("ParseRoot(%q): %v", tc.spec, err)
		}
		res, err := r.Resolve(context.Background(), Request{Roots: []Root{root}})
		if tc.wantErr {
			var ue *UnknownPackageError
			if !errors.As(err, &ue) {
				t.Errorf("%s: err = %v, want *UnknownPackageError", tc.spec, err)
				continue
			}
			if ue.Pkg != tc.wantPkg || ue.Virtual != tc.wantVirtual {
				t.Errorf("%s: got {Pkg:%q Virtual:%v}, want {Pkg:%q Virtual:%v}",
					tc.spec, ue.Pkg, ue.Virtual, tc.wantPkg, tc.wantVirtual)
			}
			if errors.Is(err, ErrUnsatisfiable) {
				t.Errorf("%s: unknown root must not match ErrUnsatisfiable", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Resolve: %v", tc.spec, err)
			continue
		}
		if _, ok := res.Picks[tc.wantPick]; !ok {
			t.Errorf("%s: picks %v missing %s", tc.spec, res.Picks, tc.wantPick)
		}
	}
}

// TestPortfolioVirtualDifferential is the portfolio arm of the richer-
// universe oracle: over seeded SynthVirtualDiamond and
// SynthConditionalChain universes, a full portfolio race and a single warm
// session must agree on satisfiability and optimal cost for every request
// — provider ties and trigger flips may change picks between backends, but
// never the optimum.
func TestPortfolioVirtualDifferential(t *testing.T) {
	nUniverses := 20
	if testing.Short() {
		nUniverses = 5
	}
	rng := rand.New(rand.NewSource(16180))
	for i := 0; i < nUniverses; i++ {
		var u *repo.Universe
		var vocab []string
		versions := 1 + rng.Intn(3)
		if i%2 == 0 {
			virtuals, providers := 1+rng.Intn(3), 1+rng.Intn(3)
			u, _ = repo.SynthVirtualDiamond(virtuals, providers, versions)
			vocab = []string{"app", "vbase"}
			for v := 0; v < virtuals; v++ {
				vocab = append(vocab, fmt.Sprintf("virt%d", v), fmt.Sprintf("virtual:virt%d", v))
			}
			for p := 0; p < providers; p++ {
				vocab = append(vocab, fmt.Sprintf("prov0_%d", p))
			}
		} else {
			length := 2 + rng.Intn(4)
			u, _ = repo.SynthConditionalChain(length, versions)
			vocab = []string{"cc0", "ctrl", "ccx"}
			for l := 1; l < length; l++ {
				vocab = append(vocab, fmt.Sprintf("cc%d", l))
			}
		}
		port, err := NewPortfolioResolver(u)
		if err != nil {
			t.Fatalf("portfolio: %v", err)
		}
		single := NewPoolResolver(u, 1, SessionOptions{})
		t.Run(fmt.Sprintf("u%02d", i), func(t *testing.T) {
			for reqN := 0; reqN < 8; reqN++ {
				n := 1 + rng.Intn(2)
				var roots []Root
				for j := 0; j < n; j++ {
					name := vocab[rng.Intn(len(vocab))]
					spec := name
					if rng.Intn(2) == 0 {
						k := 1 + rng.Intn(versions+1)
						if rng.Intn(2) == 0 {
							spec = fmt.Sprintf("%s@:%d", name, k)
						} else {
							spec = fmt.Sprintf("%s@%d:", name, k)
						}
					}
					root, err := ParseRoot(spec)
					if err != nil {
						t.Fatalf("ParseRoot(%q): %v", spec, err)
					}
					roots = append(roots, root)
				}
				req := Request{Roots: roots}
				pRes, pErr := port.Resolve(context.Background(), req)
				sRes, sErr := single.Resolve(context.Background(), req)
				if (pErr == nil) != (sErr == nil) {
					t.Fatalf("roots %v: portfolio err %v, session err %v", roots, pErr, sErr)
				}
				if pErr != nil {
					if !errors.Is(pErr, ErrUnsatisfiable) || !errors.Is(sErr, ErrUnsatisfiable) {
						t.Fatalf("roots %v: non-unsat errors: %v / %v", roots, pErr, sErr)
					}
					continue
				}
				if pRes.Stats.Cost != sRes.Stats.Cost {
					t.Fatalf("roots %v: cost %d (portfolio %s) vs %d (session)",
						roots, pRes.Stats.Cost, pRes.Config, sRes.Stats.Cost)
				}
			}
		})
	}
}
