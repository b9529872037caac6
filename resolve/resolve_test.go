package resolve

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/sat"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// raceConfigs is a three-member portfolio whose members search
// differently: the default configuration, positive-first branching, and
// patient restarts with binary descent. DefaultPortfolio has one member,
// which never races, so the race's own tests race these.
func raceConfigs() []BackendConfig {
	return []BackendConfig{
		{Name: "baseline", Options: SessionOptions{}},
		{Name: "positive", Options: SessionOptions{Solver: sat.Config{PositiveFirst: true}}},
		{Name: "steady", Options: SessionOptions{Solver: sat.Config{RestartBase: 400, Descent: sat.DescentBinary}}},
	}
}

// mustPortfolio builds a portfolio over the given configs, or over
// raceConfigs when none are passed.
func mustPortfolio(t testing.TB, u *repo.Universe, configs ...BackendConfig) *PortfolioResolver {
	t.Helper()
	if len(configs) == 0 {
		configs = raceConfigs()
	}
	p, err := NewPortfolioResolver(u, configs...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOneShardPoolBasics(t *testing.T) {
	u, root := repo.SynthDiamond(3, 4)
	r := NewPoolResolver(u, 1, SessionOptions{})
	res, err := r.Resolve(context.Background(), Request{Roots: []Root{{Pkg: root}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != "pool/0" || !res.Stats.Optimal {
		t.Fatalf("result: %+v", res)
	}
	// Everything at the newest version is the diamond's unique optimum.
	for pkg, v := range res.Picks {
		if v.String() != "4.0" {
			t.Fatalf("pick %s = %s, want 4.0", pkg, v)
		}
	}
	// Second call hits the answer store.
	res2, err := r.Resolve(context.Background(), Request{Roots: []Root{{Pkg: root}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stats.SolutionCacheHit || r.CacheLen() == 0 {
		t.Fatalf("warm repeat: hit=%v cacheLen=%d", res2.Stats.SolutionCacheHit, r.CacheLen())
	}
}

func TestPortfolioConfigValidation(t *testing.T) {
	u, _ := repo.SynthDiamond(2, 2)
	if _, err := NewPortfolioResolver(u, BackendConfig{Name: ""}); err == nil {
		t.Fatal("empty name must be rejected")
	}
	_, err := NewPortfolioResolver(u, BackendConfig{Name: "a"}, BackendConfig{Name: "a"})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate name: err = %v", err)
	}
	stock, err := NewPortfolioResolver(u)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, h := range stock.Snapshot().Members {
		names = append(names, h.Name)
	}
	if want := []string{"baseline"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("members = %v, want %v", names, want)
	}
}

// TestPortfolioDifferential is the acceptance harness: the portfolio must
// return cost-identical answers to a single-Session oracle across the
// seeded SynthDense (unique optimum: pick equality) and
// SynthDenseConflicts (tied optima: cost equality + unsat agreement)
// families, regardless of which member wins each race.
func TestPortfolioDifferential(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 15; seed++ {
		u, root := repo.SynthDense(22, 6, 3, seed)
		oracle := NewPoolResolver(u, 1, SessionOptions{})
		p := mustPortfolio(t, u)
		req := Request{Roots: []Root{{Pkg: root}}}
		want, err := oracle.Resolve(ctx, req)
		if err != nil {
			t.Fatalf("dense seed %d: oracle: %v", seed, err)
		}
		got, err := p.Resolve(ctx, req)
		if err != nil {
			t.Fatalf("dense seed %d: portfolio: %v", seed, err)
		}
		if got.Stats.Cost != want.Stats.Cost {
			t.Fatalf("dense seed %d: cost %d (via %s), oracle %d", seed, got.Stats.Cost, got.Config, want.Stats.Cost)
		}
		if !reflect.DeepEqual(got.Picks, want.Picks) {
			t.Fatalf("dense seed %d: picks diverge (via %s):\n%v\n%v", seed, got.Config, got.Picks, want.Picks)
		}
	}
	for seed := int64(0); seed < 15; seed++ {
		u, root := repo.SynthDenseConflicts(22, 6, 3, 2, seed)
		oracle := NewPoolResolver(u, 1, SessionOptions{})
		p := mustPortfolio(t, u)
		req := Request{Roots: []Root{{Pkg: root}}}
		want, wantErr := oracle.Resolve(ctx, req)
		got, gotErr := p.Resolve(ctx, req)
		if wantErr != nil {
			if !errors.Is(wantErr, ErrUnsatisfiable) || !errors.Is(gotErr, ErrUnsatisfiable) {
				t.Fatalf("conflicts seed %d: oracle err %v, portfolio err %v", seed, wantErr, gotErr)
			}
			continue
		}
		if gotErr != nil {
			t.Fatalf("conflicts seed %d: portfolio: %v", seed, gotErr)
		}
		if got.Stats.Cost != want.Stats.Cost {
			t.Fatalf("conflicts seed %d: cost %d (via %s), oracle %d", seed, got.Stats.Cost, got.Config, want.Stats.Cost)
		}
	}
}

// TestPortfolioObjectiveDifferential repeats the race under a
// MinimalChange objective: member heuristics must not bend the pluggable
// objective either.
func TestPortfolioObjectiveDifferential(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 8; seed++ {
		u, root := repo.SynthDense(18, 5, 3, seed)
		oracle := NewPoolResolver(u, 1, SessionOptions{})
		base, err := oracle.Resolve(ctx, Request{Roots: []Root{{Pkg: root}}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		req := Request{
			Roots:     []Root{{Pkg: root}},
			Objective: MinimalChange(repo.ProfileOf(base.Picks)),
		}
		want, err := oracle.Resolve(ctx, req)
		if err != nil {
			t.Fatalf("seed %d: oracle minchange: %v", seed, err)
		}
		got, err := mustPortfolio(t, u).Resolve(ctx, req)
		if err != nil {
			t.Fatalf("seed %d: portfolio minchange: %v", seed, err)
		}
		if got.Stats.Cost != want.Stats.Cost || !reflect.DeepEqual(got.Picks, want.Picks) {
			t.Fatalf("seed %d: minchange diverges (via %s):\n%v cost %d\n%v cost %d",
				seed, got.Config, got.Picks, got.Stats.Cost, want.Picks, want.Stats.Cost)
		}
	}
}

func TestPortfolioCancellation(t *testing.T) {
	// Cancel a request racing on a multi-minute refutation: the portfolio
	// must return promptly with the context's error and stay serviceable.
	u, root := repo.SynthPigeonhole(11)
	p := mustPortfolio(t, u)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Resolve(ctx, Request{Roots: []Root{{Pkg: root}}})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	canceledAt := time.Now()
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("portfolio Resolve did not return after cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lag := time.Since(canceledAt); lag > 200*time.Millisecond {
		t.Errorf("portfolio took %v to honor cancellation across members", lag)
	}

	// Every member must still serve: a satisfiable request over the same
	// universe succeeds (and quickly, thanks to the phase reset).
	res, err := p.Resolve(context.Background(), Request{Roots: []Root{{Pkg: "pigeon0"}}})
	if err != nil {
		t.Fatalf("post-cancel resolve: %v", err)
	}
	if !res.Stats.Optimal || len(res.Picks) != 1 {
		t.Fatalf("post-cancel result: %+v", res)
	}
}

func TestPortfolioDeadline(t *testing.T) {
	u, root := repo.SynthPigeonhole(11)
	p := mustPortfolio(t, u)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Resolve(ctx, Request{Roots: []Root{{Pkg: root}}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("deadline-bounded portfolio resolve took %v", d)
	}
}

func TestPortfolioLoserCancellationDoesNotStarveWinner(t *testing.T) {
	// A universe where the answer is definitive and instant for every
	// member: the race settles, losers are canceled, and repeated
	// requests keep working — exercising winner-side cache fills and
	// loser-side interrupts together under the race detector.
	u, root := repo.SynthDense(20, 5, 3, 42)
	p := mustPortfolio(t, u)
	req := Request{Roots: []Root{{Pkg: root}}}
	var want *Result
	for i := 0; i < 25; i++ {
		got, err := p.Resolve(context.Background(), req)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if want == nil {
			want = got
			continue
		}
		if got.Stats.Cost != want.Stats.Cost || !reflect.DeepEqual(got.Picks, want.Picks) {
			t.Fatalf("iteration %d: drifted (via %s):\n%v\n%v", i, got.Config, got.Picks, want.Picks)
		}
	}
}

func TestPortfolioConcurrentRequests(t *testing.T) {
	// 8 goroutines × mixed requests against one portfolio: exercises
	// concurrent races sharing member Sessions (each serializes its own
	// solver; caches are concurrent).
	u, root := repo.SynthDenseConflicts(20, 5, 3, 2, 7)
	p := mustPortfolio(t, u)
	oracle := NewPoolResolver(u, 1, SessionOptions{})
	roots := [][]Root{
		{{Pkg: root}},
		{{Pkg: "dense3"}},
		{{Pkg: "dense7"}, {Pkg: "dense11"}},
		{{Pkg: "dense1"}, {Pkg: root}},
	}
	type answer struct {
		cost  int64
		unsat bool
	}
	want := make([]answer, len(roots))
	for i, rs := range roots {
		res, err := oracle.Resolve(context.Background(), Request{Roots: rs})
		if err != nil {
			if !errors.Is(err, ErrUnsatisfiable) {
				t.Fatal(err)
			}
			want[i] = answer{unsat: true}
			continue
		}
		want[i] = answer{cost: res.Stats.Cost}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (g + i) % len(roots)
				res, err := p.Resolve(context.Background(), Request{Roots: roots[k]})
				if want[k].unsat {
					if !errors.Is(err, ErrUnsatisfiable) {
						t.Errorf("goroutine %d: req %d err = %v, want unsat", g, k, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("goroutine %d: req %d: %v", g, k, err)
					continue
				}
				if res.Stats.Cost != want[k].cost {
					t.Errorf("goroutine %d: req %d cost %d, want %d", g, k, res.Stats.Cost, want[k].cost)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPortfolioBudgetFallback(t *testing.T) {
	// With a conflict budget too small to prove anything on a hard
	// refutation, no member is definitive and the typed budget error
	// surfaces.
	u, root := repo.SynthPigeonhole(9)
	p := mustPortfolio(t, u)
	_, err := p.Resolve(context.Background(), Request{Roots: []Root{{Pkg: root}}, MaxConflicts: 20})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestTypedErrorsSurface(t *testing.T) {
	u, root := repo.SynthUnsatWeb(3, 2)
	for _, r := range []Resolver{
		NewPoolResolver(u, 1, SessionOptions{}),
		mustPortfolio(t, u),
	} {
		_, err := r.Resolve(context.Background(), Request{Roots: []Root{{Pkg: root}}})
		var unsat *UnsatError
		if !errors.As(err, &unsat) || !errors.Is(err, ErrUnsatisfiable) {
			t.Fatalf("err = %v, want *UnsatError", err)
		}
		if len(unsat.Roots) != 1 || unsat.Roots[0].Pkg != root {
			t.Fatalf("UnsatError.Roots = %v", unsat.Roots)
		}
	}
}

func TestParseRootRoundTrip(t *testing.T) {
	r, err := ParseRoot("zlib@1.2:1.4")
	if err != nil {
		t.Fatal(err)
	}
	if r.Pkg != "zlib" || r.String() != "zlib@1.2:1.4" {
		t.Fatalf("root = %+v", r)
	}
	if !r.Range.Satisfies(version.MustParse("1.3")) {
		t.Fatal("range lost in round trip")
	}
}
