package concretize

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// The BenchmarkConcretize* benchmarks are the repo's perf baseline: each
// measures a full concretization (encode + branch-and-bound solve + decode)
// over a deterministic synthetic universe from internal/repo. Future PRs
// optimize against these numbers.

func benchConcretize(b *testing.B, u *repo.Universe, root string) {
	b.Helper()
	b.ReportAllocs()
	roots := []Root{{Pkg: root}}
	for i := 0; i < b.N; i++ {
		res, err := Concretize(u, roots, Options{})
		if err != nil {
			b.Fatalf("Concretize: %v", err)
		}
		if len(res.Picks) == 0 {
			b.Fatal("empty resolution")
		}
	}
}

func BenchmarkConcretizeDiamond(b *testing.B) {
	u, root := repo.SynthDiamond(8, 8)
	benchConcretize(b, u, root)
}

func BenchmarkConcretizeChain(b *testing.B) {
	u, root := repo.SynthChain(24, 6)
	benchConcretize(b, u, root)
}

func BenchmarkConcretizeDense(b *testing.B) {
	u, root := repo.SynthDense(40, 8, 3, 1)
	benchConcretize(b, u, root)
}

// The BenchmarkSessionWarm* benchmarks measure the warm path over the same
// dense universe as BenchmarkConcretizeDense, which is their cold
// baseline:
//
//   - WarmHit: repeat request answered by the answer store in front of
//     the session — a store lookup plus a picks-map copy, no solver
//     contact.
//   - WarmMiss: every iteration re-solves a known shape with no answer
//     store in front, as a first visit does — objective lowering, the
//     seed, verify and the descent all run again on the shared solver,
//     while the closure memo skips reachability and materialization and
//     learnt clauses, VSIDS activity, and saved phases carry over.
//   - WarmMissRotate: the same re-solve with the root rotating, so
//     iterations cannot ride phase-saving toward an already-found model.

func benchSessionWarm(b *testing.B, rootFor func(i int) []Root) {
	b.Helper()
	u, root := repo.SynthDense(40, 8, 3, 1)
	sess := NewSession(u)
	// Prime: run one request so the warm state exists.
	if _, err := sess.Resolve(context.Background(), []Root{{Pkg: root}}, Options{}); err != nil {
		b.Fatalf("prime Resolve: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Resolve(context.Background(), rootFor(i), Options{})
		if err != nil {
			b.Fatalf("Resolve: %v", err)
		}
		if len(res.Picks) == 0 {
			b.Fatal("empty resolution")
		}
	}
}

func BenchmarkSessionWarmHit(b *testing.B) {
	u, root := repo.SynthDense(40, 8, 3, 1)
	sess := NewSession(u)
	store := NewAnswers(AnswersPerSession)
	roots := []Root{{Pkg: root}}
	key := ShapeKey(nil, roots)
	res, err := sess.Resolve(context.Background(), roots, Options{})
	store.Put(key, "session", res, err)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, _, ok := store.Get(key, roots)
		if !ok || len(res.Picks) == 0 {
			b.Fatal("store miss")
		}
	}
}

func BenchmarkSessionWarmMiss(b *testing.B) {
	roots := []Root{{Pkg: "dense0"}}
	benchSessionWarm(b, func(int) []Root { return roots })
}

func BenchmarkSessionWarmMissRotate(b *testing.B) {
	pool := make([][]Root, 8)
	for i := range pool {
		pool[i] = []Root{{Pkg: fmt.Sprintf("dense%d", i)}}
	}
	benchSessionWarm(b, func(i int) []Root { return pool[i%len(pool)] })
}

// BenchmarkSessionWarmDescent isolates the cost of bound-tightening
// descent rounds on a warm solver: the request alternates between two
// objectives with opposite version preferences, so the saved phases always
// sit on the wrong model and every iteration must walk the bound down from
// a bad incumbent — the pure descent-round workload, with activation,
// encoding, and caching all amortized away. Regressions in TightenPB or
// the descent schedule (per-round allocation, relaxation churn) land
// directly on this number.
func BenchmarkSessionWarmDescent(b *testing.B) {
	u, root := repo.SynthDense(40, 8, 3, 1)
	sess := NewSession(u)
	roots := []Root{{Pkg: root}}
	objs := [2]Objective{
		ObjectiveFunc{ID: "newest-heavy", Fn: func(req ObjectiveRequest) (map[string]PkgCost, error) {
			costs := make(map[string]PkgCost, len(req.Order))
			for _, name := range req.Order {
				p, _ := req.Universe.Package(name)
				pc := PkgCost{Install: 1, Version: make([]int64, p.NumVersions())}
				for i := range pc.Version {
					pc.Version[i] = int64(i) * 8 // prefer newest
				}
				costs[name] = pc
			}
			return costs, nil
		}},
		ObjectiveFunc{ID: "oldest-heavy", Fn: func(req ObjectiveRequest) (map[string]PkgCost, error) {
			costs := make(map[string]PkgCost, len(req.Order))
			for _, name := range req.Order {
				p, _ := req.Universe.Package(name)
				n := p.NumVersions()
				pc := PkgCost{Install: 1, Version: make([]int64, n)}
				for i := range pc.Version {
					pc.Version[i] = int64(n-1-i) * 8 // prefer oldest
				}
				costs[name] = pc
			}
			return costs, nil
		}},
	}
	for _, obj := range objs {
		if _, err := sess.Resolve(context.Background(), roots, Options{Objective: obj}); err != nil {
			b.Fatalf("prime Resolve: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Resolve(context.Background(), roots, Options{Objective: objs[i%2]})
		if err != nil {
			b.Fatalf("Resolve: %v", err)
		}
		if len(res.Picks) == 0 {
			b.Fatal("empty resolution")
		}
	}
}

// BenchmarkSessionWarmProviderSwap measures a warm provider-swap miss, the
// end-to-end benchmark's reuse-swap path: one session on
// SynthVirtualDiamond(8, 3, 8), prewarmed with 100 requests of the
// reuseSwapDraw stream, resolves the stream's next distinct request each
// iteration. Every request is a new shape over one of 25 root sets, so a
// miss lowers its objective over a closure the session already holds and
// seeds its first visit; the seed keeps every package at the cheapest
// state the roots allow, so verify and the cost floor close the miss with
// no solve call. solve_calls/miss reports the descent rounds a miss
// takes, and solver_vars the session's solver variables at the end, which
// grow by one retired bound guard per miss that refutes. The requests are
// drawn before the timer starts.
func BenchmarkSessionWarmProviderSwap(b *testing.B) {
	const prefix = 100
	u, _ := repo.SynthVirtualDiamond(8, 3, 8)
	reqs := reuseSwapDraw(rand.New(rand.NewSource(1)), prefix+b.N)
	sess := NewSession(u)
	for _, rq := range reqs[:prefix] {
		if _, err := sess.Resolve(context.Background(), rq.roots, Options{Objective: rq.obj}); err != nil {
			b.Fatalf("prime Resolve: %v", err)
		}
	}
	calls := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rq := reqs[prefix+i]
		res, err := sess.Resolve(context.Background(), rq.roots, Options{Objective: rq.obj})
		if err != nil {
			b.Fatalf("Resolve: %v", err)
		}
		if len(res.Picks) == 0 {
			b.Fatal("empty resolution")
		}
		calls += res.Stats.SolveCalls
	}
	b.ReportMetric(float64(calls)/float64(b.N), "solve_calls/miss")
	b.ReportMetric(float64(sess.EncodingStats().SolverVars), "solver_vars")
}

// BenchmarkSessionColdStart measures NewSession itself. A Session encodes
// nothing until a request reaches it, so this is the O(1) construction
// cost a pool shard or a rebuilt member pays.
func BenchmarkSessionColdStart(b *testing.B) {
	u, _ := repo.SynthDense(40, 8, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess := NewSession(u)
		if sess.EncodingStats().UniversePackages == 0 {
			b.Fatal("empty universe")
		}
	}
}

// The BenchmarkConcretizeVirtual* benchmarks cover the richer declaration
// semantics: provider selection over competing virtuals (cold and warm)
// and trigger-guarded conditional chains. They extend the perf trajectory
// for the provider-selection and condition-literal encoder paths.

func BenchmarkConcretizeVirtualDiamond(b *testing.B) {
	u, root := repo.SynthVirtualDiamond(6, 3, 6)
	benchConcretize(b, u, root)
}

// BenchmarkConcretizeVirtualDiamondWarm measures the warm path over the
// same virtual-diamond universe with the root rotating between the app and the virtuals themselves, so every
// iteration re-runs provider selection on the shared solver.
func BenchmarkConcretizeVirtualDiamondWarm(b *testing.B) {
	u, root := repo.SynthVirtualDiamond(6, 3, 6)
	sess := NewSession(u)
	pool := [][]Root{
		{{Pkg: root}},
		{MustParseRoot("virtual:virt0")},
		{MustParseRoot("virt1@:4")},
		{MustParseRoot("virtual:virt2@2:")},
	}
	if _, err := sess.Resolve(context.Background(), pool[0], Options{}); err != nil {
		b.Fatalf("prime Resolve: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Resolve(context.Background(), pool[i%len(pool)], Options{})
		if err != nil {
			b.Fatalf("Resolve: %v", err)
		}
		if len(res.Picks) == 0 {
			b.Fatal("empty resolution")
		}
	}
}

// BenchmarkConcretizeVirtualConditional resolves the trigger root of a
// conditional chain: every link's guarded dependency is armed, so the
// solve exercises the condition-literal path end to end.
func BenchmarkConcretizeVirtualConditional(b *testing.B) {
	u, root := repo.SynthConditionalChain(16, 6)
	benchConcretize(b, u, root)
}

func BenchmarkConcretizeUnsatWeb(b *testing.B) {
	u, root := repo.SynthUnsatWeb(10, 4)
	b.ReportAllocs()
	roots := []Root{{Pkg: root}}
	for i := 0; i < b.N; i++ {
		if _, err := Concretize(u, roots, Options{}); !errors.Is(err, ErrUnsatisfiable) {
			b.Fatalf("err = %v, want ErrUnsatisfiable", err)
		}
	}
}

// The BenchmarkSessionChurn* benchmarks measure the live-universe path:
// a serving session absorbing a stream of append-only deltas while
// answering a fixed working set of request shapes. The universe is eight
// independent root->mid->leaf clusters, and each delta adds one new leaf
// version to one rotating cluster — so per delta, seven of the eight
// shapes are untouched (their stored answers must survive invalidation)
// and one must be re-solved.
//
//   - SessionChurn: Extend in place + store invalidation, then resolve all
//     eight shapes through the answer store (7 hits, 1 re-solve) on one
//     warm session.
//   - SessionChurnColdRebuild: the same delta stream answered the pre-live
//     way — mutate the universe, re-encode a fresh session from scratch,
//     re-solve all eight shapes cold. The warm/cold ratio is the payoff of
//     in-place extension with delta-scoped invalidation.
//   - SessionExtend: the Extend call alone (encoding growth plus
//     invalidation sweep), isolating the delta-application cost itself.
//
// Both churn benchmarks rebuild the universe every 64 deltas (off the
// clock) so steady-state cost is measured rather than unbounded catalog
// growth.

const churnClusters = 8

func benchChurnUniverse() *repo.Universe {
	u := repo.New()
	for c := 0; c < churnClusters; c++ {
		for k := 4; k >= 1; k-- {
			v := fmt.Sprintf("%d.0", k)
			u.Add(fmt.Sprintf("root%d", c), v, repo.Dep(fmt.Sprintf("mid%d", c), ":"))
			u.Add(fmt.Sprintf("mid%d", c), v, repo.Dep(fmt.Sprintf("leaf%d", c), ":"))
			u.Add(fmt.Sprintf("leaf%d", c), v)
		}
	}
	return u
}

func churnRoots() [][]Root {
	shapes := make([][]Root, churnClusters)
	for c := range shapes {
		shapes[c] = []Root{{Pkg: fmt.Sprintf("root%d", c)}}
	}
	return shapes
}

func BenchmarkSessionChurn(b *testing.B) {
	shapes := churnRoots()
	var (
		sess  *Session
		store *Answers
	)
	next := 0
	rebuild := func() {
		sess = NewSession(benchChurnUniverse())
		store = NewAnswers(AnswersPerSession)
		for _, roots := range shapes {
			if _, err := storeResolve(store, sess, roots, Options{}); err != nil {
				b.Fatalf("prime Resolve: %v", err)
			}
		}
	}
	rebuild()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%64 == 0 {
			b.StopTimer()
			rebuild()
			b.StartTimer()
		}
		next++
		d := repo.NewDelta()
		d.Add(fmt.Sprintf("leaf%d", i%churnClusters), fmt.Sprintf("4.%d", next))
		storeExtend(b, store, sess, d)
		for _, roots := range shapes {
			res, err := storeResolve(store, sess, roots, Options{})
			if err != nil {
				b.Fatalf("Resolve: %v", err)
			}
			if len(res.Picks) == 0 {
				b.Fatal("empty resolution")
			}
		}
	}
}

func BenchmarkSessionChurnColdRebuild(b *testing.B) {
	shapes := churnRoots()
	var u *repo.Universe
	u = benchChurnUniverse()
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%64 == 0 {
			b.StopTimer()
			u = benchChurnUniverse()
			b.StartTimer()
		}
		next++
		d := repo.NewDelta()
		d.Add(fmt.Sprintf("leaf%d", i%churnClusters), fmt.Sprintf("4.%d", next))
		if _, err := u.Apply(d); err != nil {
			b.Fatalf("Apply: %v", err)
		}
		sess := NewSession(u)
		for _, roots := range shapes {
			res, err := sess.Resolve(context.Background(), roots, Options{})
			if err != nil {
				b.Fatalf("Resolve: %v", err)
			}
			if len(res.Picks) == 0 {
				b.Fatal("empty resolution")
			}
		}
	}
}

func BenchmarkSessionExtend(b *testing.B) {
	var sess *Session
	next := 0
	rebuild := func() {
		sess = NewSession(benchChurnUniverse())
	}
	rebuild()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%64 == 0 {
			b.StopTimer()
			rebuild()
			b.StartTimer()
		}
		next++
		d := repo.NewDelta()
		d.Add(fmt.Sprintf("leaf%d", i%churnClusters), fmt.Sprintf("4.%d", next))
		if _, err := sess.Extend(d); err != nil {
			b.Fatalf("Extend: %v", err)
		}
	}
}
