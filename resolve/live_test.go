package resolve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// liveUniverse is a small clustered universe: independent root/leaf pairs
// so deltas can target one cluster while others stay cached.
func liveUniverse(clusters int) *repo.Universe {
	u := repo.New()
	for c := 0; c < clusters; c++ {
		u.Add(fmt.Sprintf("root%d", c), "1.0", repo.Dep(fmt.Sprintf("leaf%d", c), ":"))
		u.Add(fmt.Sprintf("leaf%d", c), "1.0")
	}
	return u
}

// TestOneShardPoolApply: growth through the public surface — Apply
// returns the advancing epoch, answers report the epoch they were computed
// at, untouched shapes stay store-served, and touched shapes flip to the
// delta's optimum.
func TestOneShardPoolApply(t *testing.T) {
	u := liveUniverse(2)
	r := NewPoolResolver(u, 1, SessionOptions{})
	req0 := Request{Roots: []Root{{Pkg: "root0"}}}
	req1 := Request{Roots: []Root{{Pkg: "root1"}}}

	res, err := r.Resolve(context.Background(), req0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Epoch != 0 {
		t.Fatalf("pre-delta Epoch = %d, want 0", res.Stats.Epoch)
	}
	if _, err := r.Resolve(context.Background(), req1); err != nil {
		t.Fatal(err)
	}

	d := NewDelta()
	d.Add("leaf1", "2.0")
	epoch, err := r.Apply(d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("Apply epoch = %d, want 1", epoch)
	}

	// Untouched cluster: cached answer survives, still stamped with the
	// epoch it was computed at.
	hit, err := r.Resolve(context.Background(), req0)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Stats.SolutionCacheHit {
		t.Error("delta to leaf1 invalidated root0's cached answer")
	}
	if hit.Stats.Epoch != 0 {
		t.Errorf("cached answer Epoch = %d, want 0 (computed pre-delta)", hit.Stats.Epoch)
	}

	// Touched cluster: re-solved at the new epoch, new optimum.
	miss, err := r.Resolve(context.Background(), req1)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Stats.SolutionCacheHit {
		t.Error("delta to leaf1 left root1's stale answer cached")
	}
	if miss.Stats.Epoch != 1 {
		t.Errorf("re-solved answer Epoch = %d, want 1", miss.Stats.Epoch)
	}
	if got := miss.Picks["leaf1"].String(); got != "2.0" {
		t.Errorf("leaf1 pick = %s, want 2.0", got)
	}

	// An invalid delta is rejected without moving the epoch.
	bad := NewDelta()
	bad.Add("leaf1", "2.0") // already exists
	if _, err := r.Apply(bad); err == nil {
		t.Fatal("invalid delta accepted")
	}
	after, err := r.Resolve(context.Background(), Request{Roots: []Root{{Pkg: "root1"}, {Pkg: "root0"}}})
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.Epoch != 1 {
		t.Errorf("epoch after rejected delta = %d, want 1", after.Stats.Epoch)
	}
}

// TestPortfolioApplyBroadcast: one Apply must land the delta on every
// member — whichever member wins any later race, the answer reflects the
// grown universe.
func TestPortfolioApplyBroadcast(t *testing.T) {
	u := liveUniverse(2)
	p := mustPortfolio(t, u)

	req := Request{Roots: []Root{{Pkg: "root0"}}}
	if _, err := p.Resolve(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	d := NewDelta()
	d.Add("leaf0", "3.0")
	epoch, err := p.Apply(d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("Apply epoch = %d, want 1", epoch)
	}

	// Every member must answer from the grown universe: query repeatedly so
	// race wins spread across members, and pin each member directly too.
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		res, err := p.Resolve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Picks["leaf0"].String(); got != "3.0" {
			t.Fatalf("iteration %d (member %s): leaf0 = %s, want 3.0", i, res.Config, got)
		}
		if res.Stats.Epoch > 1 {
			t.Fatalf("iteration %d: Epoch = %d, want <= 1", i, res.Stats.Epoch)
		}
		seen[res.Config] = true
	}
	// A member that missed the broadcast cannot hide behind faster
	// siblings on this shape: only the delta's version satisfies it, so a
	// stale member would race in with a definitive unsat answer and win.
	strict := Request{Roots: []Root{MustParseRootT(t, "leaf0@3:")}}
	for i := 0; i < 8; i++ {
		res, err := p.Resolve(context.Background(), strict)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if got := res.Picks["leaf0"].String(); got != "3.0" {
			t.Fatalf("iteration %d: leaf0 = %s, want 3.0", i, got)
		}
	}
}

// MustParseRootT parses a root spec or fails the test.
func MustParseRootT(t testing.TB, s string) Root {
	t.Helper()
	r, err := ParseRoot(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLiveConcurrentApplyResolve hammers resolvers with interleaved
// Apply and Resolve from many goroutines: 8 resolving goroutines racing a
// delta stream. Under -race this proves the write barrier; functionally,
// every answer must be coherent — a root's leaf pick is always a version
// that existed at some applied epoch, never a torn in-between.
func TestLiveConcurrentApplyResolve(t *testing.T) {
	for _, backend := range []string{"session", "portfolio"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			u := liveUniverse(4)
			type liveResolver interface {
				Resolver
				Apply(*Delta) (Epoch, error)
			}
			var r liveResolver
			if backend == "session" {
				r = NewPoolResolver(u, 1, SessionOptions{})
			} else {
				// Two members keep the hammer fast while still exercising
				// the broadcast barrier.
				r = mustPortfolio(t, u,
					BackendConfig{Name: "a", Options: SessionOptions{}},
					BackendConfig{Name: "b", Options: SessionOptions{}})
			}

			const goroutines = 8
			const resolvesPer = 30
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < resolvesPer; i++ {
						cluster := (g + i) % 4
						req := Request{Roots: []Root{{Pkg: fmt.Sprintf("root%d", cluster)}}}
						res, err := r.Resolve(context.Background(), req)
						if err != nil {
							errs <- fmt.Errorf("goroutine %d resolve %d: %w", g, i, err)
							return
						}
						leaf := fmt.Sprintf("leaf%d", cluster)
						if _, ok := res.Picks[leaf]; !ok {
							errs <- fmt.Errorf("goroutine %d resolve %d: %s missing from picks", g, i, leaf)
							return
						}
					}
				}()
			}
			var lastEpoch Epoch
			for step := 1; step <= 10; step++ {
				d := NewDelta()
				d.Add(fmt.Sprintf("leaf%d", step%4), fmt.Sprintf("1.%d", step))
				e, err := r.Apply(d)
				if err != nil {
					t.Fatalf("Apply step %d: %v", step, err)
				}
				if e != Epoch(step) {
					t.Fatalf("Apply step %d: epoch %d", step, e)
				}
				lastEpoch = e
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			// Quiesced: every cluster answers the final universe's newest leaf.
			if lastEpoch != 10 {
				t.Fatalf("final epoch = %d, want 10", lastEpoch)
			}
			for c := 0; c < 4; c++ {
				req := Request{Roots: []Root{{Pkg: fmt.Sprintf("root%d", c)}}}
				res, err := r.Resolve(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				want := "1.0"
				// Steps step%4 == c: the last such step wrote 1.<step>.
				for step := 10; step >= 1; step-- {
					if step%4 == c {
						want = fmt.Sprintf("1.%d", step)
						break
					}
				}
				if got := res.Picks[fmt.Sprintf("leaf%d", c)].String(); got != want {
					t.Errorf("cluster %d: leaf = %s, want %s", c, got, want)
				}
			}
		})
	}
}

// TestLiveUnsatFlip: a request shape cached as unsatisfiable must flip
// once a delta supplies the missing piece — the unsat cache entry's reach
// set includes the unknown dependency target's name.
func TestLiveUnsatFlip(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.Dep("missing", ":"))
	r := NewPoolResolver(u, 1, SessionOptions{})

	req := Request{Roots: []Root{{Pkg: "app"}}}
	if _, err := r.Resolve(context.Background(), req); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("pre-delta err = %v, want ErrUnsatisfiable", err)
	}
	// Cached refutation: repeat is served without touching the solver.
	if _, err := r.Resolve(context.Background(), req); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("repeat err = %v, want ErrUnsatisfiable", err)
	}

	d := NewDelta()
	d.Add("missing", "1.0")
	if _, err := r.Apply(d); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	res, err := r.Resolve(context.Background(), req)
	if err != nil {
		t.Fatalf("post-delta err = %v, want success", err)
	}
	if got := res.Picks["missing"].String(); got != "1.0" {
		t.Fatalf("missing pick = %s, want 1.0", got)
	}
}

// TestPoolRevivingDeltaAnswersSat: on a pool, a delta that supplies the
// missing dependency of an already-refuted package must flip the answer
// to what a fresh resolver returns. The shard that refuted the request
// materialized the package with its only version dead; the delta touches
// only an unmaterialized name, so the revival happens when the next
// request materializes it, and a root activation built over the dead
// version must not survive that.
func TestPoolRevivingDeltaAnswersSat(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.Dep("missing", ":"))
	p := NewPoolResolver(u, 2, SessionOptions{})
	req := Request{Roots: []Root{{Pkg: "app"}}}
	if _, err := p.Resolve(context.Background(), req); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("pre-delta err = %v, want ErrUnsatisfiable", err)
	}

	d := NewDelta()
	d.Add("missing", "1.0")
	if _, err := p.Apply(d); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	res, err := p.Resolve(context.Background(), req)
	if err != nil {
		t.Fatalf("post-delta err = %v, want success", err)
	}
	fresh, err := NewPoolResolver(u, 1, SessionOptions{}).Resolve(context.Background(), req)
	if err != nil {
		t.Fatalf("fresh resolver: %v", err)
	}
	if fmt.Sprint(res.Picks) != fmt.Sprint(fresh.Picks) || res.Stats.Cost != fresh.Stats.Cost {
		t.Fatalf("pool answer %v (cost %d), fresh resolver %v (cost %d)",
			res.Picks, res.Stats.Cost, fresh.Picks, fresh.Stats.Cost)
	}
}

// TestPoolRevivingDeltaResetsOncePerShard: once every shard has
// materialized a package whose only version is dead (it needs a range of
// itself nothing satisfies), one delta adding a buildable version resets
// each shard's encoding exactly once — at Apply, not again when the next
// requests re-materialize — and every shard then answers what a fresh
// resolver does.
func TestPoolRevivingDeltaResetsOncePerShard(t *testing.T) {
	u := repo.New()
	u.Add("selfdep", "1.0", repo.Dep("selfdep", "3:"))
	p := NewPoolResolver(u, 2, SessionOptions{})

	// Distinct request shapes hash to distinct home shards; send them until
	// every shard has materialized selfdep.
	reached := func() bool {
		for _, sh := range p.Snapshot().Members {
			if sh.Encoding.MaterializedPackages == 0 {
				return false
			}
		}
		return true
	}
	for i := 0; !reached(); i++ {
		if i == 64 {
			t.Fatal("64 request shapes did not reach every shard")
		}
		req := Request{Roots: []Root{MustParseRootT(t, fmt.Sprintf("selfdep@:%d", 10+i))}}
		if _, err := p.Resolve(context.Background(), req); !errors.Is(err, ErrUnsatisfiable) {
			t.Fatalf("pre-delta %s: %v, want ErrUnsatisfiable", req.Roots[0], err)
		}
	}

	d := NewDelta()
	d.Add("selfdep", "2.0")
	if _, err := p.Apply(d); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	req := Request{Roots: []Root{{Pkg: "selfdep"}}}
	fresh, err := NewPoolResolver(u, 1, SessionOptions{}).Resolve(context.Background(), req)
	if err != nil {
		t.Fatalf("fresh resolver: %v", err)
	}
	for i, m := range p.members {
		res, err := m.se.Resolve(context.Background(), req.Roots, concretizeOptions(req))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if fmt.Sprint(res.Picks) != fmt.Sprint(fresh.Picks) || res.Stats.Cost != fresh.Stats.Cost {
			t.Fatalf("shard %d answer %v (cost %d), fresh resolver %v (cost %d)",
				i, res.Picks, res.Stats.Cost, fresh.Picks, fresh.Stats.Cost)
		}
	}
	for i, sh := range p.Snapshot().Members {
		if sh.Encoding.Resets != 1 {
			t.Fatalf("shard %d: %d resets, want 1", i, sh.Encoding.Resets)
		}
	}
}
