package resolve

// Pinned tests for the answer store's contract at the member set: one
// store per backend, checked before routing or racing, filled with every
// definitive answer, invalidated once per Apply (even when every member's
// extension fails), and surviving heals.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/faultpoint"
	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// storeBackend is what these tests drive: either member-set policy.
type storeBackend interface {
	Resolver
	Apply(*Delta) (Epoch, error)
	Epoch() Epoch
	Rebuild() []string
	Health() []MemberHealth
	Snapshot() Snapshot
	SetCrashLoopPolicy(int, time.Duration)
}

// storeBackends builds one of each policy over its own copy of a
// universe: a two-member portfolio and a two-shard pool.
func storeBackends(t *testing.T, universe func() *repo.Universe) map[string]storeBackend {
	t.Helper()
	return map[string]storeBackend{
		"portfolio": mustPortfolio(t, universe(),
			BackendConfig{Name: "a", Options: SessionOptions{}},
			BackendConfig{Name: "b", Options: SessionOptions{}}),
		"pool": NewPoolResolver(universe(), 2, SessionOptions{}),
	}
}

// twoApps is two disjoint subgraphs, so a delta can touch one shape and
// leave the other alone.
func twoApps() *repo.Universe {
	u := repo.New()
	u.Add("appA", "1.0", repo.Dep("libA", ":"))
	u.Add("libA", "1.0")
	u.Add("appB", "1.0", repo.Dep("libB", ":"))
	u.Add("libB", "1.0")
	return u
}

// samePicks reports whether two results pick the same versions.
func samePicks(a, b *Result) bool {
	return maps.EqualFunc(a.Picks, b.Picks, func(x, y version.Version) bool { return x.Equal(y) })
}

func mustResolve(t *testing.T, r Resolver, root string) *Result {
	t.Helper()
	res, err := r.Resolve(context.Background(), Request{Roots: []Root{{Pkg: root}}})
	if err != nil {
		t.Fatalf("resolve %s: %v", root, err)
	}
	return res
}

// TestAnswersSweptWhenEveryExtendFails: with concretize/extend armed on
// every member, Apply still invalidates the store, and a Rebuild keeps it.
// A shape the delta touched re-solves at the new epoch; an untouched
// shape is still a hit naming the member that first solved it.
func TestAnswersSweptWhenEveryExtendFails(t *testing.T) {
	for name, b := range storeBackends(t, twoApps) {
		t.Run(name, func(t *testing.T) {
			a0, b0 := mustResolve(t, b, "appA"), mustResolve(t, b, "appB")

			armFault(t, "concretize/extend", faultpoint.Error(0, nil))
			d := NewDelta()
			d.Add("libA", "2.0")
			if epoch, _ := b.Apply(d); epoch != 1 {
				t.Fatalf("Apply epoch = %d, want 1", epoch)
			}
			faultpoint.DisarmAll()
			b.Rebuild()
			for _, h := range b.Health() {
				if h.Quarantined {
					t.Fatalf("member %s still benched after Rebuild: %v", h.Name, h.Err)
				}
			}

			touched := mustResolve(t, b, "appA")
			if touched.Stats.SolutionCacheHit || touched.Stats.Epoch != 1 || touched.Picks["libA"].String() != "2.0" {
				t.Fatalf("touched shape: hit %v epoch %d libA %s, want a re-solve picking 2.0 at epoch 1",
					touched.Stats.SolutionCacheHit, touched.Stats.Epoch, touched.Picks["libA"])
			}
			if a0.Picks["libA"].String() != "1.0" {
				t.Fatalf("pre-delta appA picked libA %s", a0.Picks["libA"])
			}
			untouched := mustResolve(t, b, "appB")
			if !untouched.Stats.SolutionCacheHit || untouched.Config != b0.Config || !samePicks(untouched, b0) {
				t.Fatalf("untouched shape: hit %v by %s, want the stored answer by %s",
					untouched.Stats.SolutionCacheHit, untouched.Config, b0.Config)
			}
		})
	}
}

// TestAnswersServeBenchedBackend: with every portfolio member benched, a
// shape answered earlier is still a fresh hit at the current epoch — the
// store sits in front of the members — while a shape never answered fails
// with ErrNoActiveMembers.
func TestAnswersServeBenchedBackend(t *testing.T) {
	p := mustPortfolio(t, twoApps(),
		BackendConfig{Name: "a", Options: SessionOptions{}},
		BackendConfig{Name: "b", Options: SessionOptions{}})
	first := mustResolve(t, p, "appA")

	// A delta appA does not reach, with every extension failing; every
	// rebuild fails too, so the members stay benched.
	armFault(t, "concretize/extend", faultpoint.Error(0, nil))
	armFault(t, "resolve/portfolio/rebuild", faultpoint.Error(0, nil))
	d := NewDelta()
	d.Add("libB", "2.0")
	if _, err := p.Apply(d); err != nil {
		t.Fatal(err)
	}
	for _, h := range p.Health() {
		if !h.Quarantined {
			t.Fatalf("member %s still serving", h.Name)
		}
	}

	hit, err := p.Resolve(context.Background(), Request{Roots: []Root{{Pkg: "appA"}}})
	if err != nil {
		t.Fatalf("stored shape with every member benched: %v", err)
	}
	if !hit.Stats.SolutionCacheHit || hit.Config != first.Config || !samePicks(hit, first) {
		t.Fatalf("benched backend: hit %v by %s, want the stored answer by %s", hit.Stats.SolutionCacheHit, hit.Config, first.Config)
	}
	// The stored answer is the current epoch's answer.
	if p.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", p.Epoch())
	}
	fresh := mustResolve(t, NewPoolResolver(p.u, 1, SessionOptions{}), "appA")
	if !samePicks(fresh, hit) || fresh.Stats.Epoch != 1 {
		t.Fatalf("stored answer %v differs from a fresh epoch-1 solve %v", hit.Picks, fresh.Picks)
	}

	if _, err := p.Resolve(context.Background(), Request{Roots: []Root{{Pkg: "appB"}}}); !errors.Is(err, ErrNoActiveMembers) {
		t.Fatalf("unseen shape with every member benched: %v, want ErrNoActiveMembers", err)
	}
}

// TestAnswersUnsatAttribution: a definitive unsat proof, solved or stored,
// comes back as a *MemberError naming the member that proved it, on both
// policies.
func TestAnswersUnsatAttribution(t *testing.T) {
	web := func() *repo.Universe { u, _ := repo.SynthUnsatWeb(4, 3); return u }
	_, root := repo.SynthUnsatWeb(4, 3)
	for name, b := range storeBackends(t, web) {
		t.Run(name, func(t *testing.T) {
			var members []string
			for i := 0; i < 2; i++ {
				_, err := b.Resolve(context.Background(), Request{Roots: []Root{{Pkg: root}}})
				var me *MemberError
				var ue *UnsatError
				if !errors.As(err, &me) || !errors.As(err, &ue) {
					t.Fatalf("request %d: %v, want a *MemberError wrapping an *UnsatError", i, err)
				}
				members = append(members, me.Member)
			}
			if members[0] != members[1] {
				t.Fatalf("stored unsat names %s, the proof came from %s", members[1], members[0])
			}
		})
	}
}

// TestApplyVsHitInterleaving pins the store's lock order against Apply:
// hammer stored hits against a concurrent Apply and assert
// linearizability under -race.
//
//  1. Epoch consistency — every answer is wholly pre-delta or wholly
//     post-delta: the old picks always ride with the old Stats.Epoch and
//     the new picks with the new, never a mix.
//  2. Freshness — a Resolve issued strictly after Apply returned is never
//     served the pre-delta entry: hits hold the barrier shared, and Apply
//     invalidates the store under it exclusively.
//  3. Refill — once a post-delta answer is solved, the store serves it
//     as a hit again.
func TestApplyVsHitInterleaving(t *testing.T) {
	const workers = 4
	diamond := func() *repo.Universe { u, _ := repo.SynthDiamond(3, 4); return u }
	_, root := repo.SynthDiamond(3, 4)
	for name, b := range storeBackends(t, diamond) {
		t.Run(name, func(t *testing.T) {
			req := Request{Roots: []Root{{Pkg: root}}}
			// Prime the store so the workers spin on hits.
			mustResolve(t, b, root)

			var applyReturned atomic.Bool
			stop := make(chan struct{})
			fail := make(chan error, workers)
			var sawNew atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						issuedAfter := applyReturned.Load()
						res, err := b.Resolve(context.Background(), req)
						if err != nil {
							fail <- err
							return
						}
						app := res.Picks["app"].String()
						switch res.Stats.Epoch {
						case 0:
							if app != "4.0" {
								fail <- fmt.Errorf("epoch-0 answer picked app@%s, want 4.0", app)
								return
							}
						case 1:
							if app != "99.0" {
								fail <- fmt.Errorf("epoch-1 answer picked app@%s, want 99.0", app)
								return
							}
							sawNew.Add(1)
						default:
							fail <- fmt.Errorf("answer at impossible epoch %d", res.Stats.Epoch)
							return
						}
						if issuedAfter && res.Stats.Epoch != 1 {
							fail <- fmt.Errorf("resolve issued after Apply returned got a stale epoch-%d answer", res.Stats.Epoch)
							return
						}
					}
				}()
			}

			// Let the workers contend on hits, then land the delta mid-storm.
			time.Sleep(10 * time.Millisecond)
			d := NewDelta()
			d.Add("app", "99.0", repo.Dep("mid0", ":"))
			epoch, err := b.Apply(d)
			applyReturned.Store(true)
			if err != nil || epoch != 1 {
				t.Fatalf("Apply = (%d, %v), want (1, nil)", epoch, err)
			}

			deadline := time.After(5 * time.Second)
			for sawNew.Load() < int64(workers) {
				select {
				case err := <-fail:
					t.Fatal(err)
				case <-deadline:
					t.Fatalf("only %d/%d answers at the post-delta epoch", sawNew.Load(), workers)
				default:
					time.Sleep(time.Millisecond)
				}
			}
			close(stop)
			wg.Wait()
			select {
			case err := <-fail:
				t.Fatal(err)
			default:
			}

			res := mustResolve(t, b, root)
			if !res.Stats.SolutionCacheHit || res.Stats.Epoch != 1 || res.Picks["app"].String() != "99.0" {
				t.Fatalf("final answer hit=%v epoch=%d app=%s, want a stored epoch-1 app@99.0",
					res.Stats.SolutionCacheHit, res.Stats.Epoch, res.Picks["app"])
			}
		})
	}
}
