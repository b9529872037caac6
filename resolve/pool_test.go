package resolve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/concretize"
	"github.com/paper-repo-growth/go-arxiv/internal/faultpoint"
	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

func poolRequest(spec string) Request {
	r, err := ParseRoot(spec)
	if err != nil {
		panic(err)
	}
	return Request{Roots: []Root{r}}
}

// TestPoolShapeAffinity: the first arrival of a shape solves on its home
// shard, and repeats are answered from the pool's answer store — naming
// that shard — without routing: no other shard ever solves, and the
// serving shard solves once.
func TestPoolShapeAffinity(t *testing.T) {
	u, root := repo.SynthRegistry(300, 5)
	p := NewPoolResolver(u, 4, SessionOptions{})
	if n := len(p.Snapshot().Members); n != 4 {
		t.Fatalf("%d shards, want 4", n)
	}

	req := poolRequest(root)
	var config string
	for i := 0; i < 3; i++ {
		res, err := p.Resolve(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !res.Stats.Optimal {
			t.Fatalf("request %d: not optimal", i)
		}
		if i == 0 {
			config = res.Config
		} else if res.Config != config {
			t.Fatalf("request %d served by %s, first by %s — affinity broken", i, res.Config, config)
		}
		if wantHit := i > 0; res.Stats.SolutionCacheHit != wantHit {
			t.Fatalf("request %d: cache hit %v, want %v", i, res.Stats.SolutionCacheHit, wantHit)
		}
	}
	if config != fmt.Sprintf("pool/%d", shapeShard(req.Key(), 4)) {
		t.Fatalf("first solve on %s, want the home shard %d", config, shapeShard(req.Key(), 4))
	}

	st := p.Snapshot()
	if st.Hits != 2 || st.Steals != 0 || st.Waits != 0 || st.Answers != 1 {
		t.Fatalf("stats hits/steals/waits/answers = %d/%d/%d/%d, want 2/0/0/1", st.Hits, st.Steals, st.Waits, st.Answers)
	}
	solving := 0
	for i, sh := range st.Members {
		if sh.Served > 0 {
			solving++
			if sh.Served != 1 {
				t.Fatalf("shard %d served %d, want 1 solve", i, sh.Served)
			}
			if sh.Encoding.MaterializedPackages == 0 {
				t.Fatalf("serving shard %d materialized nothing", i)
			}
		} else if sh.Encoding.MaterializedPackages != 0 {
			t.Fatalf("idle shard %d materialized %d packages", i, sh.Encoding.MaterializedPackages)
		}
	}
	if solving != 1 {
		t.Fatalf("%d shards served one shape, want 1", solving)
	}
}

// TestPoolRouting: the routing ladder, white-box — idle home beats idle
// steal beats busy home, and broken shards never route.
func TestPoolRouting(t *testing.T) {
	u, root := repo.SynthRegistry(120, 3)
	p := NewPoolResolver(u, 3, SessionOptions{})
	req := poolRequest(root)
	home := shapeShard(req.Key(), 3)

	// All idle: home solves.
	if got, stolen, ok := p.route(home); got != home || stolen || !ok {
		t.Fatalf("idle route = (%d,%v,%v), want home %d", got, stolen, ok, home)
	}

	// Home busy, others idle: steal an idle shard.
	p.members[home].inflight.Add(1)
	got, stolen, ok := p.route(home)
	if got == home || !stolen || !ok {
		t.Fatalf("busy-home route = (%d,%v,%v), want a steal", got, stolen, ok)
	}

	// Everything busy: queue on home.
	for i := range p.members {
		if i != home {
			p.members[i].inflight.Add(1)
		}
	}
	if got, stolen, ok := p.route(home); got != home || stolen || !ok {
		t.Fatalf("all-busy route = (%d,%v,%v), want the home queue", got, stolen, ok)
	}
	for i := range p.members {
		p.members[i].inflight.Add(-1)
	}

	// A broken home falls back to a healthy shard at every tier.
	p.members[home].bench.Store(&benchState{err: fmt.Errorf("injected")})
	if got, _, ok := p.route(home); got == home || !ok {
		t.Fatalf("broken-home route = (%d,%v), want a healthy fallback", got, ok)
	}
	for i := range p.members {
		p.members[i].bench.Store(&benchState{err: fmt.Errorf("injected")})
	}
	if _, _, ok := p.route(home); ok {
		t.Fatal("all-broken route reported ok")
	}
	for i := range p.members {
		p.members[i].bench.Store(nil)
	}
}

// TestPoolCrossShardHit: a shape solved on one shard is a hit for a
// request that routes from another shard — the store sits in front of
// routing, so no shard is probed and none solves again — and the hit
// counts in the pool's hits and names the shard that solved it.
func TestPoolCrossShardHit(t *testing.T) {
	u, root := repo.SynthRegistry(120, 3)
	p := NewPoolResolver(u, 3, SessionOptions{})
	req := poolRequest(root)
	home := shapeShard(req.Key(), 3)

	// Home busy: the first arrival steals another shard and solves there.
	p.members[home].inflight.Add(1)
	first, err := p.Resolve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	p.members[home].inflight.Add(-1)
	if first.Config == fmt.Sprintf("pool/%d", home) || first.Stats.SolutionCacheHit {
		t.Fatalf("first arrival on %s (hit %v), want a steal off home %d", first.Config, first.Stats.SolutionCacheHit, home)
	}

	// The repeat routes from the now idle home, yet is a hit naming the
	// shard that solved it; the home shard never solves.
	again, err := p.Resolve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Stats.SolutionCacheHit || again.Config != first.Config {
		t.Fatalf("repeat: hit %v on %s, want a hit naming %s", again.Stats.SolutionCacheHit, again.Config, first.Config)
	}
	st := p.Snapshot()
	if st.Hits != 1 || st.Steals != 1 {
		t.Fatalf("hits/steals = %d/%d, want 1/1", st.Hits, st.Steals)
	}
	if served := st.Members[home].Served; served != 0 {
		t.Fatalf("home shard served %d requests, want 0", served)
	}
}

// TestPoolApplyBroadcast: a delta reaches every shard under the write
// barrier — each shard session serves at the new epoch and sees the
// delta's answer.
func TestPoolApplyBroadcast(t *testing.T) {
	u, root := repo.SynthDiamond(3, 4)
	p := NewPoolResolver(u, 3, SessionOptions{})

	// Warm every shard on the pre-delta universe directly.
	req := poolRequest(root)
	for i := range p.members {
		if _, err := p.members[i].se.Resolve(context.Background(), req.Roots, concretizeOptions(req)); err != nil {
			t.Fatalf("warm shard %d: %v", i, err)
		}
	}

	d := NewDelta()
	d.Add("app", "99.0", repo.Dep("mid0", ":"))
	epoch, err := p.Apply(d)
	if err != nil || epoch != 1 {
		t.Fatalf("Apply = (%d, %v), want (1, nil)", epoch, err)
	}
	if p.Epoch() != 1 {
		t.Fatalf("pool epoch %d, want 1", p.Epoch())
	}
	for i := range p.members {
		res, err := p.members[i].se.Resolve(context.Background(), req.Roots, concretizeOptions(req))
		if err != nil {
			t.Fatalf("shard %d post-delta: %v", i, err)
		}
		if got := res.Picks["app"].String(); got != "99.0" {
			t.Fatalf("shard %d picked app %s, want the delta's 99.0", i, got)
		}
		if res.Stats.Epoch != 1 {
			t.Fatalf("shard %d answered at epoch %d, want 1", i, res.Stats.Epoch)
		}
	}
	if st := p.Snapshot(); st.Rebuilds != 0 {
		t.Fatalf("clean broadcast counted %d rebuilds", st.Rebuilds)
	}
}

// TestPoolHammer: 8 clients over mixed request shapes race a stream of
// Applies; the write barrier, routing atomics, cache probes, and shard
// rebuilds (every third delta faults one shard) must interleave cleanly.
func TestPoolHammer(t *testing.T) {
	const workers = 8
	u, _ := repo.SynthRegistry(400, 4)
	p := NewPoolResolver(u, 4, SessionOptions{})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				spec := fmt.Sprintf("reg%d", rng.Intn(400))
				if rng.Intn(3) == 0 {
					spec = fmt.Sprintf("%s@:%d", spec, 1+rng.Intn(5))
				}
				res, err := p.Resolve(context.Background(), poolRequest(spec))
				switch {
				case err != nil && !errors.Is(err, ErrUnsatisfiable):
					t.Errorf("worker %d: %v", w, err)
					return
				case err == nil && !res.Stats.Optimal:
					t.Errorf("worker %d: non-optimal without a budget", w)
					return
				}
			}
		}()
	}

	t.Cleanup(faultpoint.DisarmAll)
	for i := 0; i < 20; i++ {
		if i%3 == 2 {
			// Fault shard i%4 during this broadcast: shards extend in index
			// order, and the exhausted schedule auto-disarms afterwards.
			if err := faultpoint.Arm("concretize/extend", faultpoint.Any(faultpoint.Skip(i%4), faultpoint.Error(1, nil))); err != nil {
				t.Fatal(err)
			}
		}
		d := NewDelta()
		d.Add(fmt.Sprintf("reg%d", (i*53)%400), fmt.Sprintf("%d.0", 100+i))
		if _, err := p.Apply(d); err != nil {
			t.Errorf("Apply %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()

	st := p.Snapshot()
	if st.Rebuilds == 0 {
		t.Error("fault-injected hammer saw no rebuilds")
	}
	if p.Epoch() != 20 {
		t.Errorf("epoch %d, want 20", p.Epoch())
	}
}

// TestPoolRebuild: benched shards return to routing — rebuilt from the
// current universe, serving at the current epoch.
func TestPoolRebuild(t *testing.T) {
	u, root := repo.SynthDiamond(3, 4)
	p := NewPoolResolver(u, 3, SessionOptions{})
	// Shards extend in shard order: fault the second and third, and fail
	// both rebuilds the broadcast attempts; then the exhausted schedules
	// auto-disarm.
	armFault(t, "concretize/extend", faultpoint.Skip(1), faultpoint.Error(2, nil))
	armFault(t, "resolve/pool/rebuild", faultpoint.Error(2, nil))
	if _, err := p.Apply(diamondDelta()); err != nil {
		t.Fatal(err)
	}

	healed := p.Rebuild()
	if len(healed) != 2 || healed[0] != "pool/1" || healed[1] != "pool/2" {
		t.Fatalf("Rebuild healed %v, want [pool/1 pool/2]", healed)
	}
	if again := p.Rebuild(); again != nil {
		t.Fatalf("second Rebuild healed %v, want nil", again)
	}
	for _, h := range p.Health() {
		if h.Quarantined || h.Err != nil {
			t.Fatalf("shard %s still benched after Rebuild: %+v", h.Name, h)
		}
		if h.Epoch != 1 {
			t.Fatalf("shard %s at epoch %d, want 1", h.Name, h.Epoch)
		}
	}
	res, err := p.Resolve(context.Background(), poolRequest(root))
	if err != nil || !res.Stats.Optimal {
		t.Fatalf("post-rebuild resolve: %v", err)
	}
	if got := res.Picks["app"].String(); got != "99.0" {
		t.Fatalf("post-rebuild picked app %s, want the delta's 99.0", got)
	}
}

// concretizeOptions mirrors PoolResolver.Resolve's lowering for direct
// shard-session calls in white-box tests.
func concretizeOptions(req Request) concretize.Options {
	return concretize.Options{MaxConflicts: req.MaxConflicts, Objective: req.Objective}
}
