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

// TestPoolShapeAffinity: repeats of one request shape land on one shard —
// the second arrival is served from that shard's solution cache, and no
// other shard ever solves.
func TestPoolShapeAffinity(t *testing.T) {
	u, root := repo.SynthRegistry(300, 5)
	p := NewPoolResolver(u, 4, SessionOptions{})
	if p.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", p.NumShards())
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

	st := p.Stats()
	if st.Hits != 2 || st.Steals != 0 || st.Waits != 0 {
		t.Fatalf("stats hits/steals/waits = %d/%d/%d, want 2/0/0", st.Hits, st.Steals, st.Waits)
	}
	solving := 0
	for i, sh := range st.Shard {
		if sh.Served > 0 {
			solving++
			if sh.Served != 3 || sh.CacheHits != 2 {
				t.Fatalf("shard %d served/hits = %d/%d, want 3/2", i, sh.Served, sh.CacheHits)
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

// TestPoolRouting: the routing ladder, white-box — cached shard (home
// first) beats idle home beats idle steal beats busy home.
func TestPoolRouting(t *testing.T) {
	u, root := repo.SynthRegistry(120, 3)
	p := NewPoolResolver(u, 3, SessionOptions{})
	req := poolRequest(root)
	key := req.Key()
	home := shapeShard(key, 3)

	// All idle, nothing cached: home solves.
	if got, stolen, cached, ok := p.route(home, key); got != home || stolen || cached || !ok {
		t.Fatalf("idle route = (%d,%v,%v,%v), want home %d", got, stolen, cached, ok, home)
	}

	// Home busy, others idle: steal an idle shard.
	p.members[home].inflight.Add(1)
	got, stolen, cached, ok := p.route(home, key)
	if got == home || !stolen || cached || !ok {
		t.Fatalf("busy-home route = (%d,%v,%v,%v), want a steal", got, stolen, cached, ok)
	}

	// Everything busy: queue on home.
	for i := range p.members {
		if i != home {
			p.members[i].inflight.Add(1)
		}
	}
	if got, stolen, _, ok := p.route(home, key); got != home || stolen || !ok {
		t.Fatalf("all-busy route = (%d,%v,%v), want the home queue", got, stolen, ok)
	}
	for i := range p.members {
		p.members[i].inflight.Add(-1)
	}

	// A non-home shard holds the answer: routed there even when busy.
	other := (home + 1) % 3
	if _, err := p.members[other].se.Resolve(context.Background(), req.Roots, concretizeOptions(req)); err != nil {
		t.Fatalf("prime other shard: %v", err)
	}
	p.members[other].inflight.Add(1)
	if got, stolen, cached, ok := p.route(home, key); got != other || !stolen || !cached || !ok {
		t.Fatalf("cached-elsewhere route = (%d,%v,%v,%v), want shard %d cached", got, stolen, cached, ok, other)
	}
	p.members[other].inflight.Add(-1)

	// Home holds it too: home wins regardless.
	if _, err := p.members[home].se.Resolve(context.Background(), req.Roots, concretizeOptions(req)); err != nil {
		t.Fatalf("prime home shard: %v", err)
	}
	if got, stolen, cached, ok := p.route(home, key); got != home || stolen || !cached || !ok {
		t.Fatalf("cached-home route = (%d,%v,%v,%v), want home cached", got, stolen, cached, ok)
	}

	// A broken home falls back to a healthy shard at every tier.
	p.members[home].bench.Store(&benchState{err: fmt.Errorf("injected")})
	if got, _, _, ok := p.route(home, key); got == home || !ok {
		t.Fatalf("broken-home route = (%d,%v), want a healthy fallback", got, ok)
	}
	for i := range p.members {
		p.members[i].bench.Store(&benchState{err: fmt.Errorf("injected")})
	}
	if _, _, _, ok := p.route(home, key); ok {
		t.Fatal("all-broken route reported ok")
	}
	for i := range p.members {
		p.members[i].bench.Store(nil)
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
	if st := p.Stats(); st.Rebuilds != 0 {
		t.Fatalf("clean broadcast counted %d rebuilds", st.Rebuilds)
	}
}

// TestPoolApplyRebuildsFailedShard: the self-heal contract — a shard whose
// extension fails is replaced by a fresh session over the grown universe,
// Apply reports success, and the pool keeps full serving capacity.
func TestPoolApplyRebuildsFailedShard(t *testing.T) {
	u, root := repo.SynthRegistry(200, 4)
	p := NewPoolResolver(u, 3, SessionOptions{})
	req := poolRequest(root)
	if _, err := p.Resolve(context.Background(), req); err != nil {
		t.Fatalf("warm: %v", err)
	}

	// Shards extend in index order during the broadcast: skip shard 0,
	// fault shard 1, and the schedule exhausts (auto-disarming) before
	// shard 2.
	armFault(t, "concretize/extend", faultpoint.Skip(1), faultpoint.Error(1, nil))
	d := NewDelta()
	d.Add("reg150", "9.0")
	epoch, err := p.Apply(d)
	if err != nil || epoch != 1 {
		t.Fatalf("Apply = (%d, %v), want (1, nil) — rebuilds self-heal", epoch, err)
	}
	st := p.Stats()
	if st.Rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1", st.Rebuilds)
	}
	// The rebuilt shard is fresh: nothing materialized, new epoch.
	enc := st.Shard[1].Encoding
	if enc.MaterializedPackages != 0 {
		t.Fatalf("rebuilt shard not fresh: %+v", enc)
	}
	if got := p.members[1].se.Epoch(); got != 1 {
		t.Fatalf("rebuilt shard at epoch %d, want 1", got)
	}
	// Full capacity: every shard answers, including the rebuilt one.
	for i := range p.members {
		res, err := p.members[i].se.Resolve(context.Background(), req.Roots, concretizeOptions(req))
		if err != nil || !res.Stats.Optimal {
			t.Fatalf("shard %d after rebuild: %v", i, err)
		}
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

	st := p.Stats()
	if st.Rebuilds == 0 {
		t.Error("fault-injected hammer saw no rebuilds")
	}
	if p.Epoch() != 20 {
		t.Errorf("epoch %d, want 20", p.Epoch())
	}
}

// TestPortfolioRebuild: quarantined members return to the race — rebuilt
// from the current universe with their own configuration, serving at the
// current epoch.
func TestPortfolioRebuild(t *testing.T) {
	u, root := repo.SynthDiamond(3, 4)
	p := mustPortfolio(t, u)
	// Members extend in racing order (baseline, positive, dive, steady):
	// fault the second and fourth, then the exhausted schedule auto-disarms.
	armFault(t, "concretize/extend",
		faultpoint.Skip(1), faultpoint.Error(1, nil),
		faultpoint.Skip(1), faultpoint.Error(1, nil))
	if _, err := p.Apply(diamondDelta()); err == nil {
		t.Fatal("faulted broadcast returned nil error")
	}

	healed := p.Rebuild()
	if len(healed) != 2 || healed[0] != "positive" || healed[1] != "steady" {
		t.Fatalf("Rebuild healed %v, want [positive steady]", healed)
	}
	if again := p.Rebuild(); again != nil {
		t.Fatalf("second Rebuild healed %v, want nil", again)
	}
	for _, h := range p.Health() {
		if h.Quarantined || h.Err != nil {
			t.Fatalf("member %s still benched after Rebuild: %+v", h.Name, h)
		}
		if h.Epoch != 1 {
			t.Fatalf("member %s at epoch %d, want 1", h.Name, h.Epoch)
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
