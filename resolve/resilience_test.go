package resolve

// Pinned tests for the panic-containment and crashloop layer: an injected
// panic during a shard's solve is contained (the request fails with it,
// the shard is benched) and healed by a rebuild at the next Resolve entry;
// a shard that panics on every rebuild ends sticky-benched with the panic
// visible in Health().

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/faultpoint"
	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// TestPoolSolvePanicHeal: a pool shard that panics mid-solve fails that
// request with the contained *PanicError, is excluded from routing, and is
// replaced by a fresh session at the next Resolve entry — capacity
// recovers without an Apply. On one shard the heal is the backend's only
// way back; on three, the others keep serving meanwhile.
func TestPoolSolvePanicHeal(t *testing.T) {
	registry := func() *repo.Universe { u, _ := repo.SynthRegistry(120, 3); return u }
	_, root := repo.SynthRegistry(120, 3)
	req := poolRequest(root)
	forPools(t, registry, []int{1, 3}, func(t *testing.T, p *PoolResolver) {

		armFault(t, "resolve/pool/solve", faultpoint.Panic(1, "injected shard panic"))

		_, err := p.Resolve(context.Background(), req)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("panicking shard returned %T, want *PanicError: %v", err, err)
		}
		if st := p.Snapshot(); st.Panics != 1 || st.Broken != 1 {
			t.Fatalf("stats panics/broken = %d/%d, want 1/1", st.Panics, st.Broken)
		}
		// The benched shard keeps the contained panic, with its stack, in
		// Health.
		for _, h := range p.Health() {
			if !h.Quarantined {
				continue
			}
			if !errors.As(h.Err, &pe) || !strings.Contains(pe.Value, "injected shard panic") || len(pe.Stack) == 0 {
				t.Fatalf("benched shard %s error %v, want the contained panic with its stack", h.Name, h.Err)
			}
			if h.CrashLoop {
				t.Fatal("single panic marked as crashloop")
			}
		}

		// Next entry heals the shard; the request succeeds.
		res, err := p.Resolve(context.Background(), req)
		if err != nil || !res.Stats.Optimal {
			t.Fatalf("resolve after heal: %v", err)
		}
		st := p.Snapshot()
		if st.Broken != 0 {
			t.Fatalf("broken shards after heal = %d, want 0", st.Broken)
		}
		if st.Rebuilds != 1 {
			t.Fatalf("rebuilds = %d, want 1", st.Rebuilds)
		}
		for i, sh := range st.Members {
			if sh.Quarantined || sh.CrashLoop {
				t.Fatalf("shard %d still broken: %+v", i, sh)
			}
		}
	})
}

// TestPoolCrashLoopSticky: a shard that panics on every rebuild goes
// sticky — CrashLoop set, the panic preserved in Health(), no further
// rebuild attempts; the pool keeps serving on the remaining shards and
// reports the capacity loss, and an operator Rebuild restores it.
func TestPoolCrashLoopSticky(t *testing.T) {
	u, root := repo.SynthRegistry(120, 3)
	p := NewPoolResolver(u, 3, SessionOptions{})
	p.SetCrashLoopPolicy(2, time.Hour)
	req := poolRequest(root)

	t.Cleanup(faultpoint.DisarmAll)
	if err := faultpoint.Arm("resolve/pool/solve", faultpoint.Any(faultpoint.Panic(1, "injected shard panic"))); err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Arm("resolve/pool/rebuild", faultpoint.Any(faultpoint.Panic(0, "injected rebuild panic"))); err != nil {
		t.Fatal(err)
	}

	// First request eats the solve panic; subsequent entries burn rebuild
	// attempts until the shard goes sticky.
	_, err := p.Resolve(context.Background(), req)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want contained panic, got %v", err)
	}
	sticky := ""
	for i := 0; i < 6 && sticky == ""; i++ {
		if _, err := p.Resolve(context.Background(), req); err != nil {
			t.Fatalf("resolve %d on surviving shards: %v", i, err)
		}
		for _, sh := range p.Snapshot().Members {
			if sh.CrashLoop {
				sticky = sh.Name
			}
		}
	}
	if sticky == "" {
		t.Fatal("crashlooping shard never went sticky")
	}
	for _, h := range p.Health() {
		if h.Name != sticky {
			if h.Quarantined {
				t.Fatalf("healthy shard %s benched: %v", h.Name, h.Err)
			}
			continue
		}
		if !h.Quarantined || !errors.As(h.Err, &pe) || !strings.Contains(h.Err.Error(), "crashlooping") {
			t.Fatalf("crashlooping shard health = %+v, want benched with the panic and the crashloop cause", h)
		}
	}
	// Sticky means sticky: further Resolves must not attempt more rebuilds.
	before := faultpoint.Hits("resolve/pool/rebuild")
	if _, err := p.Resolve(context.Background(), req); err != nil {
		t.Fatalf("resolve with a sticky shard: %v", err)
	}
	if after := faultpoint.Hits("resolve/pool/rebuild"); after != before {
		t.Fatalf("sticky shard still rebuilding: %d -> %d attempts", before, after)
	}

	faultpoint.DisarmAll()
	healed := p.Rebuild()
	if len(healed) != 1 || healed[0] != sticky {
		t.Fatalf("Rebuild healed %v, want [%s]", healed, sticky)
	}
	if st := p.Snapshot(); st.Broken != 0 {
		t.Fatalf("broken after operator rebuild = %d", st.Broken)
	}
	if _, err := p.Resolve(context.Background(), req); err != nil {
		t.Fatalf("resolve after operator rebuild: %v", err)
	}
}

// TestOneShardPoolCrashLoop: on a one-shard pool, the single-session
// backend, a sticky shard leaves nothing to route to. A shape the store
// holds is still served; any other fails with ErrNoActiveMembers, with no
// further rebuild attempt, until an operator Rebuild heals the shard.
func TestOneShardPoolCrashLoop(t *testing.T) {
	u, root := repo.SynthDiamond(3, 4)
	p := NewPoolResolver(u, 1, SessionOptions{})
	p.SetCrashLoopPolicy(2, time.Hour)
	stored := mustResolve(t, p, root)
	unseen := Request{Roots: []Root{{Pkg: "mid0"}}}

	armFault(t, "resolve/pool/solve", faultpoint.Panic(1, "injected shard panic"))
	armFault(t, "resolve/pool/rebuild", faultpoint.Panic(0, "injected rebuild panic"))

	// The first miss eats the solve panic; each later entry burns one
	// rebuild attempt, and with no shard left the miss fails.
	_, err := p.Resolve(context.Background(), unseen)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want contained panic, got %v", err)
	}
	for i := 0; i < 6 && !p.Health()[0].CrashLoop; i++ {
		if _, err := p.Resolve(context.Background(), unseen); !errors.Is(err, ErrNoActiveMembers) {
			t.Fatalf("miss %d with the only shard benched: %v, want ErrNoActiveMembers", i, err)
		}
	}
	h := p.Health()[0]
	if !h.Quarantined || !h.CrashLoop || !errors.As(h.Err, &pe) || !strings.Contains(h.Err.Error(), "crashlooping") {
		t.Fatalf("crashlooping shard health = %+v, want sticky with the panic and the crashloop cause", h)
	}

	// Sticky means sticky: neither a hit nor a miss attempts a rebuild.
	before := faultpoint.Hits("resolve/pool/rebuild")
	hit := mustResolve(t, p, root)
	if !hit.Stats.SolutionCacheHit || hit.Config != stored.Config || !samePicks(hit, stored) {
		t.Fatalf("stored shape on a sticky pool: hit %v by %s, want the stored answer by %s", hit.Stats.SolutionCacheHit, hit.Config, stored.Config)
	}
	if _, err := p.Resolve(context.Background(), unseen); !errors.Is(err, ErrNoActiveMembers) {
		t.Fatalf("miss on a sticky pool: %v, want ErrNoActiveMembers", err)
	}
	if after := faultpoint.Hits("resolve/pool/rebuild"); after != before {
		t.Fatalf("sticky shard still rebuilding: %d -> %d attempts", before, after)
	}

	faultpoint.DisarmAll()
	if healed := p.Rebuild(); len(healed) != 1 || healed[0] != "pool/0" {
		t.Fatalf("Rebuild healed %v, want [pool/0]", healed)
	}
	if res := mustResolve(t, p, "mid0"); !res.Stats.Optimal || res.Config != "pool/0" {
		t.Fatalf("miss after operator rebuild: %+v", res)
	}
}

// TestPoolExtendPanicNamesShard: a shard whose extension panics again
// inside its crashloop window goes sticky, and the contained panic it
// keeps names the shard ("pool/1"), like a solve panic does.
func TestPoolExtendPanicNamesShard(t *testing.T) {
	u, _ := repo.SynthRegistry(120, 3)
	p := NewPoolResolver(u, 3, SessionOptions{})
	p.SetCrashLoopPolicy(1, time.Hour)
	for i := 0; i < 2; i++ {
		armFault(t, "concretize/extend", faultpoint.Skip(1), faultpoint.Panic(1, "injected extend panic"))
		d := NewDelta()
		d.Add("reg60", fmt.Sprintf("%d.0", 90+i))
		if _, err := p.Apply(d); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	h := p.Health()[1]
	var pe *PanicError
	if !h.CrashLoop || !errors.As(h.Err, &pe) {
		t.Fatalf("shard 1 after two extension panics: %+v, want sticky with the contained panic", h)
	}
	if h.Name != "pool/1" || pe.Op != "pool/1" {
		t.Fatalf("shard name %q, panic Op %q, want pool/1 for both", h.Name, pe.Op)
	}
}
