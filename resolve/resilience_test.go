package resolve

// Pinned tests for the panic-containment and crashloop layer: an injected
// panic during a portfolio member's solve is contained (benched, raced
// around) and healed by a rebuild at the next Resolve entry; a member that
// panics on every rebuild ends sticky-benched with the panic visible in
// Health(); the pool heals a panicking shard the same way.

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

// TestPortfolioSolvePanicQuarantineAndHeal: the acceptance scenario — an
// injected panic during one member's solve is contained (the race falls
// through to the survivors), the member is quarantined with the panic in
// Health(), and the next Resolve entry rebuilds it back into the race.
func TestPortfolioSolvePanicQuarantineAndHeal(t *testing.T) {
	u, root := repo.SynthDiamond(3, 4)
	p := mustPortfolio(t, u)
	req := Request{Roots: []Root{{Pkg: root}}, Objective: NewestVersion()}

	armFault(t, "resolve/portfolio/solve", faultpoint.Panic(1, "injected solve panic"))

	// The panicking member is raced around: the request still succeeds.
	res, err := p.Resolve(context.Background(), req)
	if err != nil {
		t.Fatalf("resolve with one panicking member: %v", err)
	}
	if !res.Stats.Optimal {
		t.Fatal("survivors returned a non-optimal answer")
	}

	// Exactly one member is benched, with the contained panic (and its
	// stack) in Health.
	benched := 0
	for _, h := range p.Health() {
		if !h.Quarantined {
			continue
		}
		benched++
		var pe *PanicError
		if !errors.As(h.Err, &pe) {
			t.Fatalf("benched member error %T, want *PanicError: %v", h.Err, h.Err)
		}
		if !strings.Contains(pe.Value, "injected solve panic") {
			t.Fatalf("contained panic value = %q", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("contained panic lost its stack")
		}
		if h.CrashLoop {
			t.Fatal("single panic marked as crashloop")
		}
	}
	if benched != 1 {
		t.Fatalf("benched members = %d, want 1", benched)
	}

	// The next Resolve entry auto-heals: fresh session, back in the race.
	if _, err := p.Resolve(context.Background(), req); err != nil {
		t.Fatalf("resolve after heal: %v", err)
	}
	for _, h := range p.Health() {
		if h.Quarantined {
			t.Fatalf("member %s still benched after auto-heal: %v", h.Name, h.Err)
		}
	}
}

// TestPortfolioCrashLoopSticky: a member that panics on every rebuild
// exhausts the crashloop budget and ends sticky-benched — CrashLoop set,
// the panic preserved in Health(), no further rebuild attempts — until an
// explicit Rebuild resets the window.
func TestPortfolioCrashLoopSticky(t *testing.T) {
	u, root := repo.SynthDiamond(3, 4)
	p := mustPortfolio(t, u)
	p.SetCrashLoopPolicy(2, time.Hour)
	req := Request{Roots: []Root{{Pkg: root}}, Objective: NewestVersion()}

	t.Cleanup(faultpoint.DisarmAll)
	// "positive" panics once mid-solve (benching it), then panics on every
	// rebuild attempt.
	if err := faultpoint.Arm("resolve/portfolio/solve",
		faultpoint.On("positive", faultpoint.Panic(1, "injected solve panic"))); err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Arm("resolve/portfolio/rebuild",
		faultpoint.On("positive", faultpoint.Panic(0, "injected rebuild panic"))); err != nil {
		t.Fatal(err)
	}

	// Each Resolve entry burns one heal attempt; with a budget of 2 the
	// member must be sticky within a handful of requests.
	sticky := false
	for i := 0; i < 6 && !sticky; i++ {
		if _, err := p.Resolve(context.Background(), req); err != nil {
			t.Fatalf("resolve %d: %v", i, err)
		}
		for _, h := range p.Health() {
			if h.Name == "positive" && h.CrashLoop {
				sticky = true
			}
		}
	}
	if !sticky {
		t.Fatal("crashlooping member never went sticky")
	}
	for _, h := range p.Health() {
		if h.Name != "positive" {
			if h.Quarantined {
				t.Fatalf("healthy member %s benched: %v", h.Name, h.Err)
			}
			continue
		}
		if !h.Quarantined || !h.CrashLoop {
			t.Fatalf("crashlooping member health = %+v", h)
		}
		var pe *PanicError
		if !errors.As(h.Err, &pe) {
			t.Fatalf("crashloop bench lost the panic: %v", h.Err)
		}
		if !strings.Contains(h.Err.Error(), "crashlooping") {
			t.Fatalf("crashloop bench error = %v", h.Err)
		}
	}
	// Sticky means sticky: further Resolves must not attempt more rebuilds.
	before := faultpoint.Hits("resolve/portfolio/rebuild")
	if _, err := p.Resolve(context.Background(), req); err != nil {
		t.Fatalf("resolve with sticky member: %v", err)
	}
	if after := faultpoint.Hits("resolve/portfolio/rebuild"); after != before {
		t.Fatalf("sticky member still rebuilding: %d -> %d attempts", before, after)
	}

	// Explicit Rebuild is the operator override: with the fault gone it
	// resets the window and heals the member.
	faultpoint.DisarmAll()
	if healed := p.Rebuild(); len(healed) != 1 || healed[0] != "positive" {
		t.Fatalf("Rebuild healed %v, want [positive]", healed)
	}
	for _, h := range p.Health() {
		if h.Quarantined {
			t.Fatalf("member %s benched after operator rebuild: %v", h.Name, h.Err)
		}
	}
	if _, err := p.Resolve(context.Background(), req); err != nil {
		t.Fatalf("resolve after operator rebuild: %v", err)
	}
}

// TestPoolSolvePanicHeal: a pool shard that panics mid-solve fails that
// request with the contained *PanicError, is excluded from routing, and is
// replaced by a fresh session at the next Resolve entry — capacity
// recovers without an Apply.
func TestPoolSolvePanicHeal(t *testing.T) {
	u, root := repo.SynthRegistry(120, 3)
	p := NewPoolResolver(u, 3, SessionOptions{})
	req := poolRequest(root)

	armFault(t, "resolve/pool/solve", faultpoint.Panic(1, "injected shard panic"))

	_, err := p.Resolve(context.Background(), req)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking shard returned %T, want *PanicError: %v", err, err)
	}
	if st := p.Snapshot(); st.Panics != 1 || st.Broken != 1 {
		t.Fatalf("stats panics/broken = %d/%d, want 1/1", st.Panics, st.Broken)
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
}

// TestPoolCrashLoopSticky: a shard that panics on every rebuild goes
// sticky; the pool keeps serving on the remaining shards and reports the
// capacity loss, and an operator Rebuild restores it.
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
	sticky := false
	for i := 0; i < 6 && !sticky; i++ {
		if _, err := p.Resolve(context.Background(), req); err != nil {
			t.Fatalf("resolve %d on surviving shards: %v", i, err)
		}
		for _, sh := range p.Snapshot().Members {
			if sh.CrashLoop {
				sticky = true
			}
		}
	}
	if !sticky {
		t.Fatal("crashlooping shard never went sticky")
	}

	faultpoint.DisarmAll()
	healed := p.Rebuild()
	if len(healed) != 1 {
		t.Fatalf("Rebuild healed %v, want one shard", healed)
	}
	if st := p.Snapshot(); st.Broken != 0 {
		t.Fatalf("broken after operator rebuild = %d", st.Broken)
	}
	if _, err := p.Resolve(context.Background(), req); err != nil {
		t.Fatalf("resolve after operator rebuild: %v", err)
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
