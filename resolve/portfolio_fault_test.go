package resolve

// White-box fault-injection tests for the Apply broadcast path, over both
// policies: the production failure mode (a member Extend failing
// mid-broadcast) is only reachable through universe corruption, so the
// concretize/extend faultpoint simulates it (members extend in member
// order, so a Skip/Error schedule targets one member). A failed member is
// benched, never left serving at a stale epoch, and rebuilt inside the
// broadcast.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"testing"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/concretize"
	"github.com/paper-repo-growth/go-arxiv/internal/faultpoint"
	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// armFault arms one faultpoint site with a single anonymous rule and
// disarms everything at test end (schedules are process-global).
func armFault(t *testing.T, site string, steps ...faultpoint.Step) {
	t.Helper()
	t.Cleanup(faultpoint.DisarmAll)
	if err := faultpoint.Arm(site, faultpoint.Any(steps...)); err != nil {
		t.Fatal(err)
	}
}

func diamondDelta() *Delta {
	d := NewDelta()
	d.Add("app", "99.0", repo.Dep("mid0", ":"))
	return d
}

// memberSetOf returns the member set behind either policy, for white-box
// checks on its member sessions.
func memberSetOf(b storeBackend) *memberSet {
	switch b := b.(type) {
	case *PortfolioResolver:
		return &b.memberSet
	case *PoolResolver:
		return &b.memberSet
	}
	panic(fmt.Sprintf("unknown backend %T", b))
}

// TestApplyRebuildsFailedMember pins the Apply failure contract on both
// policies: a member whose extension fails is rebuilt inside the
// broadcast, so Apply returns nil at the new epoch, the member serves at
// that epoch, and its answers match the survivors'.
func TestApplyRebuildsFailedMember(t *testing.T) {
	for name, b := range storeBackends(t, twoApps) {
		t.Run(name, func(t *testing.T) {
			set := memberSetOf(b)
			reqs := []Request{{Roots: []Root{{Pkg: "appA"}}}, {Roots: []Root{{Pkg: "appB"}}}}
			for _, m := range set.members {
				for _, req := range reqs {
					if _, err := m.se.Resolve(context.Background(), req.Roots, concretizeOptions(req)); err != nil {
						t.Fatalf("warm %s: %v", m.name, err)
					}
				}
			}
			before := b.Snapshot().Rebuilds

			// Members extend in member order: the second one fails.
			armFault(t, "concretize/extend", faultpoint.Skip(1), faultpoint.Error(1, nil))
			d := NewDelta()
			d.Add("libA", "2.0")
			if epoch, err := b.Apply(d); err != nil || epoch != 1 {
				t.Fatalf("Apply = (%d, %v), want (1, nil)", epoch, err)
			}
			if got := b.Snapshot().Rebuilds; got != before+1 {
				t.Fatalf("rebuilds %d -> %d, want one more", before, got)
			}
			for _, h := range b.Health() {
				if h.Quarantined || h.Err != nil || h.Epoch != 1 {
					t.Fatalf("member %s after the faulted broadcast: %+v, want serving at epoch 1", h.Name, h)
				}
			}
			for _, req := range reqs {
				var first *concretize.Resolution
				for _, m := range set.members {
					res, err := m.se.Resolve(context.Background(), req.Roots, concretizeOptions(req))
					if err != nil || !res.Stats.Optimal || res.Stats.Epoch != 1 {
						t.Fatalf("%s on %s: %+v, %v; want an optimal epoch-1 answer", req.Roots[0].Pkg, m.name, res, err)
					}
					if first == nil {
						first = res
					} else if !maps.EqualFunc(res.Picks, first.Picks, version.Version.Equal) {
						t.Fatalf("%s: %s picked %v, %s picked %v", req.Roots[0].Pkg, m.name, res.Picks, set.members[0].name, first.Picks)
					}
				}
			}
			if res := mustResolve(t, b, "appA"); res.Picks["libA"].String() != "2.0" || res.Stats.Epoch != 1 {
				t.Fatalf("appA after the delta: libA %s at epoch %d, want 2.0 at epoch 1", res.Picks["libA"], res.Stats.Epoch)
			}
		})
	}
}

// TestExtendPanicContained: a member whose extension panics during Apply
// is contained and rebuilt like a failed extension, on both policies —
// Apply succeeds at the new epoch and the backend keeps full capacity.
func TestExtendPanicContained(t *testing.T) {
	for name, b := range storeBackends(t, twoApps) {
		t.Run(name, func(t *testing.T) {
			mustResolve(t, b, "appA")
			armFault(t, "concretize/extend", faultpoint.Skip(1), faultpoint.Panic(1, "injected extend panic"))
			d := NewDelta()
			d.Add("libA", "2.0")
			if epoch, err := b.Apply(d); err != nil || epoch != 1 {
				t.Fatalf("Apply = (%d, %v), want (1, nil)", epoch, err)
			}
			if st := b.Snapshot(); st.Rebuilds != 1 || st.Broken != 0 {
				t.Fatalf("rebuilds/broken = %d/%d, want 1/0", st.Rebuilds, st.Broken)
			}
			res := mustResolve(t, b, "appA")
			if !res.Stats.Optimal || res.Stats.Epoch != 1 || res.Picks["libA"].String() != "2.0" {
				t.Fatalf("appA after the extension panic: %+v, want libA 2.0 at epoch 1", res)
			}
		})
	}
}

// TestFailedRebuildAutoHeals: a crashlooping member whose operator
// Rebuild fails is left benched but not sticky, so a later Resolve entry
// rebuilds it instead of leaving it out until the next Rebuild.
func TestFailedRebuildAutoHeals(t *testing.T) {
	for name, b := range storeBackends(t, twoApps) {
		t.Run(name, func(t *testing.T) {
			b.SetCrashLoopPolicy(2, time.Hour)
			benched := func() MemberHealth { return b.Health()[1] }
			// The second member's extension fails, and so does every
			// rebuild: the broadcast's, then the Resolve entries', until
			// the member goes sticky.
			armFault(t, "concretize/extend", faultpoint.Skip(1), faultpoint.Error(1, nil))
			armFault(t, "resolve/"+name+"/rebuild", faultpoint.Error(0, nil))
			d := NewDelta()
			d.Add("libA", "2.0")
			if _, err := b.Apply(d); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6 && !benched().CrashLoop; i++ {
				mustResolve(t, b, "appA")
			}
			if h := benched(); !h.CrashLoop {
				t.Fatalf("member %s never went sticky: %+v", h.Name, h)
			}
			// The operator override resets the window; its one attempt fails.
			if healed := b.Rebuild(); healed != nil {
				t.Fatalf("faulted Rebuild healed %v, want nil", healed)
			}
			if h := benched(); !h.Quarantined || h.CrashLoop {
				t.Fatalf("member %s after a failed Rebuild: %+v, want benched, not sticky", h.Name, h)
			}

			faultpoint.DisarmAll()
			for i := 0; i < 3; i++ {
				mustResolve(t, b, "appA")
			}
			if st := b.Snapshot(); st.Broken != 0 || st.Rebuilds != 1 {
				t.Fatalf("after a failed Rebuild and 3 resolves: broken/rebuilds = %d/%d, want 0/1", st.Broken, st.Rebuilds)
			}
			if h := benched(); h.Epoch != 1 {
				t.Fatalf("healed member %s at epoch %d, want 1", h.Name, h.Epoch)
			}
		})
	}
}

// TestPortfolioUnsatAttribution pins the second bugfix: a definitive
// unsat answer surfaces WHICH member proved it (via *MemberError) while
// preserving the whole error taxonomy for errors.Is/As callers.
func TestPortfolioUnsatAttribution(t *testing.T) {
	u, root := repo.SynthUnsatWeb(4, 2)
	p := mustPortfolio(t, u)

	_, err := p.Resolve(context.Background(), Request{Roots: []Root{{Pkg: root}}, Objective: NewestVersion()})
	if err == nil {
		t.Fatal("unsat web resolved")
	}
	var me *MemberError
	if !errors.As(err, &me) {
		t.Fatalf("unsat answer %T lost member attribution: %v", err, err)
	}
	if me.Member == "" {
		t.Fatal("member attribution empty")
	}
	var unsat *UnsatError
	if !errors.As(err, &unsat) {
		t.Fatalf("wrapping broke errors.As(*UnsatError): %v", err)
	}
	if len(unsat.Roots) == 0 {
		t.Fatal("unsat error lost its roots")
	}
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("wrapping broke errors.Is(ErrUnsatisfiable): %v", err)
	}
}
