package concretize

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// This file is the churn differential harness for live universes: ~100
// seeded universes each grow through a random stream of append-only
// deltas, with a long-lived Session extending its encoding in place
// (Session.Extend) while fresh cold Concretize calls over the
// post-delta universe serve as the oracle. Requests mix new shapes with
// replays of pre-delta shapes, so delta-scoped cache invalidation is
// differentially checked too: a stale answer surviving a delta it should
// not have shows up as a warm/cold disagreement.
//
// Oracle strength follows the family, as in differential_test.go: the
// monotone SynthDense family (upper-bound ranges only — a property the
// churner preserves, see below) has unique optima and is compared
// pick-for-pick; conflict-bearing, virtual, and conditional families are
// compared on satisfiability and optimal cost, with every answer
// independently verified.

// churner generates append-only deltas over a growing universe. Version
// numbers come from one global counter starting at 100, so every add is
// globally fresh (never colliding with an existing version) and newer
// than every seed version — deltas always move the optimum.
type churner struct {
	rng *rand.Rand
	u   *repo.Universe
	// depTargets are the packages new packages may depend on: the seed
	// vocabulary only, never grown packages, so the dependency graph stays
	// acyclic under growth.
	depTargets []string
	// rootable is everything requests may root: seed packages, virtual
	// names, and grown packages as they appear.
	rootable []string
	next     int // global version counter
	grown    int // grown-package name counter
}

func newChurner(rng *rand.Rand, u *repo.Universe, depTargets, rootable []string) *churner {
	return &churner{rng: rng, u: u, depTargets: depTargets, rootable: rootable, next: 100}
}

func (c *churner) freshVer() string {
	v := fmt.Sprintf("%d.0", c.next)
	c.next++
	return v
}

// copiedDecls rebuilds a package's newest version's declarations for a new
// version of the same package: the same dependency targets and conditions
// with the range loosened to ":" (keeping every range an upper bound, which
// preserves the monotone family's unique-optimum property), conflicts and
// provides copied verbatim (the new version provides a fresh newer virtual
// version where it provides at all).
func (c *churner) copiedDecls(name string) []repo.Decl {
	pkg, ok := c.u.Package(name)
	if !ok {
		return nil
	}
	def := pkg.Versions()[0]
	var decls []repo.Decl
	for _, d := range def.Deps {
		if d.When.IsZero() {
			decls = append(decls, repo.Dep(d.Pkg, ":"))
		} else {
			decls = append(decls, repo.DepWhen(d.Pkg, ":", d.When.Pkg, d.When.Range.String()))
		}
	}
	for _, cf := range def.Conflicts {
		if cf.When.IsZero() {
			decls = append(decls, repo.Confl(cf.Pkg, cf.Range.String()))
		} else {
			decls = append(decls, repo.ConflWhen(cf.Pkg, cf.Range.String(), cf.When.Pkg, cf.When.Range.String()))
		}
	}
	for _, p := range def.Provides {
		decls = append(decls, repo.Prov(p.Virtual, c.freshVer()))
	}
	return decls
}

// delta builds one random append-only delta: 1-3 adds, each either a new
// (newer) version of an existing package, a brand-new leaf package
// depending on seed packages, or — when the universe has virtuals — a
// brand-new provider for one of them.
func (c *churner) delta() *repo.Delta {
	d := repo.NewDelta()
	n := 1 + c.rng.Intn(3)
	virts := c.u.VirtualNames()
	for i := 0; i < n; i++ {
		kind := c.rng.Intn(4)
		switch {
		case kind == 3 && len(virts) > 0:
			// New provider package for a random virtual.
			name := fmt.Sprintf("grow%d", c.grown)
			c.grown++
			virt := virts[c.rng.Intn(len(virts))]
			d.Add(name, c.freshVer(), repo.Prov(virt, c.freshVer()))
			c.rootable = append(c.rootable, name)
		case kind >= 2:
			// New leaf package over 0-2 seed dependencies.
			name := fmt.Sprintf("grow%d", c.grown)
			c.grown++
			var decls []repo.Decl
			seen := map[string]bool{}
			for k := c.rng.Intn(3); k > 0; k-- {
				t := c.depTargets[c.rng.Intn(len(c.depTargets))]
				if !seen[t] {
					seen[t] = true
					decls = append(decls, repo.Dep(t, ":"))
				}
			}
			d.Add(name, c.freshVer(), decls...)
			c.rootable = append(c.rootable, name)
		default:
			// New newest version of an existing concrete package.
			name := c.rootable[c.rng.Intn(len(c.rootable))]
			if c.u.IsVirtual(name) {
				name = c.depTargets[c.rng.Intn(len(c.depTargets))]
			}
			if _, ok := c.u.Package(name); !ok {
				// Named in an earlier add of this same delta but not yet
				// applied; fall back to a seed package.
				name = c.depTargets[c.rng.Intn(len(c.depTargets))]
			}
			d.Add(name, c.freshVer(), c.copiedDecls(name)...)
		}
	}
	return d
}

// request builds a pseudo-random request over the current vocabulary:
// 1-2 roots, constrained against either the seed version band or the
// churner's fresh band, occasionally out of range.
func (c *churner) request() []Root {
	n := 1 + c.rng.Intn(2)
	roots := make([]Root, 0, n)
	for i := 0; i < n; i++ {
		pkg := c.rootable[c.rng.Intn(len(c.rootable))]
		var k int
		if c.next > 100 && c.rng.Intn(2) == 0 {
			k = 100 + c.rng.Intn(c.next-100+1) // fresh band (+1: out of range)
		} else {
			k = 1 + c.rng.Intn(7) // seed band
		}
		var spec string
		switch c.rng.Intn(4) {
		case 0:
			spec = pkg
		case 1:
			spec = fmt.Sprintf("%s@:%d", pkg, k)
		case 2:
			spec = fmt.Sprintf("%s@%d:", pkg, k)
		default:
			spec = fmt.Sprintf("%s@%d", pkg, k)
		}
		roots = append(roots, MustParseRoot(spec))
	}
	return roots
}

// runChurnStream drives one universe through `steps` delta rounds. Before
// the first delta and after each Extend it fires reqsPerStep requests
// (mixing fresh shapes with replays of earlier ones) through the warm
// extended session and through cold Concretize calls on the grown
// universe, requiring agreement.
func runChurnStream(t *testing.T, c *churner, steps, reqsPerStep int, exactPicks bool, opts SessionOptions) {
	t.Helper()
	sess := NewSession(c.u, opts)
	var replay [][]Root

	checkOne := func(round int, roots []Root) {
		t.Helper()
		cold, coldErr := Concretize(c.u, roots, Options{})
		warm, warmErr := sess.Resolve(context.Background(), roots, Options{})
		if (coldErr == nil) != (warmErr == nil) {
			t.Fatalf("round %d roots %s: cold err %v, warm err %v", round, rootsString(roots), coldErr, warmErr)
		}
		if coldErr != nil {
			if !errors.Is(coldErr, ErrUnsatisfiable) || !errors.Is(warmErr, ErrUnsatisfiable) {
				t.Fatalf("round %d roots %s: non-unsat errors: cold %v, warm %v", round, rootsString(roots), coldErr, warmErr)
			}
			return
		}
		if cold.Stats.Cost != warm.Stats.Cost {
			t.Fatalf("round %d roots %s: cost %d (cold) vs %d (warm)", round, rootsString(roots), cold.Stats.Cost, warm.Stats.Cost)
		}
		if err := verify(c.u, roots, warm.Picks); err != nil {
			t.Fatalf("round %d roots %s: warm answer invalid: %v", round, rootsString(roots), err)
		}
		if err := verify(c.u, roots, cold.Picks); err != nil {
			t.Fatalf("round %d roots %s: cold answer invalid: %v", round, rootsString(roots), err)
		}
		if exactPicks && !reflect.DeepEqual(pickStrings(cold), pickStrings(warm)) {
			t.Fatalf("round %d roots %s: picks differ:\n cold: %v\n warm: %v",
				round, rootsString(roots), pickStrings(cold), pickStrings(warm))
		}
	}
	runRound := func(round int) {
		t.Helper()
		for r := 0; r < reqsPerStep; r++ {
			var roots []Root
			if len(replay) > 0 && c.rng.Intn(3) == 0 {
				roots = replay[c.rng.Intn(len(replay))]
			} else {
				roots = c.request()
				replay = append(replay, roots)
			}
			checkOne(round, roots)
		}
	}

	runRound(0)
	for s := 1; s <= steps; s++ {
		d := c.delta()
		if _, err := sess.Extend(d); err != nil {
			t.Fatalf("round %d: Extend: %v", s, err)
		}
		if got, want := sess.epoch, c.u.Epoch(); got != want {
			t.Fatalf("round %d: session epoch %d, universe epoch %d", s, got, want)
		}
		runRound(s)
	}
}

func denseNames(pkgs int) []string {
	names := make([]string, pkgs)
	for i := range names {
		names[i] = fmt.Sprintf("dense%d", i)
	}
	return names
}

// TestChurnMonotone: the strong oracle under churn. Seeded monotone
// universes grow through delta streams that preserve the upper-bound-only
// property, so warm-extended answers must equal cold pick-for-pick.
func TestChurnMonotone(t *testing.T) {
	nUniverses := 40
	if testing.Short() {
		nUniverses = 8
	}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < nUniverses; i++ {
		pkgs := 4 + rng.Intn(10)
		versions := 1 + rng.Intn(4)
		depsPer := rng.Intn(4)
		seed := rng.Int63()
		u, _ := repo.SynthDense(pkgs, versions, depsPer, seed)
		t.Run(fmt.Sprintf("u%03d_p%d_v%d_d%d", i, pkgs, versions, depsPer), func(t *testing.T) {
			c := newChurner(rng, u, denseNames(pkgs), denseNames(pkgs))
			runChurnStream(t, c, 3, 4, true, SessionOptions{})
		})
	}
}

// TestChurnConflicts: conflict-bearing universes under churn — costs,
// satisfiability, and verification, with copied conflicts riding along on
// delta-added versions.
func TestChurnConflicts(t *testing.T) {
	nUniverses := 30
	if testing.Short() {
		nUniverses = 6
	}
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < nUniverses; i++ {
		pkgs := 4 + rng.Intn(8)
		versions := 2 + rng.Intn(3)
		depsPer := rng.Intn(3)
		conflictsPer := 1 + rng.Intn(3)
		seed := rng.Int63()
		u, _ := repo.SynthDenseConflicts(pkgs, versions, depsPer, conflictsPer, seed)
		t.Run(fmt.Sprintf("u%03d_p%d_v%d_d%d_c%d", i, pkgs, versions, depsPer, conflictsPer), func(t *testing.T) {
			c := newChurner(rng, u, denseNames(pkgs), denseNames(pkgs))
			runChurnStream(t, c, 3, 4, false, SessionOptions{})
		})
	}
}

// TestChurnVirtual: virtual-laden universes under churn, where deltas may
// add whole new providers — the case that changes which package satisfies
// a requirement without touching the requirement itself.
func TestChurnVirtual(t *testing.T) {
	nUniverses := 15
	if testing.Short() {
		nUniverses = 3
	}
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < nUniverses; i++ {
		virtuals := 1 + rng.Intn(3)
		providers := 1 + rng.Intn(2)
		versions := 2 + rng.Intn(2)
		u, root := repo.SynthVirtualDiamond(virtuals, providers, versions)
		t.Run(fmt.Sprintf("u%03d_v%d_p%d_k%d", i, virtuals, providers, versions), func(t *testing.T) {
			targets := []string{root, "vbase"}
			rootable := append([]string{root}, u.VirtualNames()...)
			c := newChurner(rng, u, targets, rootable)
			runChurnStream(t, c, 3, 4, false, SessionOptions{})
		})
	}
}

// TestChurnConditional: trigger-flipped universes under churn; deltas
// growing the trigger package ("ctrl") widen the support literals behind
// every conditional edge.
func TestChurnConditional(t *testing.T) {
	nUniverses := 15
	if testing.Short() {
		nUniverses = 3
	}
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < nUniverses; i++ {
		length := 2 + rng.Intn(4)
		versions := 2 + rng.Intn(3)
		u, root := repo.SynthConditionalChain(length, versions)
		t.Run(fmt.Sprintf("u%03d_l%d_k%d", i, length, versions), func(t *testing.T) {
			targets := []string{root, "ctrl"}
			for j := 1; j < length; j++ {
				targets = append(targets, fmt.Sprintf("cc%d", j))
			}
			rootable := append([]string{}, targets...)
			rootable = append(rootable, "ccx")
			c := newChurner(rng, u, targets, rootable)
			runChurnStream(t, c, 3, 4, false, SessionOptions{})
		})
	}
}
