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

// This file is the differential test harness for the warm path: it fires
// identical request streams through a long-lived shared Session and
// through fresh cold Concretize calls, across ~200 seeded random
// universes, and requires the two paths to agree.
//
// Two universe families give two oracle strengths:
//
//   - Monotone (SynthDense): every dependency range is an upper bound, so
//     each request has a unique optimal resolution (see the SynthDense
//     doc). Warm and cold answers must match pick-for-pick and
//     cost-for-cost, no matter how much solver state the session has
//     accumulated.
//
//   - Adversarial (SynthDenseConflicts): conflicts admit co-optimal
//     resolutions and unsatisfiable requests. Both paths must agree on
//     satisfiability and on the optimal cost, and every answer must
//     independently pass verify — but tie-broken picks may differ.

// diffRequest builds a deterministic pseudo-random request over a dense
// universe: 1-3 roots, each any of {unconstrained, ":k", "k:", exact k},
// occasionally out of range to exercise the unsatisfiable-root path.
func diffRequest(rng *rand.Rand, pkgs, versions int) []Root {
	n := 1 + rng.Intn(3)
	roots := make([]Root, 0, n)
	for i := 0; i < n; i++ {
		pkg := fmt.Sprintf("dense%d", rng.Intn(pkgs))
		k := 1 + rng.Intn(versions+1) // versions+1 is out of range
		var spec string
		switch rng.Intn(4) {
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

// runDifferentialStream drives one universe: a stream of requests through
// one shared Session vs fresh Concretize calls, with some requests
// repeated later in the stream so cached answers are differentially
// checked too. exactPicks selects the strong (unique-optimum) oracle.
func runDifferentialStream(t *testing.T, rng *rand.Rand, u *repo.Universe, pkgs, versions, nReqs int, exactPicks bool) {
	t.Helper()
	gen := func(rng *rand.Rand) []Root { return diffRequest(rng, pkgs, versions) }
	runDifferentialGenStream(t, rng, u, gen, nReqs, exactPicks)
}

// runDifferentialGenStream is the generator-agnostic core of the
// differential harness: requests come from gen, so universe families with
// their own root vocabulary (virtual roots, trigger packages) plug in their
// own request shapes. It returns the warm session for further checks.
func runDifferentialGenStream(t *testing.T, rng *rand.Rand, u *repo.Universe, gen func(rng *rand.Rand) []Root, nReqs int, exactPicks bool) *Session {
	t.Helper()
	sess := NewSession(u, SessionOptions{})
	var replay [][]Root
	for i := 0; i < nReqs; i++ {
		var roots []Root
		if len(replay) > 0 && rng.Intn(4) == 0 {
			roots = replay[rng.Intn(len(replay))] // repeat: exercises the cache
		} else {
			roots = gen(rng)
			replay = append(replay, roots)
		}

		cold, coldErr := Concretize(u, roots, Options{})
		warm, warmErr := sess.Resolve(context.Background(), roots, Options{})

		if (coldErr == nil) != (warmErr == nil) {
			t.Fatalf("roots %s: cold err %v, warm err %v", rootsString(roots), coldErr, warmErr)
		}
		if coldErr != nil {
			if !errors.Is(coldErr, ErrUnsatisfiable) || !errors.Is(warmErr, ErrUnsatisfiable) {
				t.Fatalf("roots %s: non-unsat errors: cold %v, warm %v", rootsString(roots), coldErr, warmErr)
			}
			continue
		}
		if !cold.Stats.Optimal || !warm.Stats.Optimal {
			t.Fatalf("roots %s: non-optimal without a budget", rootsString(roots))
		}
		if cold.Stats.Cost != warm.Stats.Cost {
			t.Fatalf("roots %s: cost %d (cold) vs %d (warm)", rootsString(roots), cold.Stats.Cost, warm.Stats.Cost)
		}
		if err := verify(u, roots, cold.Picks); err != nil {
			t.Fatalf("roots %s: cold answer invalid: %v", rootsString(roots), err)
		}
		if err := verify(u, roots, warm.Picks); err != nil {
			t.Fatalf("roots %s: warm answer invalid: %v", rootsString(roots), err)
		}
		if exactPicks && !reflect.DeepEqual(pickStrings(cold), pickStrings(warm)) {
			t.Fatalf("roots %s: picks differ:\n cold: %v\n warm: %v",
				rootsString(roots), pickStrings(cold), pickStrings(warm))
		}
	}
	return sess
}

// TestDifferentialMonotone: the strong oracle. 140 seeded monotone
// universes, ~10 requests each; warm must equal cold pick-for-pick and
// cost-for-cost.
func TestDifferentialMonotone(t *testing.T) {
	nUniverses := 140
	if testing.Short() {
		nUniverses = 30
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < nUniverses; i++ {
		pkgs := 4 + rng.Intn(14)
		versions := 1 + rng.Intn(5)
		depsPer := rng.Intn(4)
		seed := rng.Int63()
		u, _ := repo.SynthDense(pkgs, versions, depsPer, seed)
		t.Run(fmt.Sprintf("u%03d_p%d_v%d_d%d", i, pkgs, versions, depsPer), func(t *testing.T) {
			runDifferentialStream(t, rng, u, pkgs, versions, 10, true)
		})
	}
}

// TestDifferentialConflicts: the adversarial oracle. 60 seeded
// conflict-bearing universes; warm and cold must agree on satisfiability
// and optimal cost, and all answers must verify.
func TestDifferentialConflicts(t *testing.T) {
	nUniverses := 60
	if testing.Short() {
		nUniverses = 12
	}
	rng := rand.New(rand.NewSource(1337))
	for i := 0; i < nUniverses; i++ {
		pkgs := 4 + rng.Intn(12)
		versions := 2 + rng.Intn(4)
		depsPer := rng.Intn(4)
		conflictsPer := 1 + rng.Intn(3)
		seed := rng.Int63()
		u, _ := repo.SynthDenseConflicts(pkgs, versions, depsPer, conflictsPer, seed)
		t.Run(fmt.Sprintf("u%03d_p%d_v%d_d%d_c%d", i, pkgs, versions, depsPer, conflictsPer), func(t *testing.T) {
			runDifferentialStream(t, rng, u, pkgs, versions, 10, false)
		})
	}
}

// TestDifferentialUnsatWeb: wholly unsatisfiable universes through the
// same harness — both paths must consistently refute, including cached
// refutations.
func TestDifferentialUnsatWeb(t *testing.T) {
	for width := 2; width <= 6; width++ {
		u, root := repo.SynthUnsatWeb(width, 3)
		sess := NewSession(u, SessionOptions{})
		roots := []Root{{Pkg: root}}
		for rep := 0; rep < 3; rep++ {
			_, coldErr := Concretize(u, roots, Options{})
			_, warmErr := sess.Resolve(context.Background(), roots, Options{})
			if !errors.Is(coldErr, ErrUnsatisfiable) || !errors.Is(warmErr, ErrUnsatisfiable) {
				t.Fatalf("width %d rep %d: cold %v, warm %v", width, rep, coldErr, warmErr)
			}
		}
	}
}
