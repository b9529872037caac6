package concretize

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// This file is the differential oracle arm for the richer declaration
// semantics: virtual packages with competing providers and conditional
// (triggered) dependencies and conflicts. The same warm-vs-cold harness as
// differential_test.go runs over the SynthVirtualDiamond and
// SynthConditionalChain families, with the oracle strength chosen per
// family:
//
//   - Unique-optimum streams (single-provider diamonds; conditional chains
//     whose requests constrain only the root) assert pick-for-pick
//     equality.
//   - Tie-prone streams (competing providers; requests touching the
//     trigger or the conditional-conflict pariah) assert satisfiability
//     and cost equality, with every answer independently re-verified
//     against the universe.
//
// Together with the pool arm in resolve (TestPoolVirtualDifferential),
// this covers the ROADMAP's "oracle arm for richer
// universes" across well over 100 seeded universes.

// rangeSpec renders a random range form over versions 1..max+1 (the +1
// makes some requests unsatisfiable-by-range).
func rangeSpec(rng *rand.Rand, name string, max int) string {
	k := 1 + rng.Intn(max+1)
	switch rng.Intn(4) {
	case 0:
		return name
	case 1:
		return fmt.Sprintf("%s@:%d", name, k)
	case 2:
		return fmt.Sprintf("%s@%d:", name, k)
	default:
		return fmt.Sprintf("%s@%d", name, k)
	}
}

// virtualDiamondRequest draws 1-3 roots over a SynthVirtualDiamond
// universe: the app root, bare and explicitly-namespaced virtual roots,
// individual providers, and the shared base.
func virtualDiamondRequest(rng *rand.Rand, virtuals, providers, versions int) []Root {
	n := 1 + rng.Intn(3)
	roots := make([]Root, 0, n)
	for i := 0; i < n; i++ {
		var name string
		switch rng.Intn(4) {
		case 0:
			name = "app"
		case 1:
			name = fmt.Sprintf("virt%d", rng.Intn(virtuals))
			if rng.Intn(2) == 0 {
				name = VirtualPrefix + name // explicit namespace, same meaning
			}
		case 2:
			name = fmt.Sprintf("prov%d_%d", rng.Intn(virtuals), rng.Intn(providers))
		default:
			name = "vbase"
		}
		roots = append(roots, MustParseRoot(rangeSpec(rng, name, versions)))
	}
	return roots
}

// TestDifferentialVirtualDiamond: 60 seeded provider-selection universes.
// Single-provider diamonds have unique optima (strong oracle: exact
// picks); competing providers are tie-prone (cost + verify oracle).
func TestDifferentialVirtualDiamond(t *testing.T) {
	nUniverses := 60
	if testing.Short() {
		nUniverses = 12
	}
	rng := rand.New(rand.NewSource(271828))
	for i := 0; i < nUniverses; i++ {
		virtuals := 1 + rng.Intn(3)
		providers := 1 + rng.Intn(3)
		versions := 1 + rng.Intn(4)
		u, _ := repo.SynthVirtualDiamond(virtuals, providers, versions)
		if err := u.Validate(); err != nil {
			t.Fatalf("universe %d invalid: %v", i, err)
		}
		exact := providers == 1
		gen := func(rng *rand.Rand) []Root {
			return virtualDiamondRequest(rng, virtuals, providers, versions)
		}
		t.Run(fmt.Sprintf("u%03d_v%d_p%d_k%d", i, virtuals, providers, versions), func(t *testing.T) {
			runDifferentialGenStream(t, rng, u, gen, 10, exact)
		})
	}
}

// conditionalChainRequest draws roots over a SynthConditionalChain
// universe. rootOnly restricts the vocabulary to the chain root "cc0",
// whose streams have unique optima; otherwise links, the trigger "ctrl",
// and the conditional-conflict pariah "ccx" join in (tie-prone, and
// sat-flipping when ccx and cc0 meet).
func conditionalChainRequest(rng *rand.Rand, length, versions int, rootOnly bool) []Root {
	if rootOnly {
		n := 1 + rng.Intn(2)
		roots := make([]Root, 0, n)
		for i := 0; i < n; i++ {
			roots = append(roots, MustParseRoot(rangeSpec(rng, "cc0", versions)))
		}
		return roots
	}
	n := 1 + rng.Intn(3)
	roots := make([]Root, 0, n)
	for i := 0; i < n; i++ {
		var name string
		switch rng.Intn(4) {
		case 0:
			name = "cc0"
		case 1:
			name = fmt.Sprintf("cc%d", rng.Intn(length))
		case 2:
			name = "ctrl"
		default:
			name = "ccx"
		}
		roots = append(roots, MustParseRoot(rangeSpec(rng, name, versions)))
	}
	return roots
}

// TestDifferentialConditionalChain: 50 seeded triggered-dependency
// universes, each driven by two streams — a root-only stream under the
// strong exact-picks oracle and a free-vocabulary stream (trigger and
// pariah roots flip costs and satisfiability) under the cost oracle.
func TestDifferentialConditionalChain(t *testing.T) {
	nUniverses := 50
	if testing.Short() {
		nUniverses = 10
	}
	rng := rand.New(rand.NewSource(314159))
	for i := 0; i < nUniverses; i++ {
		length := 2 + rng.Intn(5)
		versions := 1 + rng.Intn(4)
		u, _ := repo.SynthConditionalChain(length, versions)
		if err := u.Validate(); err != nil {
			t.Fatalf("universe %d invalid: %v", i, err)
		}
		t.Run(fmt.Sprintf("u%03d_l%d_k%d_exact", i, length, versions), func(t *testing.T) {
			gen := func(rng *rand.Rand) []Root {
				return conditionalChainRequest(rng, length, versions, true)
			}
			runDifferentialGenStream(t, rng, u, gen, 6, true)
		})
		t.Run(fmt.Sprintf("u%03d_l%d_k%d_cost", i, length, versions), func(t *testing.T) {
			gen := func(rng *rand.Rand) []Root {
				return conditionalChainRequest(rng, length, versions, false)
			}
			runDifferentialGenStream(t, rng, u, gen, 8, false)
		})
	}
}

// TestConditionalChainSatFlip pins the family's headline semantics: with
// one version per package, rooting the pariah together with the chain root
// is unsatisfiable (the conditional conflict is always armed), while either
// root alone resolves — the same universe flips satisfiability purely on
// trigger selection.
func TestConditionalChainSatFlip(t *testing.T) {
	u, root := repo.SynthConditionalChain(3, 1)
	both := []Root{{Pkg: root}, {Pkg: "ccx"}}
	if _, err := Concretize(u, both, Options{}); err == nil {
		t.Fatal("cc0+ccx with one version must be unsatisfiable")
	}
	for _, solo := range []string{root, "ccx"} {
		if _, err := Concretize(u, []Root{{Pkg: solo}}, Options{}); err != nil {
			t.Fatalf("root %s alone: %v", solo, err)
		}
	}

	// With two versions the conflict is dodged by lagging the trigger:
	// ccx lands newest, ctrl one behind, and the chain stays newest.
	u2, root2 := repo.SynthConditionalChain(3, 2)
	res, err := Concretize(u2, []Root{{Pkg: root2}, {Pkg: "ccx"}}, Options{})
	if err != nil {
		t.Fatalf("cc0+ccx with two versions: %v", err)
	}
	got := pickStrings(res)
	want := map[string]string{"cc0": "2.0", "ctrl": "1.0", "ccx": "2.0", "cc1": "2.0", "cc2": "2.0"}
	for pkg, v := range want {
		if got[pkg] != v {
			t.Errorf("picks[%s] = %s, want %s (full: %v)", pkg, got[pkg], v, got)
		}
	}
}
