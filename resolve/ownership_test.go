package resolve

// Differential test of the Result.Picks ownership contract: every path
// that can hand back an answer — a fresh session solve, an answer-store
// hit, and a multi-shard pool — must return a Picks map the caller owns
// outright. Mutating it must never bleed into a later answer
// for the same request. (The serving tier's coalesced-follower leg lives
// in serve's TestCoalescedPicksOwnership.)

import (
	"context"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

func TestResultPicksOwnership(t *testing.T) {
	newReq := func(root string) Request {
		return Request{Roots: []Root{{Pkg: root}}, Objective: NewestVersion()}
	}
	backends := []struct {
		name string
		mk   func(t *testing.T) (Resolver, Request)
	}{
		{"session-solve", func(t *testing.T) (Resolver, Request) {
			u, root := repo.SynthDiamond(3, 4)
			return NewPoolResolver(u, 1, SessionOptions{}), newReq(root)
		}},
		{"session-cache-hit", func(t *testing.T) (Resolver, Request) {
			u, root := repo.SynthDiamond(3, 4)
			r := NewPoolResolver(u, 1, SessionOptions{})
			// Prime the answer store so every request below is a hit.
			if _, err := r.Resolve(context.Background(), newReq(root)); err != nil {
				t.Fatal(err)
			}
			return r, newReq(root)
		}},
		{"pool", func(t *testing.T) (Resolver, Request) {
			u, root := repo.SynthDiamond(3, 4)
			return NewPoolResolver(u, 3, SessionOptions{}), newReq(root)
		}},
	}
	for _, b := range backends {
		b := b
		t.Run(b.name, func(t *testing.T) {
			r, req := b.mk(t)
			first, err := r.Resolve(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[string]string, len(first.Picks))
			for pkg, v := range first.Picks {
				want[pkg] = v.String()
			}

			// Poison the returned map every way a careless caller could.
			for pkg := range first.Picks {
				first.Picks[pkg] = version.MustParse("66.6")
			}
			first.Picks["injected"] = version.MustParse("1.0")

			second, err := r.Resolve(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if len(second.Picks) != len(want) {
				t.Fatalf("second answer has %d picks, want %d: %v", len(second.Picks), len(want), second.Picks)
			}
			for pkg, vs := range want {
				if second.Picks[pkg].String() != vs {
					t.Fatalf("pick %s = %s after caller mutation, want %s", pkg, second.Picks[pkg], vs)
				}
			}
			if _, ok := second.Picks["injected"]; ok {
				t.Fatal("caller-injected key leaked into a later answer")
			}
			// And the two answers must not share storage at all.
			second.Picks["probe"] = version.MustParse("1.0")
			if _, ok := first.Picks["probe"]; ok {
				t.Fatal("consecutive answers share one Picks map")
			}
		})
	}
}
