package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"github.com/paper-repo-growth/go-arxiv/internal/version"
	"github.com/paper-repo-growth/go-arxiv/resolve"
	"github.com/paper-repo-growth/go-arxiv/serve"
)

// checker verifies every answer as it arrives and keeps what the reference
// pass needs afterwards. An answer must be optimal, not degraded, pick each
// root inside its range, carry an epoch the script allows, and match every
// other answer for the same shape at the same universe epoch.
//
// The epoch an answer reports is the one it was solved at, so a cached
// answer may be older than the universe. It may not be older than the last
// publish to a package the shape's previous answer picked: that publish
// reached the shape, so its cache entry had to go. Without publishes the
// only allowed epoch is 0.
type checker struct {
	mu       sync.Mutex
	epoch    uint64              // current universe epoch, as the script advanced it
	deltas   []*delta            // applied, in epoch order
	minEpoch map[string]uint64   // per shape: the oldest epoch an answer may report
	picks    map[string][]string // per shape: packages its latest answer picked
	answers  map[answerKey]*answer
	notes    []string // what went wrong, capped at maxNotes
}

type answerKey struct {
	shape string
	epoch uint64 // the universe epoch when the answer was served
}

type answer struct {
	sh    *shape
	picks map[string]string
	cost  int64
}

func newChecker() *checker {
	return &checker{minEpoch: map[string]uint64{}, picks: map[string][]string{}, answers: map[answerKey]*answer{}}
}

const maxNotes = 20

func (c *checker) note(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteLocked(format, args...)
}

func (c *checker) noteLocked(format string, args ...any) {
	if len(c.notes) < maxNotes {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// resolved checks one 200 answer; false means it is wrong.
func (c *checker) resolved(sh *shape, rr *serve.ResolveResponse) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case !rr.Optimal:
		c.noteLocked("%s: not optimal", sh.key)
		return false
	case rr.Degraded:
		c.noteLocked("%s: degraded answer", sh.key)
		return false
	case rr.Epoch < c.minEpoch[sh.key] || rr.Epoch > c.epoch:
		c.noteLocked("%s: epoch %d outside [%d, %d]", sh.key, rr.Epoch, c.minEpoch[sh.key], c.epoch)
		return false
	}
	for _, root := range sh.req.Roots {
		got, ok := rr.Picks[root.Pkg]
		if !ok {
			c.noteLocked("%s: root %s not picked", sh.key, root.Pkg)
			return false
		}
		v, err := version.Parse(got)
		if err != nil || !root.Range.Satisfies(v) {
			c.noteLocked("%s: root pick %s@%s outside %s", sh.key, root.Pkg, got, root.Range)
			return false
		}
	}
	key := answerKey{sh.key, c.epoch}
	if prev, ok := c.answers[key]; ok {
		if prev.cost != rr.Cost || !maps.Equal(prev.picks, rr.Picks) {
			c.noteLocked("%s at epoch %d: answer changed (cost %d -> %d)", sh.key, c.epoch, prev.cost, rr.Cost)
			return false
		}
		return true
	}
	c.answers[key] = &answer{sh: sh, picks: rr.Picks, cost: rr.Cost}
	c.picks[sh.key] = slices.Collect(maps.Keys(rr.Picks))
	return true
}

// applied checks one publish's answer and advances the script's epoch.
func (c *checker) applied(d *delta, epoch uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch+1 {
		c.noteLocked("apply %s@%s: epoch %d, want %d", d.pkg, d.version, epoch, c.epoch+1)
		return false
	}
	c.epoch = epoch
	c.deltas = append(c.deltas, d)
	for sh, picked := range c.picks {
		if slices.Contains(picked, d.pkg) {
			c.minEpoch[sh] = epoch
		}
	}
	return true
}

// reference re-resolves a seeded sample of at least n served (shape,
// epoch) answers — all of them when fewer were served — on a fresh
// single-shard resolver over the family's universe replayed to that
// epoch. Registry answers must match pick for pick; answers from families
// with tied optima must match in cost. It returns the pairs checked and
// the number that disagreed.
func (c *checker) reference(ctx context.Context, f family, exact bool, n int, rng *rand.Rand) (checked, wrong int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	byEpoch := map[uint64][]*answer{}
	for k, a := range c.answers {
		byEpoch[k.epoch] = append(byEpoch[k.epoch], a)
	}
	epochs := slices.Sorted(maps.Keys(byEpoch))
	rng.Shuffle(len(epochs), func(i, j int) { epochs[i], epochs[j] = epochs[j], epochs[i] })
	// Take a few shapes from each of several epochs: every epoch costs a
	// fresh universe and resolver.
	per := max(4, (n+len(epochs)-1)/max(1, len(epochs)))
	for _, e := range epochs {
		if checked >= n {
			break
		}
		as := byEpoch[e]
		slices.SortFunc(as, func(a, b *answer) int { return strings.Compare(a.sh.key, b.sh.key) })
		rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
		as = as[:min(len(as), per, n-checked)]

		u := f.universe()
		for _, d := range c.deltas[:e] {
			if _, err := u.Apply(d.repoDelta()); err != nil {
				return checked, wrong, fmt.Errorf("replaying %s@%s: %w", d.pkg, d.version, err)
			}
		}
		ref := resolve.NewPoolResolver(u, 1, resolve.SessionOptions{})
		for _, a := range as {
			res, err := ref.Resolve(ctx, a.sh.req)
			if err != nil {
				return checked, wrong, fmt.Errorf("reference resolve of %s: %w", a.sh.key, err)
			}
			checked++
			if !sameAnswer(a, res, exact) {
				wrong++
				c.noteLocked("%s at epoch %d: daemon cost %d, reference cost %d", a.sh.key, e, a.cost, res.Stats.Cost)
			}
		}
	}
	return checked, wrong, nil
}

func sameAnswer(a *answer, ref *resolve.Result, exact bool) bool {
	if a.cost != ref.Stats.Cost {
		return false
	}
	if !exact {
		return true
	}
	if len(a.picks) != len(ref.Picks) {
		return false
	}
	for pkg, v := range ref.Picks {
		if a.picks[pkg] != v.String() {
			return false
		}
	}
	return true
}
