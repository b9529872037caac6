package concretize

import (
	"errors"
	"sync"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// AnswersPerSession is the answer-store capacity a backend reserves per
// session it fronts: resolve's pool sizes its one store at
// AnswersPerSession times its shard count.
const AnswersPerSession = 1024

// Answers is the answer memo of one backend: the definitive answers —
// optimal resolutions and proven unsatisfiability — its sessions produced,
// keyed by request shape (ShapeKey) in a bounded LRU. Sessions memoize no
// answers themselves; a backend checks its store before it picks a
// session, so a hit touches no solver, and files every definitive answer
// with the member that solved it.
//
// Entries carry the shape's reach set (the names whose growth could change
// the answer, as the session's closure memo records them). Invalidate
// marks every entry a delta touches stale, under the same rule the
// closure memo sweep uses; stale entries are never served as hits, but
// their optimal answers stay readable through LastGood — the degraded-mode
// answer — until a re-solve replaces them or they age out of the LRU.
//
// An Answers is safe for concurrent use. Its lock is a leaf: no method
// calls out while holding it.
type Answers struct {
	mu  sync.Mutex
	lru *lru[*answer]
}

// answer is one store entry. Entries are replaced, never mutated, except
// for the stale mark, which is guarded by Answers.mu.
type answer struct {
	by    string                     // the member that solved it
	picks map[string]version.Version // nil for an unsat entry
	stats Stats
	unsat bool
	reach map[string]bool // shared with the solving session's closure memo
	stale bool
}

// NewAnswers returns an empty store holding at most size entries.
func NewAnswers(size int) *Answers {
	return &Answers{lru: newLRU[*answer](size)}
}

// Get returns the fresh entry for key: a caller-owned copy of the
// resolution, stamped SolutionCacheHit, or the *UnsatError for roots; by
// names the member that solved it. ok is false on a miss or a stale entry.
func (a *Answers) Get(key string, roots []Root) (res *Resolution, err error, by string, ok bool) {
	a.mu.Lock()
	ent, ok := a.lru.peek(key)
	if ok && ent.stale {
		ok = false
	}
	if ok {
		a.lru.touch(key)
	}
	a.mu.Unlock()
	if !ok {
		return nil, nil, "", false
	}
	if ent.unsat {
		return nil, unsatError(roots), ent.by, true
	}
	return ent.resolution(), nil, ent.by, true
}

// LastGood returns the shape's optimal answer, fresh or stale, the member
// that solved it, and whether the entry is fresh (still the answer at the
// current epoch); Stats.Epoch is the epoch it was solved at. An unsat
// entry is never returned: a stale "no" says nothing about today. A fresh
// read is a hit, so it promotes the entry as Get does.
func (a *Answers) LastGood(key string) (res *Resolution, by string, fresh, ok bool) {
	a.mu.Lock()
	ent, ok := a.lru.peek(key)
	fresh = ok && !ent.stale
	if fresh && !ent.unsat {
		a.lru.touch(key)
	}
	a.mu.Unlock()
	if !ok || ent.unsat {
		return nil, "", false, false
	}
	return ent.resolution(), ent.by, fresh, true
}

// resolution copies the entry out for a caller. The picks map is never
// mutated after Put, so the copy needs no lock.
func (e *answer) resolution() *Resolution {
	picks := make(map[string]version.Version, len(e.picks))
	for p, v := range e.picks {
		picks[p] = v
	}
	stats := e.stats
	stats.SolutionCacheHit = true
	return &Resolution{Picks: picks, Stats: stats}
}

// Put files a session's answer under key, replacing any entry, when it is
// definitive: an optimal resolution or a proof of unsatisfiability, as
// Session.Resolve returns them (they carry the reach set Invalidate needs).
// Anything else — a budget-limited incumbent, a cancellation, a request
// error — leaves the store as it is.
func (a *Answers) Put(key, by string, res *Resolution, err error) {
	ent := &answer{by: by}
	var ue *UnsatError
	switch {
	case err == nil && res.Stats.Optimal && res.reach != nil:
		ent.picks = make(map[string]version.Version, len(res.Picks))
		for p, v := range res.Picks {
			ent.picks[p] = v
		}
		ent.stats, ent.reach = res.Stats, res.reach
	case errors.As(err, &ue) && ue.reach != nil:
		ent.unsat, ent.reach = true, ue.reach
	default:
		return
	}
	a.mu.Lock()
	a.lru.put(key, ent)
	a.mu.Unlock()
}

// Invalidate marks stale every fresh entry whose reach set the delta
// touches (see touches). Untouched entries stay fresh across the epoch.
func (a *Answers) Invalidate(d *repo.Delta) {
	dirty := dirtyNames(d)
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, el := range a.lru.m {
		if ent := el.Value.(*lruItem[*answer]).val; !ent.stale && touches(ent.reach, dirty) {
			ent.stale = true
		}
	}
}

// Len returns the number of fresh entries.
func (a *Answers) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, el := range a.lru.m {
		if !el.Value.(*lruItem[*answer]).val.stale {
			n++
		}
	}
	return n
}

// dirtyNames returns every name a delta touches: its packages and the
// virtuals their new versions provide.
func dirtyNames(d *repo.Delta) map[string]bool {
	dirty := make(map[string]bool)
	for _, ad := range d.Adds() {
		dirty[ad.Pkg] = true
		for _, pr := range ad.Def.Provides {
			dirty[pr.Virtual] = true
		}
	}
	return dirty
}

// touches is the one delta-scoped invalidation rule, shared by the closure
// memo sweep (Session.Extend) and the answer store (Answers.Invalidate):
// an entry falls when its recorded reach set intersects the delta's dirty
// names.
func touches(reach, dirty map[string]bool) bool {
	if len(reach) < len(dirty) {
		for n := range reach {
			if dirty[n] {
				return true
			}
		}
		return false
	}
	for n := range dirty {
		if reach[n] {
			return true
		}
	}
	return false
}
