package concretize

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// This file is the reference oracle: a brute-force concretizer for small
// universes (at most 7 packages of at most 3 versions, 2 virtuals) that
// shares no code with the encoder. It computes a request's dependency
// closure, enumerates every install/version assignment over it, judges
// each with its own evaluator read straight from the repo declarations
// (roots, dependencies, conflicts, When triggers, provides), and prices
// the valid ones through the objective's public Costs. Packages outside
// the closure stay uninstalled, which loses nothing: every root and
// dependency target lies inside it, so installing an outsider can only
// fire triggers and conflicts.
//
// The warm-stream harness feeds one Session a generated universe, a stream
// of requests under NewestVersion and MinimalChange, and deltas between
// them, and checks every answer against the oracle: the unknown-root and
// unsat verdicts, the optimal cost, the answer's validity and price under
// the oracle's own evaluator, and the exact picks whenever the optimum is
// unique.

// oracleSel is one installed package of an assignment.
type oracleSel struct {
	pkg string
	def *repo.VersionDef
}

// oracle holds one request's brute-force search space: its closure, the
// closure's version definitions, and the objective's prices.
type oracle struct {
	roots   []Root
	names   []string // the closure, sorted
	defs    map[string][]repo.VersionDef
	costs   map[string]PkgCost
	unknown bool // a root names nothing in a namespace it may use
}

// oracleRootPkgs returns the packages a root may bind to: a bare name that
// is a package binds to that package, anything else to the providers of
// the virtual it names. Only versions (or provided versions) inside the
// root's range count. known is false when the name is in no namespace the
// root may use.
func oracleRootPkgs(u *repo.Universe, r Root) (pkgs []string, known bool) {
	if p, ok := u.Package(r.Pkg); ok && !r.Virtual {
		for _, def := range p.Versions() {
			if r.Range.Satisfies(def.Version) {
				return []string{r.Pkg}, true
			}
		}
		return nil, true
	}
	provs, ok := u.Virtual(r.Pkg)
	if !ok {
		return nil, false
	}
	for _, pr := range provs {
		if r.Range.Satisfies(pr.Provided) {
			pkgs = append(pkgs, pr.Pkg)
		}
	}
	return pkgs, true
}

// oracleClosure returns the packages a request can install: the roots'
// packages, closed over every version's dependencies (conditional or not),
// where a virtual target stands for all of its providers. known is false
// when a root is unknown.
func oracleClosure(u *repo.Universe, roots []Root) (closure map[string]bool, known bool) {
	closure = make(map[string]bool)
	var stack []string
	visit := func(name string) {
		if !closure[name] {
			closure[name] = true
			stack = append(stack, name)
		}
	}
	for _, r := range roots {
		pkgs, known := oracleRootPkgs(u, r)
		if !known {
			return nil, false
		}
		for _, name := range pkgs {
			visit(name)
		}
	}
	for len(stack) > 0 {
		name := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p, _ := u.Package(name)
		for _, def := range p.Versions() {
			for _, d := range def.Deps {
				if _, ok := u.Package(d.Pkg); ok {
					visit(d.Pkg)
					continue
				}
				provs, _ := u.Virtual(d.Pkg)
				for _, pr := range provs {
					visit(pr.Pkg)
				}
			}
		}
	}
	return closure, true
}

func newOracle(u *repo.Universe, roots []Root, obj Objective) (*oracle, error) {
	o := &oracle{roots: roots, defs: make(map[string][]repo.VersionDef)}
	closure, known := oracleClosure(u, roots)
	if !known {
		o.unknown = true
		return o, nil
	}
	for name := range closure {
		o.names = append(o.names, name)
		p, _ := u.Package(name)
		o.defs[name] = p.Versions()
	}
	sort.Strings(o.names)
	var err error
	o.costs, err = obj.Costs(ObjectiveRequest{Universe: u, Order: o.names, Roots: roots})
	return o, err
}

// holds reports whether the assignment installs something that satisfies a
// requirement on name inside rng: the package itself at a version in rng,
// or a version providing the virtual name at a provided version in rng.
func oracleHolds(sel []oracleSel, name string, rng version.Range) bool {
	for _, s := range sel {
		if s.pkg == name && rng.Satisfies(s.def.Version) {
			return true
		}
		for _, pr := range s.def.Provides {
			if pr.Virtual == name && rng.Satisfies(pr.Version) {
				return true
			}
		}
	}
	return false
}

// valid judges an assignment: every root satisfied, every active
// dependency of an installed version satisfied, no active conflict.
func (o *oracle) valid(sel []oracleSel) bool {
	for _, r := range o.roots {
		if !oracleHolds(sel, r.Pkg, r.Range) {
			return false
		}
	}
	active := func(w repo.Condition) bool { return w.IsZero() || oracleHolds(sel, w.Pkg, w.Range) }
	for _, s := range sel {
		for _, d := range s.def.Deps {
			if active(d.When) && !oracleHolds(sel, d.Pkg, d.Range) {
				return false
			}
		}
		for _, c := range s.def.Conflicts {
			if active(c.When) && oracleHolds(sel, c.Pkg, c.Range) {
				return false
			}
		}
	}
	return true
}

// price sums the objective's costs over the closure.
func (o *oracle) price(sel []oracleSel) int64 {
	installed := make(map[string]*repo.VersionDef, len(sel))
	for _, s := range sel {
		installed[s.pkg] = s.def
	}
	var total int64
	for _, name := range o.names {
		pc := o.costs[name]
		def, ok := installed[name]
		if !ok {
			total += pc.Omit
			continue
		}
		total += pc.Install
		if pc.Version != nil {
			for i := range o.defs[name] {
				if &o.defs[name][i] == def {
					total += pc.Version[i]
				}
			}
		}
	}
	return total
}

// solve enumerates every assignment over the closure. It returns one
// optimal assignment, its cost, and how many assignments attain it (zero
// when none is valid).
func (o *oracle) solve() (best map[string]version.Version, cost int64, optima int) {
	var sel []oracleSel
	var walk func(i int)
	walk = func(i int) {
		if i == len(o.names) {
			if !o.valid(sel) {
				return
			}
			c := o.price(sel)
			switch {
			case optima == 0 || c < cost:
				cost, optima = c, 1
				best = make(map[string]version.Version, len(sel))
				for _, s := range sel {
					best[s.pkg] = s.def.Version
				}
			case c == cost:
				optima++
			}
			return
		}
		walk(i + 1) // not installed
		defs := o.defs[o.names[i]]
		for j := range defs {
			sel = append(sel, oracleSel{o.names[i], &defs[j]})
			walk(i + 1)
			sel = sel[:len(sel)-1]
		}
	}
	walk(0)
	return best, cost, optima
}

// judge converts an encoder answer into an assignment over the closure and
// reports its validity and price under the oracle's evaluator.
func (o *oracle) judge(picks map[string]version.Version) (valid bool, price int64) {
	var sel []oracleSel
	for name, v := range picks {
		var def *repo.VersionDef
		for i := range o.defs[name] {
			if o.defs[name][i].Version.Equal(v) {
				def = &o.defs[name][i]
			}
		}
		if def == nil {
			return false, 0 // outside the closure, or not a version of it
		}
		sel = append(sel, oracleSel{name, def})
	}
	return o.valid(sel), o.price(sel)
}

// checkOracle answers one request through the store in front of the
// session — a fresh entry, else a solve whose definitive answer is filed —
// and checks the answer against the oracle, so stored answers are checked
// exactly like solved ones. It reports whether the oracle found the
// request satisfiable and whether the store answered it.
func checkOracle(t *testing.T, store *Answers, se *Session, u *repo.Universe, roots []Root, obj Objective, label string) (sat, hit bool) {
	t.Helper()
	o, err := newOracle(u, roots, obj)
	if err != nil {
		t.Fatalf("%s: oracle pricing: %v", label, err)
	}
	key := ShapeKey(obj, roots)
	res, gotErr, _, hit := store.Get(key, roots)
	if !hit {
		res, gotErr = se.Resolve(context.Background(), roots, Options{Objective: obj})
		store.Put(key, "session", res, gotErr)
	}
	label = fmt.Sprintf("%s hit %v", label, hit)
	if o.unknown {
		var ue *UnknownPackageError
		if !errors.As(gotErr, &ue) {
			t.Fatalf("%s: oracle: unknown root; session: %v", label, gotErr)
		}
		return false, hit
	}
	best, cost, optima := o.solve()
	if optima == 0 {
		if !errors.Is(gotErr, ErrUnsatisfiable) {
			t.Fatalf("%s: oracle: unsatisfiable; session: %v, picks %v", label, gotErr, res)
		}
		return false, hit
	}
	if gotErr != nil {
		t.Fatalf("%s: oracle: cost %d with %v; session: %v", label, cost, best, gotErr)
	}
	if !res.Stats.Optimal || res.Stats.Cost != cost {
		t.Fatalf("%s: session cost %d (optimal=%v), oracle optimum %d with %v",
			label, res.Stats.Cost, res.Stats.Optimal, cost, best)
	}
	if valid, price := o.judge(res.Picks); !valid || price != cost {
		t.Fatalf("%s: session picks %v: valid=%v, priced %d by the oracle, optimum %d",
			label, pickStrings(res), valid, price, cost)
	}
	if optima == 1 {
		if len(res.Picks) != len(best) {
			t.Fatalf("%s: session picks %v, unique optimum %v", label, pickStrings(res), best)
		}
		for name, v := range best {
			if got, ok := res.Picks[name]; !ok || !got.Equal(v) {
				t.Fatalf("%s: session picks %v, unique optimum %v", label, pickStrings(res), best)
			}
		}
	}
	return true, hit
}

// oracleGen generates small universes, deltas and requests over a fixed
// name pool: packages p0..p(n-1), not all of which exist at first, and
// virtuals v0 and v1, provided (or not) by package versions. Versions are
// 1.0 through 5.0, at most three per package.
type oracleGen struct {
	rng   *rand.Rand
	pkgs  []string
	virts []string
	vers  map[string][]int // the majors each existing package carries
	known map[string]bool  // packages and provided virtuals in the universe
}

func newOracleGen(seed int64) *oracleGen {
	rng := rand.New(rand.NewSource(seed))
	g := &oracleGen{rng: rng, vers: make(map[string][]int), known: make(map[string]bool)}
	for i, n := 0, 3+rng.Intn(5); i < n; i++ {
		g.pkgs = append(g.pkgs, fmt.Sprintf("p%d", i))
	}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		g.virts = append(g.virts, fmt.Sprintf("v%d", i))
	}
	return g
}

func (g *oracleGen) pick(names []string) string { return names[g.rng.Intn(len(names))] }

// rangeSpec renders a range over majors 1..5; a range can admit nothing
// the universe carries yet.
func (g *oracleGen) rangeSpec() string {
	k := 1 + g.rng.Intn(5)
	switch g.rng.Intn(5) {
	case 0:
		return ":"
	case 1:
		return fmt.Sprintf("%d:", k)
	case 2:
		return fmt.Sprintf(":%d", k)
	case 3:
		return fmt.Sprintf("%d", k)
	default:
		return fmt.Sprintf("%d:%d", k, k+g.rng.Intn(2))
	}
}

// target picks a declaration target: the declaring package itself, a pool
// package, or a virtual. With onlyKnown (delta declarations) it draws only
// from names the universe will know once the delta applies.
func (g *oracleGen) target(self string, onlyKnown map[string]bool) string {
	for {
		var name string
		switch r := g.rng.Intn(10); {
		case r < 2:
			name = self
		case r < 7:
			name = g.pick(g.pkgs)
		default:
			name = g.pick(g.virts)
		}
		if onlyKnown == nil || onlyKnown[name] {
			return name
		}
	}
}

// decls draws one version's declarations: up to two dependencies, maybe a
// conflict and a provides, each dependency or conflict sometimes guarded by
// a When trigger.
func (g *oracleGen) decls(self string, onlyKnown map[string]bool) []repo.Decl {
	var out []repo.Decl
	when := func() (string, string, bool) {
		if g.rng.Intn(4) != 0 {
			return "", "", false
		}
		return g.target(self, onlyKnown), g.rangeSpec(), true
	}
	for i, n := 0, g.rng.Intn(3); i < n; i++ {
		t, r := g.target(self, onlyKnown), g.rangeSpec()
		if wp, wr, ok := when(); ok {
			out = append(out, repo.DepWhen(t, r, wp, wr))
		} else {
			out = append(out, repo.Dep(t, r))
		}
	}
	if g.rng.Intn(3) == 0 {
		t, r := g.target(self, onlyKnown), g.rangeSpec()
		if wp, wr, ok := when(); ok {
			out = append(out, repo.ConflWhen(t, r, wp, wr))
		} else {
			out = append(out, repo.Confl(t, r))
		}
	}
	if g.rng.Intn(3) == 0 {
		out = append(out, repo.Prov(g.pick(g.virts), fmt.Sprintf("%d.0", 1+g.rng.Intn(3))))
	}
	return out
}

// newMajor picks a major the package does not carry yet.
func (g *oracleGen) newMajor(pkg string) int {
	for {
		k := 1 + g.rng.Intn(5)
		fresh := true
		for _, have := range g.vers[pkg] {
			fresh = fresh && have != k
		}
		if fresh {
			return k
		}
	}
}

func (g *oracleGen) note(pkg string, major int, decls []repo.Decl) {
	g.vers[pkg] = append(g.vers[pkg], major)
	g.known[pkg] = true
	for _, d := range decls {
		if pr, ok := d.(repo.Provides); ok {
			g.known[pr.Virtual] = true
		}
	}
}

// universe builds the initial universe: about two thirds of the pool, one
// or two versions each, declarations free to name packages and virtuals
// that do not exist yet.
func (g *oracleGen) universe() *repo.Universe {
	u := repo.New()
	for i, pkg := range g.pkgs {
		if i > 0 && g.rng.Intn(3) == 0 {
			continue
		}
		for j, n := 0, 1+g.rng.Intn(2); j < n; j++ {
			major := g.newMajor(pkg)
			decls := g.decls(pkg, nil)
			u.Add(pkg, fmt.Sprintf("%d.0", major), decls...)
			g.note(pkg, major, decls)
		}
	}
	return u
}

// delta draws one or two additions — a new version of a package with room
// for one, or a pool package the universe lacks — whose declarations name
// only what the universe will know. It returns nil when the pool is full.
func (g *oracleGen) delta() *repo.Delta {
	var room []string
	for _, pkg := range g.pkgs {
		if len(g.vers[pkg]) < 3 {
			room = append(room, pkg)
		}
	}
	if len(room) == 0 {
		return nil
	}
	d := repo.NewDelta()
	added := make(map[string]bool)
	known := make(map[string]bool, len(g.known)+2)
	for name := range g.known {
		known[name] = true
	}
	for i, n := 0, 1+g.rng.Intn(2); i < n; i++ {
		pkg := g.pick(room)
		if added[pkg] {
			continue
		}
		added[pkg] = true
		known[pkg] = true
		major := g.newMajor(pkg)
		decls := g.decls(pkg, known)
		d.Add(pkg, fmt.Sprintf("%d.0", major), decls...)
		g.note(pkg, major, decls)
	}
	return d
}

// roots draws one or two roots: a pool package (existing or not), or a
// virtual by bare name or through the virtual: namespace.
func (g *oracleGen) roots() []Root {
	var out []Root
	for i, n := 0, 1+g.rng.Intn(2); i < n; i++ {
		name := g.pick(g.pkgs)
		if g.rng.Intn(4) == 0 {
			name = g.pick(g.virts)
			if g.rng.Intn(2) == 0 {
				name = VirtualPrefix + name
			}
		}
		if spec := g.rangeSpec(); spec != ":" {
			name += "@" + spec
		}
		out = append(out, MustParseRoot(name))
	}
	return out
}

// objective draws NewestVersion or MinimalChange against a profile of
// existing packages at carried (or since-superseded) majors.
func (g *oracleGen) objective() Objective {
	if g.rng.Intn(2) == 0 {
		return NewestVersion{}
	}
	prof := repo.Profile{}
	for pkg, majors := range g.vers {
		if g.rng.Intn(2) == 0 {
			prof[pkg] = version.MustParse(fmt.Sprintf("%d.0", majors[g.rng.Intn(len(majors))]))
		}
	}
	return MinimalChange(prof)
}

// oracleStats tallies one warm stream.
type oracleStats struct {
	answers, sat, hits, deltas, resets int
}

// runOracleStream drives one generated universe through one warm session
// behind an answer store: requests under both objectives, deltas every few
// requests (each extending the session and invalidating the store), and
// replays of earlier requests (most of all right after a delta, when a
// stale answer would show), every answer — solved or stored — checked
// against the oracle.
func runOracleStream(t *testing.T, seed int64) oracleStats {
	t.Helper()
	g := newOracleGen(seed)
	u := g.universe()
	se := NewSession(u)
	store := NewAnswers(AnswersPerSession)
	type request struct {
		roots []Root
		obj   Objective
	}
	var asked []request
	var st oracleStats
	for step := 0; step < 30; step++ {
		var req request
		switch r := g.rng.Intn(10); {
		case r < 2 && step > 0:
			if d := g.delta(); d != nil {
				if _, err := se.Extend(d); err != nil {
					t.Fatalf("seed %d step %d: Extend: %v", seed, step, err)
				}
				store.Invalidate(d)
				st.deltas++
			}
			continue
		case r < 5 && len(asked) > 0:
			req = asked[g.rng.Intn(len(asked))]
		default:
			req = request{g.roots(), g.objective()}
			asked = append(asked, req)
		}
		label := fmt.Sprintf("seed %d step %d epoch %d roots %s objective %s", seed, step, u.Epoch(), rootsString(req.roots), req.obj.Key())
		sat, hit := checkOracle(t, store, se, u, req.roots, req.obj, label)
		if sat {
			st.sat++
		}
		if hit {
			st.hits++
		}
		st.answers++
	}
	st.resets = se.EncodingStats().Resets
	return st
}

// TestOracleWarmStream checks a warm session against the brute-force
// oracle over 400 generated streams. The streams must reach the revival
// path: some deltas have to reset an encoding.
func TestOracleWarmStream(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 100
	}
	var total oracleStats
	for seed := int64(0); seed < int64(seeds); seed++ {
		st := runOracleStream(t, seed)
		total.answers += st.answers
		total.sat += st.sat
		total.hits += st.hits
		total.deltas += st.deltas
		total.resets += st.resets
	}
	t.Logf("%d streams: %d answers (%d satisfiable, %d from the store), %d deltas, %d encoding resets",
		seeds, total.answers, total.sat, total.hits, total.deltas, total.resets)
	if total.sat == 0 || total.sat == total.answers {
		t.Fatalf("streams drew %d satisfiable answers of %d: the generator lost its mix", total.sat, total.answers)
	}
	if total.hits == 0 {
		t.Fatal("no answer came from the store: the streams no longer check stored answers")
	}
	if total.resets == 0 {
		t.Fatal("no stream reset an encoding: the generator no longer draws reviving deltas")
	}
}

// TestOracleGeneratorShapes pins the generator's coverage of the shapes
// that broke in-place revival: self and mutual dependencies, self
// conflicts, dependency ranges nothing satisfies yet that a later delta
// satisfies, and deltas that add a provider.
func TestOracleGeneratorShapes(t *testing.T) {
	var self, mutual, selfConflict, laterSatisfied, newProvider int
	for seed := int64(0); seed < 150; seed++ {
		g := newOracleGen(seed)
		u := g.universe()
		type requirement struct {
			name string
			rng  version.Range
		}
		dead := make(map[string]requirement) // keyed "name@range": no candidate yet
		depsOf := make(map[string]map[string]bool)
		initial := oracleUniverseSel(u)
		scan := func(pkg string, def repo.VersionDef) {
			for _, d := range def.Deps {
				if d.Pkg == pkg {
					self++
				}
				if depsOf[pkg] == nil {
					depsOf[pkg] = make(map[string]bool)
				}
				depsOf[pkg][d.Pkg] = true
				if !oracleHolds(initial, d.Pkg, d.Range) {
					dead[d.Pkg+"@"+d.Range.String()] = requirement{d.Pkg, d.Range}
				}
			}
			for _, c := range def.Conflicts {
				if c.Pkg == pkg {
					selfConflict++
				}
			}
		}
		for _, name := range u.Names() {
			p, _ := u.Package(name)
			for _, def := range p.Versions() {
				scan(name, def)
			}
		}
		for i := 0; i < 4; i++ {
			d := g.delta()
			if d == nil {
				break
			}
			if _, err := u.Apply(d); err != nil {
				t.Fatalf("seed %d: Apply: %v", seed, err)
			}
			if deltaProvides(d) {
				newProvider++
			}
			all := oracleUniverseSel(u)
			for key, req := range dead {
				if oracleHolds(all, req.name, req.rng) {
					laterSatisfied++
					delete(dead, key)
				}
			}
		}
		for a, deps := range depsOf {
			for b := range deps {
				if a < b && depsOf[b][a] {
					mutual++
				}
			}
		}
	}
	t.Logf("self deps %d, mutual deps %d, self conflicts %d, later-satisfied ranges %d, provider deltas %d",
		self, mutual, selfConflict, laterSatisfied, newProvider)
	if self == 0 || mutual == 0 || selfConflict == 0 || laterSatisfied == 0 || newProvider == 0 {
		t.Fatal("the generator stopped drawing one of the shapes")
	}
}

// oracleUniverseSel selects every version of every package at once, so
// oracleHolds answers "does anything in the universe satisfy this".
func oracleUniverseSel(u *repo.Universe) []oracleSel {
	var sel []oracleSel
	for _, name := range u.Names() {
		p, _ := u.Package(name)
		for i := range p.Versions() {
			sel = append(sel, oracleSel{name, &p.Versions()[i]})
		}
	}
	return sel
}

func deltaProvides(d *repo.Delta) bool {
	for _, a := range d.Adds() {
		if len(a.Def.Provides) > 0 {
			return true
		}
	}
	return false
}

// FuzzOracle runs one generated warm stream per input seed against the
// oracle.
func FuzzOracle(f *testing.F) {
	for _, seed := range []int64{0, 1, 12, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runOracleStream(t, seed)
	})
}
