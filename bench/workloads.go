package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
	"github.com/paper-repo-growth/go-arxiv/resolve"
	"github.com/paper-repo-growth/go-arxiv/serve"
)

// Every workload is a closed loop: each connection sends its next request
// only when the previous answer is in, the way a CI job or an install
// command waits for its resolution. The daemon sees only the family
// parameters and the requests.
//
// Cost per request on the registry family is set mostly by where the root
// sits in its dependency block (a root near the block head reaches ~70
// packages, one near the tail ~5), so each stream mixes block positions
// evenly. On a warm session the cost of a miss also depends on every solve
// before it: reordering one set of 144 first-visit roots moved their total
// conflicts between 83k and 153k. The two workloads whose cost is such
// misses therefore replay one fixed stream (seeded: false); the run's seed
// then only picks which answers the reference pass re-checks.

// Layout of repo.SynthRegistry(600, 8): blocks of 48 packages whose members
// depend on near successors inside the block, then a tier of 32
// dependency-free hubs (reg568..reg599) that everything depends on. Eleven
// blocks are full; the twelfth (reg528..reg567) is cut short by the hubs.
const (
	regPkgs       = 600
	regVersions   = 8
	regBlock      = 48
	regFullBlocks = 11
	regHubStart   = 568
	regHubs       = regPkgs - regHubStart
)

var (
	registryFamily = family{kind: "registry", dims: []int{regPkgs, regVersions}}
	virtualFamily  = family{kind: "virtual", dims: []int{8, 3, 8}}
)

// sizing scales a workload's fixed input counts. Runs use fullSize; the
// package test shrinks it so every workload finishes in about a second.
type sizing struct {
	hot        int   // warm-hits: prewarmed roots under the zipf
	positions  []int // cold-fanout: block positions sent in one round
	churnRoots int   // publish-churn: prewarmed roots under the zipf
	refs       int   // (shape, epoch) answers re-resolved on a fresh resolver
	setups     int   // daemon spawns timed for setup_s
}

var fullSize = sizing{hot: 64, positions: seq(regBlock), churnRoots: 16, refs: 32, setups: 7}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// shape is one distinct resolve request.
type shape struct {
	key  string // the request body: identical bodies are identical shapes
	body []byte
	req  resolve.Request // the same request, for the reference resolver
}

func newShape(wr serve.ResolveRequest) *shape {
	body, err := json.Marshal(wr)
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	req := resolve.Request{Objective: resolve.NewestVersion()}
	for _, s := range wr.Roots {
		r, err := resolve.ParseRoot(s)
		if err != nil {
			panic(fmt.Sprintf("workload root %q: %v", s, err))
		}
		req.Roots = append(req.Roots, r)
	}
	if wr.Objective == "minimal-change" {
		prof := make(repo.Profile, len(wr.Installed))
		for pkg, v := range wr.Installed {
			prof[pkg] = version.MustParse(v)
		}
		req.Objective = resolve.MinimalChange(prof)
	}
	return &shape{key: string(body), body: body, req: req}
}

// delta is one published version: a new newest, dependency-free version.
type delta struct {
	pkg, version string
	body         []byte
}

func newDelta(pkg, ver string) *delta {
	body, err := json.Marshal(serve.ApplyRequest{Adds: []serve.VersionAddRequest{{Pkg: pkg, Version: ver}}})
	if err != nil {
		panic(err)
	}
	return &delta{pkg: pkg, version: ver, body: body}
}

func (d *delta) repoDelta() *resolve.Delta {
	rd := resolve.NewDelta()
	rd.Add(d.pkg, d.version)
	return rd
}

// op is one request of a script: a resolve of sh, or an apply of d.
type op struct {
	sh *shape
	d  *delta
}

// script is a workload's request stream. Connections index it
// independently; every connection that reaches index i sends the same op.
type script struct {
	prewarm []op
	mu      sync.Mutex
	ops     []op
	next    func() (op, bool) // extends ops; false when the stream is exhausted
}

func (s *script) at(i int) (op, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ops) <= i {
		o, ok := s.next()
		if !ok {
			return op{}, false
		}
		s.ops = append(s.ops, o)
	}
	return s.ops[i], true
}

// workload is one traffic mix against one daemon.
type workload struct {
	name   string
	family family
	conns  int // closed-loop connections
	// rate is the stream ops a run sends per second of --seconds, set so a
	// run on the reference machine lasts about that long. The count is fixed
	// for a given --seconds, so every run and every commit does the same
	// work. (Each cold-fanout op is one root sent by both connections.)
	rate float64
	// seeded streams are drawn from the run's seed, the others from
	// fixedStreamSeed.
	seeded bool
	// exact compares full picks against the reference; otherwise only the
	// cost, for families whose optima tie.
	exact bool
	build func(rng *rand.Rand, sz sizing) *script
}

// fixedStreamSeed draws the streams of unseeded workloads.
const fixedStreamSeed = 1

var workloads = []*workload{
	{
		name:   "warm-hits",
		family: registryFamily, conns: 1, rate: 6500, seeded: true, exact: true, build: warmHits,
	},
	{
		name:   "cold-fanout",
		family: registryFamily, conns: 2, rate: 12, seeded: false, exact: true, build: coldFanout,
	},
	{
		name:   "publish-churn",
		family: registryFamily, conns: 1, rate: 90, seeded: false, exact: true, build: publishChurn,
	},
	{
		name:   "reuse-swap",
		family: virtualFamily, conns: 1, rate: 260, seeded: true, exact: false, build: reuseSwap,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (%s)", name, strings.Join(names, "|"))
}

func regRoot(pkg int, capAt int) *shape {
	spec := fmt.Sprintf("reg%d", pkg)
	if capAt > 0 {
		spec += fmt.Sprintf("@:%d", capAt)
	}
	return newShape(serve.ResolveRequest{Roots: []string{spec}})
}

// blockOrders draws, for every block position, an order over the full
// blocks: position p's k-th root comes from block orders[p][k], so roots at
// one position never repeat a package.
func blockOrders(rng *rand.Rand) [][]int {
	orders := make([][]int, regBlock)
	for p := range orders {
		orders[p] = rng.Perm(regFullBlocks)
	}
	return orders
}

// zipfStream draws from roots with zipf(1.1) popularity; roots[0] is the
// most popular.
func zipfStream(rng *rand.Rand, roots []*shape) func() (op, bool) {
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(roots)-1))
	return func() (op, bool) { return op{sh: roots[z.Uint64()]}, true }
}

func resolves(shapes []*shape) []op {
	ops := make([]op, len(shapes))
	for i, sh := range shapes {
		ops[i] = op{sh: sh}
	}
	return ops
}

// warmHits: sz.hot bare roots from the lighter half of the blocks
// (positions 16..47 of blocks 1 and 7), all prewarmed, then zipf(1.1)
// resolves over them; popularity rank r lands on position 16+13r mod 32.
// The seed draws only the request sequence: the hot set is fixed, so the
// prewarm leaves the same solver state behind under every seed.
func warmHits(rng *rand.Rand, sz sizing) *script {
	roots := make([]*shape, sz.hot)
	for r := range roots {
		pos := 16 + (r*13)%32
		roots[r] = regRoot((1+6*(r/32))*regBlock+pos, 0)
	}
	return &script{prewarm: resolves(roots), next: zipfStream(rng, roots)}
}

// coldFanout: rounds of one first-visit root per block position, each from
// a block the position has not used yet, bare or capped at a drawn
// version. Roots on "tight" packages (every fourth, whose own dependencies
// are capped) stay bare: capping them is the documented descent limitation.
// Both connections walk the same stream, so each root is in flight twice.
// Prewarm: bare roots from the short twelfth block, which rounds never use.
// The stream ends after eleven rounds, when every position has used every
// full block.
func coldFanout(rng *rand.Rand, sz sizing) *script {
	orders := blockOrders(rng)
	s := &script{}
	for _, pos := range sz.positions {
		if pos%3 == 0 && regFullBlocks*regBlock+pos < regHubStart {
			s.prewarm = append(s.prewarm, op{sh: regRoot(regFullBlocks*regBlock+pos, 0)})
		}
	}
	var pending []op
	round := 0
	s.next = func() (op, bool) {
		if len(pending) == 0 {
			if round == regFullBlocks {
				return op{}, false
			}
			for _, pos := range sz.positions {
				capAt := 0
				if pos%4 != 0 {
					capAt = rng.Intn(regVersions) // 0: bare
				}
				pending = append(pending, op{sh: regRoot(orders[pos][round]*regBlock+pos, capAt)})
			}
			rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
			round++
		}
		o := pending[0]
		pending = pending[1:]
		return o, true
	}
	return s
}

// churnCycle is publish-churn's period: 29 resolves, then one publish.
const churnCycle = 30

// publishChurn: sz.churnRoots bare roots spread over the block positions,
// prewarmed, read under zipf(1.1); every 30th op publishes a new newest,
// dependency-free version. Every fourth publish lands on a hub (which most
// closures reach), the rest on ordinary packages. Both target sequences are
// drawn permutations, so publishes spread evenly over the candidates.
func publishChurn(rng *rand.Rand, sz sizing) *script {
	orders := blockOrders(rng)
	stride := regBlock / sz.churnRoots
	roots := make([]*shape, sz.churnRoots)
	for r := range roots {
		pos := stride * ((r * 5) % sz.churnRoots)
		roots[r] = regRoot(orders[pos][0]*regBlock+pos, 0)
	}
	hubs, leaves := rng.Perm(regHubs), rng.Perm(regHubStart)
	nextVer := map[int]int{}
	reads := zipfStream(rng, roots)
	i, hubPubs, leafPubs := 0, 0, 0
	next := func() (op, bool) {
		i++
		if i%churnCycle != 0 {
			return reads()
		}
		var pkg int
		if (hubPubs+leafPubs)%4 == 0 {
			pkg = regHubStart + hubs[hubPubs%regHubs]
			hubPubs++
		} else {
			pkg = leaves[leafPubs%regHubStart]
			leafPubs++
		}
		if nextVer[pkg] == 0 {
			nextVer[pkg] = regVersions + 1
		}
		d := newDelta(fmt.Sprintf("reg%d", pkg), fmt.Sprintf("%d.0", nextVer[pkg]))
		nextVer[pkg]++
		return op{d: d}, true
	}
	return &script{prewarm: resolves(roots), next: next}
}

// reuseSwap: minimal-change requests over SynthVirtualDiamond(8,3,8), each
// against its own seeded installed profile — a consistent install of app,
// one provider per virtual, and vbase — and half of them also rooting
// another provider of one virtual, the provider swap of the paper's MPI
// example. Every request is a distinct shape, so each one descends.
func reuseSwap(rng *rand.Rand, sz sizing) *script {
	virts, provs, vers := virtualFamily.dims[0], virtualFamily.dims[1], virtualFamily.dims[2]
	seen := map[string]bool{}
	gen := func() (op, bool) {
		for {
			app := 1 + rng.Intn(vers)
			inst := map[string]string{"app": fmt.Sprintf("%d.0", app)}
			chosen := make([]int, virts)
			low := app
			for v := range chosen {
				chosen[v] = rng.Intn(provs)
				k := 1 + rng.Intn(app)
				low = min(low, k)
				inst[fmt.Sprintf("prov%d_%d", v, chosen[v])] = fmt.Sprintf("%d.0", k)
			}
			inst["vbase"] = fmt.Sprintf("%d.0", 1+rng.Intn(low))
			roots := []string{"app"}
			if rng.Intn(2) == 0 {
				v := rng.Intn(virts)
				swap := (chosen[v] + 1 + rng.Intn(provs-1)) % provs
				roots = append(roots, fmt.Sprintf("prov%d_%d", v, swap))
			}
			sh := newShape(serve.ResolveRequest{Roots: roots, Objective: "minimal-change", Installed: inst})
			if !seen[sh.key] {
				seen[sh.key] = true
				return op{sh: sh}, true
			}
		}
	}
	s := &script{next: gen}
	for range 8 {
		o, _ := gen()
		s.prewarm = append(s.prewarm, o)
	}
	return s
}
