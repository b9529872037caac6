// Package faultpoint is the project's named-injection-site registry: the
// mechanism that makes failure a first-class, schedulable input to every
// layer that has a failure path, instead of a per-package test hook.
//
// A site is declared once, as a package-level variable, at the code path
// whose failure modes it models:
//
//	var fpExtend = faultpoint.New("concretize/extend")
//
// and fired inline where the fault would strike:
//
//	if err := fpExtend.Inject(""); err != nil { return err }
//
// Disarmed — the production state — Inject is one atomic pointer load
// returning nil; the daemon's warm-path benchmarks run with every site
// disarmed and pin that this costs nothing measurable. Armed, a site
// executes a deterministic schedule of steps: Skip (count a hit, do
// nothing), Error (return an injected error), Latency (sleep, then
// proceed), and Panic (raise a *faultpoint.PanicValue). Schedules are
// armed per test via Arm and torn down via Disarm/DisarmAll, or supplied
// at process start through the GOARXIV_FAULTPOINTS environment variable
// for operational fault drills. A schedule whose every rule is exhausted
// disarms itself, returning the site to the zero-cost path.
//
// # Site-naming convention
//
// Site names are slash-separated paths, "<package>/<operation>" (a third
// segment for sub-operations): "concretize/extend",
// "resolve/portfolio/solve", "serve/backend/apply". The package segment is
// the package that DECLARES the site — the layer whose failure the site
// models — not the caller. Inject's label argument carries the dynamic
// instance within the site: the portfolio member name, the pool shard
// index (strconv.Itoa), or "" where the site has one instance. Rules match
// a specific label (On) or any label (Any), so one site covers "member
// 'steady' fails" and "any member fails" without multiplying site names.
//
// # Environment schedule grammar
//
//	GOARXIV_FAULTPOINTS="site[label]=2*skip,error(boom);other=sleep(5ms);third=panic"
//
// Semicolons separate site rules, commas separate a rule's steps, and an
// optional "count*" prefix repeats a step (count 0 repeats forever). The
// bracketed label is optional (any-label when absent). Actions: skip,
// error, error(msg), sleep(duration), panic, panic(msg). A malformed spec
// is reported on stderr and ignored — a fault drill must never be able to
// keep a daemon from booting.
package faultpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every error an Error step without a custom
// error produces; tests and classifiers match it with errors.Is.
var ErrInjected = errors.New("faultpoint: injected fault")

// PanicValue is what a Panic step raises: a distinguishable panic payload
// carrying the site that fired, so containment layers can tell an injected
// panic from a real one in captured stacks.
type PanicValue struct {
	Site string
	Msg  string
}

func (p *PanicValue) String() string {
	if p.Msg == "" {
		return fmt.Sprintf("faultpoint: injected panic at %s", p.Site)
	}
	return fmt.Sprintf("faultpoint: injected panic at %s: %s", p.Site, p.Msg)
}

// action is what one schedule step does when it fires.
type action uint8

const (
	actSkip action = iota
	actError
	actLatency
	actPanic
)

// Step is one unit of a schedule: an action plus how many consecutive
// injections it covers (n == 0 means forever — the step never exhausts).
type Step struct {
	act action
	n   int
	err error
	d   time.Duration
	msg string
}

// Skip passes n injections through untouched (a targeting offset: the
// schedule "Skip(2), Error(1)" faults exactly the third hit).
func Skip(n int) Step { return Step{act: actSkip, n: n} }

// Error fails n injections with err; a nil err produces a generated error
// matching ErrInjected via errors.Is.
func Error(n int, err error) Step { return Step{act: actError, n: n, err: err} }

// Latency sleeps d on each of n injections, then lets the call proceed.
func Latency(n int, d time.Duration) Step { return Step{act: actLatency, n: n, d: d} }

// Panic raises a *PanicValue on each of n injections.
func Panic(n int, msg string) Step { return Step{act: actPanic, n: n, msg: msg} }

// Rule is an ordered step sequence bound to a label filter. Within a
// program, the first non-exhausted rule matching the injection's label
// consumes the hit; rules keep independent cursors.
type Rule struct {
	Label string // "" matches any label
	Steps []Step
}

// On binds steps to one specific injection label (a portfolio member
// name, a pool shard index).
func On(label string, steps ...Step) Rule { return Rule{Label: label, Steps: steps} }

// Any binds steps to every injection label.
func Any(steps ...Step) Rule { return Rule{Steps: steps} }

// ruleState is one rule's execution cursor inside an armed program.
type ruleState struct {
	label string
	steps []Step
	idx   int // current step
	used  int // units consumed from steps[idx]
}

func (r *ruleState) exhausted() bool { return r.idx >= len(r.steps) }

// next consumes one unit from the current step and returns it. Callers
// hold the program lock and guarantee !exhausted.
func (r *ruleState) next() Step {
	st := r.steps[r.idx]
	if st.n > 0 {
		r.used++
		if r.used >= st.n {
			r.idx++
			r.used = 0
		}
	}
	return st
}

// program is one armed schedule: the rules plus the lock serializing
// concurrent injections against their cursors.
type program struct {
	mu    sync.Mutex
	rules []*ruleState
}

// Point is one named injection site. Declare with New at package level;
// fire with Inject at the guarded code path.
type Point struct {
	name string

	// prog is the armed schedule, nil while disarmed. The disarmed fast
	// path is a single atomic load.
	//
	// goarxivlint:lockfree
	prog atomic.Pointer[program]

	// hits counts injections that found the site armed (schedule
	// matching or not); disarmed passes are deliberately uncounted so
	// the production path stays one load.
	//
	// goarxivlint:lockfree
	hits atomic.Int64
}

// Name returns the site's registered name.
func (p *Point) Name() string { return p.name }

// Hits returns how many injections hit the site while armed.
func (p *Point) Hits() int64 { return p.hits.Load() }

// Inject fires the site with the given dynamic label. Disarmed it returns
// nil at the cost of one atomic load. Armed, the first non-exhausted rule
// matching the label consumes one step: Skip and Latency return nil
// (Latency after sleeping), Error returns the injected error, Panic raises
// a *PanicValue. When every rule is exhausted the site disarms itself.
func (p *Point) Inject(label string) error {
	prog := p.prog.Load()
	if prog == nil {
		return nil
	}
	p.hits.Add(1)
	var st Step
	matched := false
	allDone := true
	prog.mu.Lock()
	for _, r := range prog.rules {
		if r.exhausted() {
			continue
		}
		if !matched && (r.label == "" || r.label == label) {
			st = r.next()
			matched = true
		}
		if !r.exhausted() {
			allDone = false
		}
	}
	prog.mu.Unlock()
	if allDone {
		p.prog.CompareAndSwap(prog, nil)
	}
	if !matched {
		return nil
	}
	switch st.act {
	case actError:
		if st.err != nil {
			return st.err
		}
		if st.msg != "" {
			return fmt.Errorf("%w: %s: %s", ErrInjected, p.name, st.msg)
		}
		return fmt.Errorf("%w: %s", ErrInjected, p.name)
	case actLatency:
		time.Sleep(st.d)
	case actPanic:
		panic(&PanicValue{Site: p.name, Msg: st.msg})
	}
	return nil
}

// arm installs a fresh program for the rules (replacing any armed one).
func (p *Point) arm(rules []Rule) {
	prog := &program{}
	for _, r := range rules {
		prog.rules = append(prog.rules, &ruleState{label: r.Label, steps: r.Steps})
	}
	p.prog.Store(prog)
}

// registry is the process-wide site table plus env-supplied rules waiting
// for their sites to register.
var registry = struct {
	mu      sync.Mutex
	points  map[string]*Point
	pending map[string][]Rule
}{
	points:  make(map[string]*Point),
	pending: make(map[string][]Rule),
}

func init() {
	spec := os.Getenv("GOARXIV_FAULTPOINTS")
	if spec == "" {
		return
	}
	rules, err := parseSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultpoint: ignoring GOARXIV_FAULTPOINTS: %v\n", err)
		return
	}
	registry.pending = rules
}

// New registers a named site and returns its handle. Names must be unique
// process-wide (New panics on a duplicate: two sites sharing a name would
// make schedules ambiguous). A site named in GOARXIV_FAULTPOINTS arms
// itself the moment it registers.
func New(name string) *Point {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if name == "" {
		panic("faultpoint: empty site name")
	}
	if registry.points[name] != nil {
		panic(fmt.Sprintf("faultpoint: duplicate site %q", name))
	}
	p := &Point{name: name}
	registry.points[name] = p
	if rules := registry.pending[name]; len(rules) > 0 {
		p.arm(rules)
		delete(registry.pending, name)
	}
	return p
}

// Arm installs a schedule on a registered site, replacing any armed one.
// Tests arm sites by name (the sites themselves are private to the
// packages that declare them) and tear down with Disarm or DisarmAll.
func Arm(site string, rules ...Rule) error {
	if len(rules) == 0 {
		return fmt.Errorf("faultpoint: Arm(%q) with no rules", site)
	}
	for _, r := range rules {
		if len(r.Steps) == 0 {
			return fmt.Errorf("faultpoint: Arm(%q) rule with no steps", site)
		}
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	p := registry.points[site]
	if p == nil {
		return fmt.Errorf("faultpoint: unknown site %q", site)
	}
	p.arm(rules)
	return nil
}

// Disarm removes a site's schedule (a no-op on unknown or disarmed sites).
func Disarm(site string) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if p := registry.points[site]; p != nil {
		p.prog.Store(nil)
	}
}

// DisarmAll disarms every registered site — the standard test cleanup.
func DisarmAll() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, p := range registry.points {
		p.prog.Store(nil)
	}
}

// Armed returns the names of currently armed sites, sorted — surfaced by
// the daemon's /v1/stats so an operator can see a live fault drill.
func Armed() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	var out []string
	for name, p := range registry.points {
		if p.prog.Load() != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Sites returns every registered site name, sorted.
func Sites() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]string, 0, len(registry.points))
	for name := range registry.points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Hits returns a site's armed-hit counter (0 for unknown sites).
func Hits(site string) int64 {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if p := registry.points[site]; p != nil {
		return p.hits.Load()
	}
	return 0
}

// parseSpec parses the GOARXIV_FAULTPOINTS grammar into per-site rules.
func parseSpec(spec string) (map[string][]Rule, error) {
	out := make(map[string][]Rule)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.Index(part, "=")
		if eq < 0 {
			return nil, fmt.Errorf("missing '=' in %q", part)
		}
		head := strings.TrimSpace(part[:eq])
		label := ""
		if i := strings.Index(head, "["); i >= 0 {
			if !strings.HasSuffix(head, "]") {
				return nil, fmt.Errorf("unclosed label in %q", head)
			}
			label = head[i+1 : len(head)-1]
			head = head[:i]
		}
		if head == "" {
			return nil, fmt.Errorf("empty site name in %q", part)
		}
		var steps []Step
		for _, fs := range strings.Split(part[eq+1:], ",") {
			st, err := parseStep(strings.TrimSpace(fs))
			if err != nil {
				return nil, err
			}
			steps = append(steps, st)
		}
		out[head] = append(out[head], Rule{Label: label, Steps: steps})
	}
	return out, nil
}

// parseStep parses one "count*action(arg)" step.
func parseStep(s string) (Step, error) {
	n := 1
	if i := strings.Index(s, "*"); i >= 0 {
		v, err := strconv.Atoi(strings.TrimSpace(s[:i]))
		if err != nil || v < 0 {
			return Step{}, fmt.Errorf("bad count in %q", s)
		}
		n = v
		s = strings.TrimSpace(s[i+1:])
	}
	name, arg := s, ""
	if i := strings.Index(s, "("); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return Step{}, fmt.Errorf("unclosed argument in %q", s)
		}
		name, arg = s[:i], s[i+1:len(s)-1]
	}
	switch name {
	case "skip":
		return Skip(n), nil
	case "error":
		st := Error(n, nil)
		st.msg = arg
		return st, nil
	case "sleep", "latency":
		d, err := time.ParseDuration(arg)
		if err != nil {
			return Step{}, fmt.Errorf("bad duration in %q: %v", s, err)
		}
		return Latency(n, d), nil
	case "panic":
		return Panic(n, arg), nil
	default:
		return Step{}, fmt.Errorf("unknown action %q", name)
	}
}
