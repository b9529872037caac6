package sat

// Config tunes the search heuristics of one Solver. The zero value selects
// the defaults the solver has always used, so Config{} and New() are
// equivalent; every field only perturbs *how* the search explores the
// space, never *what* is satisfiable, which is what makes differently
// configured solvers safe to race against each other in a portfolio.
type Config struct {
	// PositiveFirst makes fresh variables branch on their positive literal
	// first. The default (false) branches negative-first, which for the
	// concretizer's encoding means "try not installing / not selecting"
	// before committing to a version. Phase saving overrides the initial
	// polarity as soon as a variable has been assigned once.
	PositiveFirst bool

	// RestartBase scales the Luby restart schedule: a restart fires after
	// luby(i) * RestartBase conflicts. Smaller values restart aggressively
	// (good on shuffled, conflict-heavy instances), larger values let deep
	// dives run. Zero selects the default of 100.
	RestartBase int64

	// Descent selects how the branch-and-bound loop layered on top of this
	// solver (internal/concretize) picks the next bound target between the
	// proven lower bound and the incumbent cost. The solver itself never
	// reads it; it lives here so one Config describes a complete portfolio
	// member. It can never change the returned answer — only how many
	// solve rounds the proof of optimality takes. The zero value is
	// DescentAdaptive.
	Descent DescentStrategy
}

// DescentStrategy names a bound-target schedule for objective descent.
type DescentStrategy uint8

const (
	// DescentAdaptive (the default) makes one linear probe at incumbent - 1
	// on a request shape it has no information about, and bisects for the
	// rest of the request as soon as that probe returns a model, or from
	// the start once a proven lower bound for the shape is known (a warm
	// session remembers bounds per request shape). On a fresh
	// solver the first incumbent is usually optimal, so the single probe is
	// the closing refutation and the request ends in two rounds. An
	// improving probe proves the first incumbent came from stale saved
	// phases: a warm solver restarts from the previous request's model and,
	// probed linearly, hands back only the next model down each round.
	// Midpoint probes stay far away from the incumbent, which also avoids
	// the pathological "refute a region right next to the just-excluded
	// model" rounds that a phase-polluted warm solver can burn tens of
	// thousands of conflicts on.
	DescentAdaptive DescentStrategy = iota

	// DescentBinary always probes the midpoint of [lower bound,
	// incumbent-1]: O(log range) rounds regardless of incumbent quality,
	// at the cost of a short ladder of UNSAT rounds near the optimum.
	DescentBinary
)

// String implements fmt.Stringer for diagnostics.
func (d DescentStrategy) String() string {
	switch d {
	case DescentBinary:
		return "binary"
	default:
		return "adaptive"
	}
}

// DefaultRestartBase is the Luby restart multiplier used when
// Config.RestartBase is zero.
const DefaultRestartBase = 100

// withDefaults resolves zero fields to their default values.
func (c Config) withDefaults() Config {
	if c.RestartBase <= 0 {
		c.RestartBase = DefaultRestartBase
	}
	return c
}
