package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
	"github.com/paper-repo-growth/go-arxiv/resolve"
)

// ResolveRequest is the wire form of POST /v1/resolve.
type ResolveRequest struct {
	// Roots are spec strings ("zlib", "zlib@1.2:", "virtual:mpi@2:"),
	// parsed by resolve.ParseRoot.
	Roots []string `json:"roots"`

	// Objective selects the ranking: "" or "newest" for NewestVersion,
	// "minimal-change" (with Installed) to minimize churn against a
	// profile.
	Objective string `json:"objective,omitempty"`

	// Installed is the minimal-change profile: package -> version.
	Installed map[string]string `json:"installed,omitempty"`

	// MaxConflicts bounds solver effort; <= 0 means unbounded.
	MaxConflicts int64 `json:"max_conflicts,omitempty"`

	// TimeoutMS is the per-request deadline in milliseconds; 0 selects the
	// server default, values above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// StatsResponse is the per-answer effort report inside a ResolveResponse.
// BoundMemoHit is always false: sessions no longer keep a per-shape bound
// memo, and the field stays on the wire for readers that still decode it.
type StatsResponse struct {
	Packages         int   `json:"packages"`
	SolveCalls       int   `json:"solve_calls"`
	Improvements     int   `json:"improvements"`
	Conflicts        int64 `json:"conflicts"`
	Decisions        int64 `json:"decisions"`
	Propagations     int64 `json:"propagations"`
	SolutionCacheHit bool  `json:"solution_cache_hit"`
	BoundMemoHit     bool  `json:"bound_memo_hit"`
	Coalesced        bool  `json:"coalesced"`
}

// ResolveResponse is the wire form of a successful resolution. Degraded
// marks a stale-answer response: the backend could not answer, so the
// last good resolution for this request shape was served from its answer
// store — Epoch is then the epoch that answer was computed at, bounded by
// the server's staleness policy, not the current universe epoch.
type ResolveResponse struct {
	Picks     map[string]string `json:"picks"`
	Cost      int64             `json:"cost"`
	Optimal   bool              `json:"optimal"`
	Config    string            `json:"config"`
	Epoch     uint64            `json:"epoch"`
	Degraded  bool              `json:"degraded,omitempty"`
	Coalesced bool              `json:"coalesced"`
	Stats     StatsResponse     `json:"stats"`
}

// ApplyRequest is the wire form of POST /v1/apply: an append-only batch of
// universe growth.
type ApplyRequest struct {
	Adds []VersionAddRequest `json:"adds"`
}

// VersionAddRequest is one new (package, version) with its declarations.
type VersionAddRequest struct {
	Pkg       string           `json:"pkg"`
	Version   string           `json:"version"`
	Deps      []DeclRequest    `json:"deps,omitempty"`
	Conflicts []DeclRequest    `json:"conflicts,omitempty"`
	Provides  []ProvideRequest `json:"provides,omitempty"`
}

// DeclRequest is one dependency or conflict declaration, optionally
// condition-guarded (when_pkg/when_range both set).
type DeclRequest struct {
	Pkg       string `json:"pkg"`
	Range     string `json:"range,omitempty"`
	WhenPkg   string `json:"when_pkg,omitempty"`
	WhenRange string `json:"when_range,omitempty"`
}

// ProvideRequest declares the added version provides a virtual interface.
type ProvideRequest struct {
	Virtual string `json:"virtual"`
	Version string `json:"version"`
}

// ApplyResponse reports the epoch the universe reached.
type ApplyResponse struct {
	Epoch uint64 `json:"epoch"`
}

// MemberHealthResponse is one backend member's state in GET /v1/stats: a
// pool shard ("pool/3"). CrashLoop marks a sticky
// bench: the member exhausted its rebuild budget and stays out until POST
// /v1/rebuild.
type MemberHealthResponse struct {
	Name        string `json:"name"`
	Quarantined bool   `json:"quarantined"`
	CrashLoop   bool   `json:"crashloop,omitempty"`
	Epoch       uint64 `json:"epoch"`
	Error       string `json:"error,omitempty"`
}

// RebuildResponse is the wire form of POST /v1/rebuild: the members or
// shards the operator override healed (empty when nothing was benched).
type RebuildResponse struct {
	Healed []string `json:"healed"`
}

// EncodingResponse is one pool shard's encoder-coverage snapshot in GET
// /v1/stats: how much of the bound universe the solver formula
// actually carries. The materialized counts track the union of subgraphs
// requests have reached — the number that makes registry-scale universes
// servable — and resets counts the deltas that made the session drop its
// encoding to revive a dead version.
type EncodingResponse struct {
	MaterializedPackages int `json:"materialized_packages"`
	UniversePackages     int `json:"universe_packages"`
	SolverVars           int `json:"solver_vars"`
	Resets               int `json:"resets"`
}

// ShardStatsResponse is one pool shard's state in GET /v1/stats: Served
// counts the requests it solved (answer-store hits reach no shard).
type ShardStatsResponse struct {
	Served    uint64           `json:"served"`
	Inflight  int64            `json:"inflight"`
	Broken    bool             `json:"broken,omitempty"`
	CrashLoop bool             `json:"crashloop,omitempty"`
	Encoding  EncodingResponse `json:"encoding"`
}

// PoolStatsResponse is the pool backend's snapshot in GET /v1/stats:
// Hits counts requests its answer store answered, Rebuilds the shards
// returned to service by a rebuild (automatic or operator), plus the
// routing counters and per-shard state. Every backend reports it.
type PoolStatsResponse struct {
	Shards   int                  `json:"shards"`
	Hits     uint64               `json:"hits"`
	Steals   uint64               `json:"steals"`
	Waits    uint64               `json:"waits"`
	Rebuilds uint64               `json:"rebuilds"`
	Panics   uint64               `json:"panics"`
	Broken   int                  `json:"broken"`
	Shard    []ShardStatsResponse `json:"shard"`
}

// ServerStats is the wire form of GET /v1/stats: the process-wide metrics
// registry plus backend observability.
type ServerStats struct {
	Requests  int64 `json:"requests"`
	Coalesced int64 `json:"coalesced"`
	Solves    int64 `json:"solves"`
	CacheHits int64 `json:"cache_hits"`
	Unsat     int64 `json:"unsat"`
	Shed      int64 `json:"shed"`
	Timeouts  int64 `json:"timeouts"`
	Failures  int64 `json:"failures"`
	Applies   int64 `json:"applies"`
	Degraded  int64 `json:"degraded"`
	Retries   int64 `json:"retries"`
	Panics    int64 `json:"panics"`
	Rebuilds  int64 `json:"rebuilds"`

	P50Ms       float64 `json:"latency_p50_ms"`
	P90Ms       float64 `json:"latency_p90_ms"`
	P99Ms       float64 `json:"latency_p99_ms"`
	AvgSolveMs  float64 `json:"avg_solve_ms"`
	Inflight    int     `json:"inflight"`
	Queued      int     `json:"queued"`
	MaxInflight int     `json:"max_inflight"`

	Epoch       uint64                 `json:"epoch"`
	Answers     int                    `json:"answers"` // fresh entries in the backend's answer store
	Faultpoints []string               `json:"faultpoints,omitempty"`
	Members     []MemberHealthResponse `json:"members,omitempty"`
	Pool        *PoolStatsResponse     `json:"pool,omitempty"`
}

// ErrorResponse is the wire form of every non-2xx answer. Kind is a stable
// machine-readable discriminator; Roots carries unsat attribution, Member
// the pool shard that produced the failure.
type ErrorResponse struct {
	Error  string   `json:"error"`
	Kind   string   `json:"kind"`
	Roots  []string `json:"roots,omitempty"`
	Member string   `json:"member,omitempty"`
}

// Admission-control rejections. Both are "shed" on the wire; the status
// code distinguishes hard queue overflow (429) from deadline-infeasible
// waits (503).
var (
	// errShedQueue rejects a request because the admission queue is full.
	errShedQueue = errors.New("serve: admission queue full")
	// errShedWait rejects a request because the estimated queue wait
	// exceeds its deadline, or its deadline fired while queued.
	errShedWait = errors.New("serve: estimated queue wait exceeds request deadline")
)

// toRequest lowers the wire request into a resolve.Request.
func (wr *ResolveRequest) toRequest() (resolve.Request, error) {
	if len(wr.Roots) == 0 {
		return resolve.Request{}, fmt.Errorf("no roots")
	}
	req := resolve.Request{MaxConflicts: wr.MaxConflicts}
	for _, s := range wr.Roots {
		r, err := resolve.ParseRoot(s)
		if err != nil {
			return resolve.Request{}, err
		}
		req.Roots = append(req.Roots, r)
	}
	switch wr.Objective {
	case "", "newest":
		req.Objective = resolve.NewestVersion()
	case "minimal-change":
		prof := make(repo.Profile, len(wr.Installed))
		for pkg, vs := range wr.Installed {
			v, err := version.Parse(vs)
			if err != nil {
				return resolve.Request{}, fmt.Errorf("installed[%s]: %v", pkg, err)
			}
			prof[pkg] = v
		}
		req.Objective = resolve.MinimalChange(prof)
	default:
		return resolve.Request{}, fmt.Errorf("unknown objective %q", wr.Objective)
	}
	return req, nil
}

// toDelta lowers the wire apply body into a repo.Delta, validating every
// version and range string up front (repo.Delta.Add panics on malformed
// literals; wire input must never reach that path).
func (ar *ApplyRequest) toDelta() (*resolve.Delta, error) {
	if len(ar.Adds) == 0 {
		return nil, fmt.Errorf("empty delta")
	}
	d := resolve.NewDelta()
	for i, a := range ar.Adds {
		if a.Pkg == "" {
			return nil, fmt.Errorf("adds[%d]: empty package name", i)
		}
		if _, err := version.Parse(a.Version); err != nil {
			return nil, fmt.Errorf("adds[%d]: %v", i, err)
		}
		var decls []repo.Decl
		for _, dr := range a.Deps {
			dep, err := dr.lower(i)
			if err != nil {
				return nil, err
			}
			decls = append(decls, repo.Dependency(dep))
		}
		for _, dr := range a.Conflicts {
			c, err := dr.lower(i)
			if err != nil {
				return nil, err
			}
			decls = append(decls, repo.Conflict(c))
		}
		for _, pr := range a.Provides {
			v, err := version.Parse(pr.Version)
			if err != nil {
				return nil, fmt.Errorf("adds[%d] provides %s: %v", i, pr.Virtual, err)
			}
			decls = append(decls, repo.Provides{Virtual: pr.Virtual, Version: v})
		}
		d.Add(a.Pkg, a.Version, decls...)
	}
	return d, nil
}

// lower parses one declaration's ranges; the dependency and conflict
// shapes are structurally identical.
func (dr DeclRequest) lower(i int) (repo.Dependency, error) {
	if dr.Pkg == "" {
		return repo.Dependency{}, fmt.Errorf("adds[%d]: declaration with empty target", i)
	}
	rngStr := dr.Range
	if rngStr == "" {
		rngStr = ":" // any version
	}
	rng, err := version.ParseRange(rngStr)
	if err != nil {
		return repo.Dependency{}, fmt.Errorf("adds[%d] %s: %v", i, dr.Pkg, err)
	}
	dep := repo.Dependency{Pkg: dr.Pkg, Range: rng}
	if dr.WhenPkg != "" {
		wrng, err := version.ParseRange(orAny(dr.WhenRange))
		if err != nil {
			return repo.Dependency{}, fmt.Errorf("adds[%d] %s when: %v", i, dr.Pkg, err)
		}
		dep.When = repo.Condition{Pkg: dr.WhenPkg, Range: wrng}
	}
	return dep, nil
}

func orAny(rng string) string {
	if rng == "" {
		return ":"
	}
	return rng
}

// isPanicError reports whether err carries a contained panic.
func isPanicError(err error) bool {
	var pe *resolve.PanicError
	return errors.As(err, &pe)
}

// errorStatus maps the resolver's typed error taxonomy onto HTTP: request
// defects are 4xx, capacity and deadline outcomes distinct 429/503/504,
// contained panics 500 with kind "panic", everything else 500. Attribution
// (unsat roots, pool shard) rides in the body so operators can tell
// *which* shard proved unsat.
func errorStatus(err error) (int, ErrorResponse) {
	resp := ErrorResponse{Error: err.Error()}
	var me *resolve.MemberError
	if errors.As(err, &me) {
		resp.Member = me.Member
	}
	var unknown *resolve.UnknownPackageError
	var unsat *resolve.UnsatError
	switch {
	case errors.As(err, &unknown):
		resp.Kind = "unknown_package"
		return http.StatusBadRequest, resp
	case errors.As(err, &unsat):
		resp.Kind = "unsat"
		for _, r := range unsat.Roots {
			resp.Roots = append(resp.Roots, r.String())
		}
		return http.StatusUnprocessableEntity, resp
	case errors.Is(err, resolve.ErrBudget):
		resp.Kind = "budget"
		return http.StatusServiceUnavailable, resp
	case errors.Is(err, errShedQueue):
		resp.Kind = "shed"
		return http.StatusTooManyRequests, resp
	case errors.Is(err, errShedWait):
		resp.Kind = "shed"
		return http.StatusServiceUnavailable, resp
	case errors.Is(err, context.DeadlineExceeded):
		resp.Kind = "timeout"
		return http.StatusGatewayTimeout, resp
	case errors.Is(err, context.Canceled):
		resp.Kind = "canceled"
		return http.StatusServiceUnavailable, resp
	case errors.Is(err, resolve.ErrNoActiveMembers):
		resp.Kind = "no_members"
		return http.StatusServiceUnavailable, resp
	case isPanicError(err):
		resp.Kind = "panic"
		return http.StatusInternalServerError, resp
	default:
		resp.Kind = "internal"
		return http.StatusInternalServerError, resp
	}
}
