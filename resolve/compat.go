package resolve

import "github.com/paper-repo-growth/go-arxiv/internal/repo"

// The names below are kept so the end-to-end benchmark (bench/) compiles
// unchanged until it builds its reuse-swap daemon on NewPoolResolver
// directly (ROADMAP item 7(c)). PortfolioResolver, DefaultPortfolio and
// NewPortfolioResolver have no other caller.

// SessionOptions carries no option: every shard runs the one search
// configuration. It is kept for bench/ until ROADMAP 7(c), and for
// NewPoolResolver's third parameter.
type SessionOptions struct{}

// PortfolioResolver is the single-session pool. It is kept for bench/
// until ROADMAP 7(c).
type PortfolioResolver = PoolResolver

// DefaultPortfolio returns no configuration: there is one. It is kept for
// bench/ until ROADMAP 7(c).
func DefaultPortfolio() []SessionOptions { return nil }

// NewPortfolioResolver returns a single-session pool, NewPoolResolver(u,
// 1, SessionOptions{}), and a nil error. It is kept for bench/ until
// ROADMAP 7(c).
func NewPortfolioResolver(u *repo.Universe, _ ...SessionOptions) (*PortfolioResolver, error) {
	return NewPoolResolver(u, 1, SessionOptions{}), nil
}
