package resolve_test

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/resolve"
)

// Example mirrors the README quickstart: build a universe, stand up a
// single-session pool, and answer a deadline-bounded request.
func Example() {
	u := repo.New()
	u.Add("app", "2.0", repo.Dep("zlib", "1.2:"), repo.Dep("ssl", ":"))
	u.Add("app", "1.0", repo.Dep("zlib", ":"))
	u.Add("zlib", "1.3")
	u.Add("zlib", "1.2")
	u.Add("ssl", "3.0", repo.Confl("zlib", ":1.2"))
	u.Add("ssl", "1.1")

	r := resolve.NewPoolResolver(u, 1, resolve.SessionOptions{})

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	root, _ := resolve.ParseRoot("app@2:")
	res, err := r.Resolve(ctx, resolve.Request{Roots: []resolve.Root{root}})
	if err != nil {
		panic(err)
	}

	pkgs := make([]string, 0, len(res.Picks))
	for pkg := range res.Picks {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		fmt.Printf("%s@%s\n", pkg, res.Picks[pkg])
	}
	// Output:
	// app@2.0
	// ssl@3.0
	// zlib@1.3
}
