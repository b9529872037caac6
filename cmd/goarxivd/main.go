// Command goarxivd is the go-arxiv serving daemon and its ops toolbox.
//
// Subcommands:
//
//	serve   start the HTTP daemon over a synthetic universe
//	doctor  run self-checks across the synthetic families and the daemon
//
// Run `goarxivd <subcommand> -h` for flags.
package main

import (
	"fmt"
	"os"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/resolve"
	"github.com/paper-repo-growth/go-arxiv/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(os.Args[2:])
	case "doctor":
		err = runDoctor(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "goarxivd: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "goarxivd %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `goarxivd — go-arxiv serving daemon

usage:
  goarxivd serve  [-addr :8080] [-family dense] [-pkgs 40] [-vers 8] [-backend portfolio] [-shards 0] ...
  goarxivd doctor

`)
}

// buildUniverse constructs one of the deterministic synthetic families,
// returning the universe and its canonical root package.
func buildUniverse(family string, pkgs, vers int) (*repo.Universe, string, error) {
	switch family {
	case "dense":
		u, root := repo.SynthDense(pkgs, vers, 3, 42)
		return u, root, nil
	case "diamond":
		u, root := repo.SynthDiamond(pkgs, vers)
		return u, root, nil
	case "chain":
		u, root := repo.SynthChain(pkgs, vers)
		return u, root, nil
	case "virtual":
		u, root := repo.SynthVirtualDiamond(pkgs, 2, vers)
		return u, root, nil
	case "conditional":
		u, root := repo.SynthConditionalChain(pkgs, vers)
		return u, root, nil
	case "registry":
		u, root := repo.SynthRegistry(pkgs, vers)
		return u, root, nil
	default:
		return nil, "", fmt.Errorf("unknown family %q (dense|diamond|chain|virtual|conditional|registry)", family)
	}
}

// buildBackend wires a resolve backend over the universe; shards sizes the
// pool backend (0: GOMAXPROCS capped at 8; 1: a single session).
func buildBackend(kind string, u *repo.Universe, shards int) (serve.Backend, error) {
	switch kind {
	case "portfolio":
		return resolve.NewPortfolioResolver(u, resolve.DefaultPortfolio()...)
	case "pool":
		return resolve.NewPoolResolver(u, shards, resolve.SessionOptions{}), nil
	default:
		return nil, fmt.Errorf("unknown backend %q (portfolio|pool)", kind)
	}
}
