package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/paper-repo-growth/go-arxiv/resolve"
	"github.com/paper-repo-growth/go-arxiv/serve"
)

// runServe starts the daemon over a synthetic universe and blocks until
// SIGINT/SIGTERM, then drains connections gracefully.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	family := fs.String("family", "dense", "synthetic universe family (dense|diamond|chain|virtual|conditional|registry)")
	pkgs := fs.Int("pkgs", 40, "family size (packages / width / length / virtuals)")
	vers := fs.Int("vers", 8, "versions per package")
	shards := fs.Int("shards", 0, "pool width (0: GOMAXPROCS capped at 8; 1: a single session)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrent backend solves (0: GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 0, "max queued leaders before 429 (0: 4x max-inflight)")
	timeout := fs.Duration("timeout", 10*time.Second, "default per-request timeout")
	maxTimeout := fs.Duration("max-timeout", 60*time.Second, "cap on client-requested timeouts")
	if err := fs.Parse(args); err != nil {
		return err
	}

	u, root, err := buildUniverse(*family, *pkgs, *vers)
	if err != nil {
		return err
	}
	b := resolve.NewPoolResolver(u, *shards, resolve.SessionOptions{})
	s := serve.New(b, serve.Options{
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	})

	hs := &http.Server{Addr: *addr, Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	hint := *addr
	if len(hint) > 0 && hint[0] == ':' {
		hint = "localhost" + hint
	}
	fmt.Printf("goarxivd: serving %s (%d pkgs, %d versions, %d shards) on %s — try:\n", *family, *pkgs, *vers, len(b.Health()), *addr)
	fmt.Printf("  curl -s -X POST %s/v1/resolve -d '{\"roots\":[%q]}'\n", hint, root)
	fmt.Printf("  curl -s %s/v1/stats\n", hint)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("goarxivd: %v — draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}
