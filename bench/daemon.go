package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/resolve"
	"github.com/paper-repo-growth/go-arxiv/serve"
)

// family names a synthetic universe. Its kind also fixes the backend the
// daemon serves it with: registry universes sit behind the sharded pool,
// virtual ones behind the portfolio race. Both processes build it — the
// daemon to serve, the load generator to replay deltas for reference
// answers.
type family struct {
	kind string // "registry" or "virtual"
	dims []int  // registry: pkgs, versions; virtual: virtuals, providers, versions
}

func (f family) String() string {
	s := f.kind
	for _, d := range f.dims {
		s += ":" + strconv.Itoa(d)
	}
	return s
}

func parseFamily(s string) (family, error) {
	parts := strings.Split(s, ":")
	f := family{kind: parts[0]}
	for _, p := range parts[1:] {
		d, err := strconv.Atoi(p)
		if err != nil || d < 1 {
			return family{}, fmt.Errorf("family %q: bad dimension %q", s, p)
		}
		f.dims = append(f.dims, d)
	}
	switch {
	case f.kind == "registry" && len(f.dims) == 2 && f.dims[0] >= 2:
	case f.kind == "virtual" && len(f.dims) == 3:
	default:
		return family{}, fmt.Errorf("unknown family %q (registry:PKGS:VERS or virtual:VIRTS:PROVS:VERS)", s)
	}
	return f, nil
}

func (f family) universe() *repo.Universe {
	if f.kind == "registry" {
		u, _ := repo.SynthRegistry(f.dims[0], f.dims[1])
		return u
	}
	u, _ := repo.SynthVirtualDiamond(f.dims[0], f.dims[1], f.dims[2])
	return u
}

// daemonInfo is the daemon's own set-up cost, split by layer.
type daemonInfo struct {
	BuildS     float64 `json:"build_s"`     // repo: synthesizing the universe
	ConstructS float64 `json:"construct_s"` // resolve: building the backend
}

// daemon is one served backend, wired exactly as `goarxivd serve` wires it:
// serve.New with default options over a default-option pool or portfolio.
// A traced daemon additionally records spans for requests that carry a
// request ID; the serving path itself is unchanged.
type daemon struct {
	serve http.Handler // the daemon's public HTTP surface
	tr    *tracer      // nil when untraced
	info  daemonInfo
}

func newDaemon(f family, trace bool) (*daemon, error) {
	d := &daemon{}
	if trace {
		d.tr = newTracer()
	}
	t0 := time.Now()
	u := f.universe()
	t1 := time.Now()
	var b serve.Backend
	switch f.kind {
	case "registry":
		p := resolve.NewPoolResolver(u, 0, resolve.SessionOptions{})
		b = p
		if trace {
			b = tracedPool{p, d.tr}
		}
	default:
		p, err := resolve.NewPortfolioResolver(u, resolve.DefaultPortfolio()...)
		if err != nil {
			return nil, err
		}
		b = p
		if trace {
			b = tracedPortfolio{p, d.tr}
		}
	}
	t2 := time.Now()
	d.info = daemonInfo{BuildS: t1.Sub(t0).Seconds(), ConstructS: t2.Sub(t1).Seconds()}
	d.serve = serve.New(b, serve.Options{}).Handler()
	if trace {
		d.serve = d.tr.handler(d.serve)
	}
	return d, nil
}

// runtimeSnapshot is the daemon's process-level cost at one instant.
type runtimeSnapshot struct {
	CPUNs      int64  `json:"cpu_ns"` // user + system CPU time of the process
	TotalAlloc uint64 `json:"total_alloc"`
	NumGC      uint32 `json:"num_gc"`
	HeapAlloc  uint64 `json:"heap_alloc"` // live heap when taken after a GC
}

func takeRuntimeSnapshot(gc bool) runtimeSnapshot {
	if gc {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	var cpu int64
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return runtimeSnapshot{CPUNs: cpu, TotalAlloc: ms.TotalAlloc, NumGC: ms.NumGC, HeapAlloc: ms.HeapAlloc}
}

// control is the benchmark's side channel into the daemon, served on its
// own port so the measured port carries nothing but the serve surface.
func (d *daemon) control() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /bench/info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.info)
	})
	mux.HandleFunc("GET /bench/runtime", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, takeRuntimeSnapshot(r.URL.Query().Get("gc") == "1"))
	})
	mux.HandleFunc("GET /bench/spans", func(w http.ResponseWriter, r *http.Request) {
		var spans []span
		if d.tr != nil {
			spans = d.tr.snapshot()
		}
		writeJSON(w, spans)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// readyLine is what a child process prints once its ports accept.
const readyLine = "bench-child serve=%s control=%s\n"

// runDaemon is the child-process entry point (`bench daemon -family F
// [-trace]`): it serves until SIGTERM.
func runDaemon(args []string) error {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	fam := fs.String("family", "", "universe family, e.g. registry:600:8")
	trace := fs.Bool("trace", false, "record spans for requests carrying "+reqHeader)
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := parseFamily(*fam)
	if err != nil {
		return err
	}
	// Take over SIGTERM before announcing readiness: the parent may stop a
	// daemon the moment it answers.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	d, err := newDaemon(f, *trace)
	if err != nil {
		return err
	}
	return serveUntilSignal(sigc, d.serve, d.control())
}

// runEcho is the echo helper's entry point (`bench echo`): one port that
// answers every request with an empty 200, until SIGTERM. Calibration times
// round trips to it.
func runEcho() error {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	return serveUntilSignal(sigc, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
}

// serveUntilSignal serves each handler on its own loopback port, prints the
// ready line naming the first port as serve and the last as control, and
// returns once a signal arrives and every server has drained.
func serveUntilSignal(sigc <-chan os.Signal, handlers ...http.Handler) error {
	var ls []net.Listener
	for range handlers {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range ls {
				l.Close()
			}
			return err
		}
		ls = append(ls, l)
	}
	servers := make([]*http.Server, len(handlers))
	errc := make(chan error, len(servers))
	var wg sync.WaitGroup
	for i, h := range handlers {
		servers[i] = &http.Server{Handler: h}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := servers[i].Serve(ls[i]); !errors.Is(err, http.ErrServerClosed) {
				errc <- err
			}
		}()
	}
	fmt.Printf(readyLine, ls[0].Addr(), ls[len(ls)-1].Addr())

	var err error
	select {
	case <-sigc:
	case err = <-errc:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range servers {
		s.Shutdown(ctx)
	}
	wg.Wait()
	return err
}

// childProc is a daemon or the echo helper, running as a child process of
// this binary.
type childProc struct {
	name              string // the subcommand: "daemon" or "echo"
	cmd               *exec.Cmd
	serveURL, control string
}

func (p *childProc) urls() (string, string) { return p.serveURL, p.control }

// stop asks the child to drain and waits for it, killing it if it has not
// exited within ten seconds.
func (p *childProc) stop() error {
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("stopping %s: %w", p.name, err)
	}
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s exit: %w", p.name, err)
		}
		return nil
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s ignored SIGTERM for 10s; killed", p.name)
	}
}

// spawnDaemon starts `bench daemon` serving the family.
func spawnDaemon(f family, trace bool) (daemonHandle, error) {
	args := []string{"-family", f.String()}
	if trace {
		args = append(args, "-trace")
	}
	return spawnChild("daemon", args...)
}

// spawnEcho starts `bench echo`.
func spawnEcho() (daemonHandle, error) { return spawnChild("echo") }

// spawnChild re-executes this binary as `bench name args...` and waits for
// its ready line. The child dies with its parent (Pdeathsig), so an aborted
// run leaves nothing behind.
func spawnChild(name string, args ...string) (*childProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append([]string{name}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &childProc{name: name, cmd: cmd}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err == nil {
		_, err = fmt.Sscanf(line, readyLine, &p.serveURL, &p.control)
	}
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("%s did not start: %v", name, err)
	}
	p.serveURL, p.control = "http://"+p.serveURL, "http://"+p.control
	return p, nil
}
