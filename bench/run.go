package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/paper-repo-growth/go-arxiv/serve"
)

// runConfig is one benchmark run.
type runConfig struct {
	w       *workload
	seed    int64
	seconds time.Duration
	trace   bool
	size    sizing
}

// daemonHandle is a started daemon or echo helper: its two base URLs (the
// same one twice for the helper) and a stop that returns once it has
// exited.
type daemonHandle interface {
	urls() (serveURL, controlURL string)
	stop() error
}

// starter starts what a run talks to: the daemon serving a family, and the
// echo helper that calibration times. Runs start child processes; the
// package test starts in-process servers.
type starter struct {
	daemon func(f family, trace bool) (daemonHandle, error)
	echo   func() (daemonHandle, error)
}

var childProcs = starter{daemon: spawnDaemon, echo: spawnEcho}

// record is one measured op as the client saw it.
type record struct {
	apply      bool
	id         uint64        // trace ID; 0 when untraced
	start, end time.Duration // client clock, from the run origin
	failed     bool          // non-2xx, transport error, degraded or wrong
	wrong      bool
	stats      serve.StatsResponse
	config     string
}

func (r record) dur() time.Duration { return r.end - r.start }

// observed is everything a run collected, before it is reduced to metrics.
type observed struct {
	cfg       runConfig
	setups    []time.Duration
	prewarm   []record // ops sent before the clock started
	records   []record
	elapsed   time.Duration
	rtBefore  runtimeSnapshot
	rtAfter   runtimeSnapshot
	heap      runtimeSnapshot // taken after a forced GC
	stBefore  serve.ServerStats
	stAfter   serve.ServerStats
	info      daemonInfo
	spans     []span // daemon spans
	cal       calibration
	refs      int // reference re-resolves
	refsWrong int
	chk       *checker
}

// httpClient is one closed-loop connection: at most one TCP connection,
// kept alive across requests.
type httpClient struct {
	hc   *http.Client
	base string
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{hc: &http.Client{Transport: tr}, base: base}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// post sends body and decodes a 200 answer into out. A non-200 status is
// returned without error; transport and decode failures are errors.
func (c *httpClient) post(path string, body []byte, id uint64, out any) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	return c.roundTrip(req, out)
}

func (c *httpClient) get(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	status, err := c.roundTrip(req, out)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, status)
	}
	return err
}

func (c *httpClient) roundTrip(req *http.Request, out any) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK || out == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// runner drives one workload against one daemon.
type runner struct {
	origin time.Time
	chk    *checker
	cal    *calibrator
}

func (r *runner) exec(c *httpClient, o op, id uint64) record {
	rec := record{apply: o.d != nil, id: id, start: time.Since(r.origin)}
	if o.d != nil {
		var ar serve.ApplyResponse
		status, err := c.post("/v1/apply", o.d.body, id, &ar)
		rec.end = time.Since(r.origin)
		switch {
		case err != nil || status != http.StatusOK:
			rec.failed = true
			r.chk.note("apply %s@%s: status %d, %v", o.d.pkg, o.d.version, status, err)
		case !r.chk.applied(o.d, ar.Epoch):
			rec.failed, rec.wrong = true, true
		}
		return rec
	}
	var rr serve.ResolveResponse
	status, err := c.post("/v1/resolve", o.sh.body, id, &rr)
	rec.end = time.Since(r.origin)
	switch {
	case err != nil || status != http.StatusOK:
		rec.failed = true
		r.chk.note("resolve %s: status %d, %v", o.sh.key, status, err)
	case !r.chk.resolved(o.sh, &rr):
		rec.failed, rec.wrong = true, true
	}
	rec.stats, rec.config = rr.Stats, rr.Config
	return rec
}

// traceBlock is how many consecutive ops share one tracing state: a traced
// run alternates traced and untraced blocks, so the untraced half measures
// what tracing costs. publish-churn's publish is the last op of each block.
const traceBlock = churnCycle

// overrun bounds a run on a system that has become much slower than the
// workload's rate assumes: measuring stops at overrun times --seconds.
const overrun = 3

// measure runs the workload's fixed op count through the script's closed
// loops: the same work on every run and every commit. The first connection
// also runs the calibration bursts, between its requests.
func (r *runner) measure(base string, sc *script, cfg runConfig) ([]record, time.Duration) {
	conns := cfg.w.conns
	n := max(1, int(cfg.w.rate*cfg.seconds.Seconds()))
	perConn := make([][]record, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newHTTPClient(base)
			defer cl.close()
			for i := 0; i < n && time.Since(start) < overrun*cfg.seconds; i++ {
				if c == 0 {
					r.cal.tick()
				}
				o, ok := sc.at(i)
				if !ok {
					return
				}
				var id uint64
				if cfg.trace && (i/traceBlock)%2 == 0 {
					id = uint64(i*conns + c + 1)
				}
				perConn[c] = append(perConn[c], r.exec(cl, o, id))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []record
	for _, recs := range perConn {
		all = append(all, recs...)
	}
	return all, elapsed
}

// bringUp starts a daemon and times it from spawn to the first 200 from
// /healthz.
func bringUp(start starter, f family, trace bool) (daemonHandle, time.Duration, error) {
	t0 := time.Now()
	d, err := start.daemon(f, trace)
	if err != nil {
		return nil, 0, err
	}
	serveURL, _ := d.urls()
	cl := newHTTPClient(serveURL)
	defer cl.close()
	for {
		resp, err := cl.hc.Get(serveURL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > time.Minute {
			d.stop()
			return nil, 0, fmt.Errorf("daemon not healthy after a minute: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// setupGap spaces the timed spawns apart, so one short burst of machine
// noise does not set their median.
const setupGap = 150 * time.Millisecond

// run performs one benchmark run: set-up timed cfg.size.setups times, the
// prewarm, the measured loops, the daemon's counters, and the reference
// pass once the daemon is gone. Calibration bursts fill the gaps between
// set-ups and run alongside the measured loops.
func run(ctx context.Context, cfg runConfig, start starter) (ob *observed, err error) {
	streamSeed := cfg.seed
	if !cfg.w.seeded {
		streamSeed = fixedStreamSeed
	}
	sc := cfg.w.build(rand.New(rand.NewSource(streamSeed)), cfg.size)
	ob = &observed{cfg: cfg, chk: newChecker()}

	echo, err := start.echo()
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := echo.stop(); err == nil && serr != nil {
			ob, err = nil, serr
		}
	}()
	echoURL, _ := echo.urls()
	cal := &calibrator{cl: newHTTPClient(echoURL)}
	defer cal.cl.close()

	var d daemonHandle
	for range max(1, cfg.size.setups) {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			cal.pause(setupGap)
		}
		var setup time.Duration
		if d, setup, err = bringUp(start, cfg.w.family, cfg.trace); err != nil {
			return nil, err
		}
		ob.setups = append(ob.setups, setup)
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	serveURL, controlURL := d.urls()
	srv, ctl := newHTTPClient(serveURL), newHTTPClient(controlURL)
	defer srv.close()
	defer ctl.close()

	r := &runner{origin: time.Now(), chk: ob.chk, cal: cal}
	for _, o := range sc.prewarm {
		ob.prewarm = append(ob.prewarm, r.exec(srv, o, 0))
	}

	if err := ctl.get("/bench/runtime", &ob.rtBefore); err != nil {
		return nil, err
	}
	if err := srv.get("/v1/stats", &ob.stBefore); err != nil {
		return nil, err
	}
	ob.records, ob.elapsed = r.measure(serveURL, sc, cfg)
	if cal.err != nil {
		return nil, fmt.Errorf("calibration round trip: %w", cal.err)
	}
	ob.cal = cal.result()
	if err := ctl.get("/bench/runtime", &ob.rtAfter); err != nil {
		return nil, err
	}
	for _, step := range []struct {
		get  func(string, any) error
		path string
		out  any
	}{
		{srv.get, "/v1/stats", &ob.stAfter},
		{ctl.get, "/bench/runtime?gc=1", &ob.heap},
		{ctl.get, "/bench/info", &ob.info},
		{ctl.get, "/bench/spans", &ob.spans},
	} {
		if err := step.get(step.path, step.out); err != nil {
			return nil, err
		}
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}

	ob.refs, ob.refsWrong, err = ob.chk.reference(ctx, cfg.w.family, cfg.w.exact, cfg.size.refs, rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}
	return ob, nil
}
