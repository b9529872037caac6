// Command bench is the repository's end-to-end benchmark. It starts the
// daemon in a child process — wired as `goarxivd serve` wires it — drives
// one seeded workload against it over loopback HTTP, checks every answer,
// and prints one JSON result line:
//
//	bench [run] -workload W -seed S [-seconds N] [-trace 0|1] [-out DIR]
//	bench compare [-spec BENCHMARK.json] A/ B/
//
// An untraced run reports the end-to-end metrics; a traced run (-trace 1)
// reports the per-layer ones. Times are scaled to a reference machine speed
// measured during the run (see calibrate.go). `bench compare` judges a change's runs (B)
// against its parent's (A). See README.md for the workloads, the metrics
// and how to read a comparison.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && (args[0] == "run" || args[0] == "compare" || args[0] == "daemon" || args[0] == "echo") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = runMain(args)
	case "compare":
		err = runCompare(args, os.Stdout)
	case "daemon":
		err = runDaemon(args)
	case "echo":
		err = runEcho()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (warm-hits|cold-fanout|publish-churn|reuse-swap)")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "run length: each workload sends a fixed number of ops per second of it")
	trace := fs.Int("trace", 0, "1: record spans and report the per-layer metrics")
	out := fs.String("out", "", "directory to write the run's full record (and, traced, its spans) to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	// The load generator keeps to one core so the daemon has one of its own.
	runtime.GOMAXPROCS(1)
	cfg := runConfig{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, size: fullSize}
	ob, err := run(context.Background(), cfg, childProcs)
	if err != nil {
		return err
	}
	res, all := reduce(ob)
	for _, n := range ob.chk.notes {
		fmt.Fprintln(os.Stderr, "bench: check:", n)
	}
	if *out != "" {
		if err := writeRecord(*out, ob, res, all); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runRecord is a run's full record, as `bench compare` reads it back.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

// writeRecord writes DIR/<workload>-<seed>[-trace].json and, for a traced
// run, the client and daemon spans as DIR/<workload>-<seed>.spans.jsonl.
func writeRecord(dir string, ob *observed, res result, all map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%d", ob.cfg.w.name, ob.cfg.seed))
	rec := runRecord{
		Workload: ob.cfg.w.name, Seed: ob.cfg.seed, Seconds: ob.cfg.seconds.Seconds(), Trace: ob.cfg.trace,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: all, Notes: ob.chk.notes,
	}
	name := base + ".json"
	if ob.cfg.trace {
		name = base + "-trace.json"
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !ob.cfg.trace {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type procSpan struct {
		Proc string `json:"proc"`
		span
	}
	var spans []procSpan
	for _, r := range ob.records {
		if r.id != 0 {
			spans = append(spans, procSpan{"client", span{ID: r.id, Layer: layerClient, Start: int64(r.start), End: int64(r.end)}})
		}
	}
	for _, s := range ob.spans {
		spans = append(spans, procSpan{"daemon", s})
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
