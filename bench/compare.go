package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the fewest seed-matched pairs a gain may rest on.
const minPairs = 10

var errRegressed = errors.New("regression or failed runs")

// runCompare judges the untraced runs in dir B (a change) against those in
// dir A (its parent), per workload and end-to-end metric. Runs pair up by
// workload and seed. A metric is
//
//   - better: at least 10 pairs, the change wins at least 9 in 10 of them
//     (ties count for neither side), and the medians differ by more than
//     the parent's interquartile range;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - unresolved: either side's runs spread wider than the bound (quartile
//     distance over median), unless every change run beats every parent
//     run;
//   - same: none of these.
//
// Any failed or incorrect run of the change is reported too. It returns
// errRegressed when a metric is worse or a change run failed.
func runCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: bench compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	a, err := loadRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRecords(fs.Arg(1))
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\twins\tverdict")
	bad := false
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, r := range rb {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(tw, "%s\t(runs)\t\t\tseed %d: correct=%v failed=%d\t\t\tFAILED\n", wl.name, r.Seed, r.Correct, r.Failed)
				bad = true
			}
		}
		for _, m := range sp.EndToEnd {
			v := judge(ra, rb, m.Name, m.Better == "higher", m.Bound)
			if v.verdict == "worse" {
				bad = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\n",
				wl.name, m.Name, v.pairs, v.a[1], v.a[0], v.a[2], v.b[1], v.b[0], v.b[2], 100*v.delta, v.wins, v.pairs, v.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad {
		return errRegressed
	}
	return nil
}

// loadRecords reads every untraced run record in dir, by workload and seed.
func loadRecords(dir string) (map[string]map[int64]runRecord, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[int64]runRecord{}
	for _, n := range names {
		data, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		var r runRecord
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		if r.Trace || r.Workload == "" {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[int64]runRecord{}
		}
		out[r.Workload][r.Seed] = r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced run records", dir)
	}
	return out, nil
}

type judgement struct {
	a, b    [3]float64 // q1, median, q3
	pairs   int
	wins    int
	delta   float64 // (change - parent) / parent median
	verdict string
}

func judge(ra, rb map[int64]runRecord, metric string, higher bool, bound float64) judgement {
	var j judgement
	var va, vb []float64
	for _, r := range ra {
		va = append(va, r.Metrics[metric])
	}
	for _, r := range rb {
		vb = append(vb, r.Metrics[metric])
	}
	better := func(x, y float64) bool { return (higher && x > y) || (!higher && x < y) }
	for seed, r := range rb {
		if p, ok := ra[seed]; ok {
			j.pairs++
			if better(r.Metrics[metric], p.Metrics[metric]) {
				j.wins++
			}
		}
	}
	j.a, j.b = quartiles(va), quartiles(vb)
	if j.a[1] == 0 {
		j.verdict = "unresolved"
		return j
	}
	j.delta = (j.b[1] - j.a[1]) / j.a[1]
	worse := j.delta
	if higher {
		worse = -worse
	}
	spreadA := (j.a[2] - j.a[0]) / j.a[1]
	spreadB := 0.0
	if j.b[1] != 0 {
		spreadB = (j.b[2] - j.b[0]) / j.b[1]
	}
	allBetter := slices.IndexFunc(vb, func(x float64) bool {
		return slices.IndexFunc(va, func(y float64) bool { return !better(x, y) }) >= 0
	}) < 0
	switch {
	case (spreadA > bound || spreadB > bound) && !allBetter:
		j.verdict = "unresolved"
	case j.pairs >= minPairs && 10*j.wins >= 9*j.pairs && better(j.b[1], j.a[1]) && math.Abs(j.b[1]-j.a[1]) > j.a[2]-j.a[0]:
		j.verdict = "better"
	case worse > bound:
		j.verdict = "worse"
	default:
		j.verdict = "same"
	}
	return j
}

// quartiles returns q1, median and q3 as Python's
// statistics.quantiles(data, n=4) computes them (the "exclusive" method);
// a single value is all three.
func quartiles(xs []float64) [3]float64 {
	d := sortedOf(xs)
	switch len(d) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	const n = 4
	m := len(d) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q
}
