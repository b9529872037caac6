package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// testSize runs every workload at about a hundredth of a real run: a few
// roots near the cheap block tails, a few reference re-resolves, one
// daemon start.
var testSize = sizing{hot: 4, positions: []int{44, 45, 46, 47}, churnRoots: 2, refs: 4, setups: 1}

type inProcess struct{ serve, control *httptest.Server }

func (p inProcess) urls() (string, string) { return p.serve.URL, p.control.URL }

func (p inProcess) stop() error {
	p.serve.Close()
	if p.control != p.serve {
		p.control.Close()
	}
	return nil
}

func startInProcess(f family, trace bool) (daemonHandle, error) {
	d, err := newDaemon(f, trace)
	if err != nil {
		return nil, err
	}
	return inProcess{httptest.NewServer(d.serve), httptest.NewServer(d.control())}, nil
}

func startEchoInProcess() (daemonHandle, error) {
	s := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	return inProcess{s, s}, nil
}

var inProcessStarter = starter{daemon: startInProcess, echo: startEchoInProcess}

// benchmarkSpec is the part of BENCHMARK.json the test holds the code to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp benchmarkSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpecMatchesCode(t *testing.T) {
	sp := loadSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		spec []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", sp.EndToEnd, endToEnd}, {"per_layer", sp.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", c.kind, len(c.spec), len(c.code))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", c.kind, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestWorkloads runs each workload traced against an in-process daemon and
// checks that every answer passed, the reference pass ran, and both the
// per-layer result and the end-to-end result reduced from the same run
// carry every metric BENCHMARK.json names.
func TestWorkloads(t *testing.T) {
	sp := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{w: w, seed: 7, seconds: 500 * time.Millisecond, trace: true, size: testSize}
			ob, err := run(context.Background(), cfg, inProcessStarter)
			if err != nil {
				t.Fatal(err)
			}
			res, all := reduce(ob)
			if !res.Correct || res.Failed != 0 || ob.refs == 0 {
				t.Fatalf("correct=%v failed=%d references=%d notes=%q", res.Correct, res.Failed, ob.refs, ob.chk.notes)
			}
			for _, m := range sp.PerLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("traced run lacks %s", m.Name)
				}
			}
			ob.cfg.trace = false
			untraced, _ := reduce(ob)
			for _, m := range sp.EndToEnd {
				v, ok := untraced.Metrics[m.Name]
				if !ok || v.Value <= 0 || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end %s = %v (present %v), want a positive value", m.Name, v.Value, ok)
				}
			}
			if all["calib.round_trip_us"] <= 0 {
				t.Error("no calibration round trip timed")
			}
			if w.name == "publish-churn" && all["e2e.apply_p50_ms"] <= 0 {
				t.Error("publish-churn measured no publish")
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) and ([3, 1, 2], n=4).
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	runs := func(vals ...float64) map[int64]runRecord {
		m := map[int64]runRecord{}
		for i, v := range vals {
			m[int64(i)] = runRecord{Metrics: map[string]float64{"x": v}}
		}
		return m
	}
	steady := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name   string
		change map[int64]runRecord
		higher bool
		want   string
	}{
		{"faster in every pair", runs(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), false, "better"},
		{"slower beyond the bound", runs(115, 116, 114, 115, 117, 113, 115, 116, 114, 115), false, "worse"},
		{"within the bound", runs(103, 104, 102, 103, 105, 101, 103, 104, 102, 103), false, "same"},
		{"spread wider than the bound", runs(60, 140, 70, 130, 80, 120, 90, 110, 65, 135), false, "unresolved"},
		{"higher is better", runs(85, 86, 84, 85, 87, 83, 85, 86, 84, 85), true, "worse"},
	} {
		if got := judge(steady, c.change, "x", c.higher, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
