package main

import (
	"math"
	"slices"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names;
// the package test holds the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the daemon sees, measured with tracing off.
// Every time and rate, here and in perLayer, is reported at the reference
// machine speed: see calibrate.go and scaleTimes.
var endToEnd = []metricDef{
	{"setup_s", "s"},          // daemon spawn to first 200 from /healthz, median of the run's spawns
	{"read_p50_ms", "ms"},     // resolve round trip as the client sees it
	{"ops_per_s", "1/s"},      // resolves and publishes completed per second
	{"cpu_ms_per_op", "ms"},   // daemon user+system CPU per op
	{"daemon_heap_mb", "MiB"}, // daemon live heap after a GC at the end of the run
}

// portfolioMembers are resolve.DefaultPortfolio's member names.
var portfolioMembers = []string{"baseline", "positive", "dive", "steady"}

// perLayer comes from a traced run. A "miss" is a resolve answered by a
// solve: neither a solution-cache hit nor a coalesced follower.
var perLayer = []metricDef{
	{"client.self_us_p50", "us"}, // client span minus serve span
	{"serve.self_us_p50", "us"},  // serve span minus resolve span, on leaders
	{"serve.self_us_p99", "us"},
	{"serve.follower_wait_ms_p50", "ms"}, // serve span of coalesced followers
	{"serve.coalesced_frac", "frac"},     // share of resolves coalesced onto a leader
	{"serve.apply_self_us_p50", "us"},    // serve span minus backend apply span
	{"serve.shed", "count"},              // /v1/stats counters over the measured window
	{"serve.retries", "count"},
	{"serve.degraded", "count"},
	{"serve.timeouts", "count"},
	{"resolve.hit_us_p50", "us"},  // resolve span of cache hits
	{"resolve.miss_ms_p50", "ms"}, // resolve span of misses
	{"resolve.miss_ms_p95", "ms"},
	{"resolve.apply_ms_p50", "ms"}, // backend apply span
	{"resolve.apply_ms_p90", "ms"},
	{"resolve.pool_steals", "count"}, // pool routing counters over the measured window
	{"resolve.pool_waits", "count"},
	{"resolve.winner_frac.baseline", "frac"}, // share of misses each portfolio member won
	{"resolve.winner_frac.positive", "frac"},
	{"resolve.winner_frac.dive", "frac"},
	{"resolve.winner_frac.steady", "frac"},
	{"resolve.construct_s", "s"},                 // backend construction in the daemon
	{"repo.build_s", "s"},                        // universe synthesis in the daemon
	{"concretize.solve_calls_per_miss", "count"}, // from the answers' stats
	{"concretize.improvements_per_miss", "count"},
	{"concretize.packages_per_miss", "count"},
	{"sat.conflicts_per_miss", "count"},
	{"sat.decisions_per_miss", "count"},
	{"sat.propagations_per_miss", "count"},
	{"concretize.cache_hit_frac", "frac"},         // share of solved-or-cached resolves from the cache
	{"concretize.memo_hit_frac", "frac"},          // share of misses reusing a banked bound
	{"concretize.invalidated_per_apply", "count"}, // cached answers a publish dropped
	{"concretize.solver_vars", "count"},           // pool shards' solver variables at the end
	{"concretize.materialized_pkgs", "count"},     // pool shards' encoded packages at the end
	{"runtime.alloc_kb_per_op", "KiB"},            // daemon allocation per op
	{"runtime.gc_cycles_per_kop", "count"},        // daemon GC cycles per 1000 ops
	{"trace.overhead_frac", "frac"},               // traced over untraced mean resolve latency, minus 1
	{"e2e.read_p95_ms", "ms"},                     // resolve round trip tail, too unsteady between runs to bound
	{"e2e.read_p99_ms", "ms"},
	{"e2e.apply_p50_ms", "ms"}, // publish round trip as the client sees it
	{"e2e.apply_p90_ms", "ms"},
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile interpolates linearly between the order statistics of sorted
// samples; 0 when there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedOf(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func frac(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// reduce turns a run's observations into its result: every metric it can
// compute, by name. Span-derived metrics exist only for traced runs.
func reduce(ob *observed) (result, map[string]float64) {
	m := map[string]float64{}
	var reads, applies []record
	for _, r := range ob.records {
		if r.apply {
			applies = append(applies, r)
		} else {
			reads = append(reads, r)
		}
	}
	failed, wrong := ob.refsWrong, ob.refsWrong
	for _, r := range append(ob.prewarm, ob.records...) {
		if r.failed {
			failed++
		}
		if r.wrong {
			wrong++
		}
	}
	ops := len(ob.records)
	attempted := len(ob.prewarm) + ops

	var setups []float64
	for _, s := range ob.setups {
		setups = append(setups, s.Seconds())
	}
	m["setup_s"] = percentile(sortedOf(setups), 0.5)
	readLat := latencies(reads, ms)
	m["read_p50_ms"] = percentile(readLat, 0.50)
	m["e2e.read_p95_ms"] = percentile(readLat, 0.95)
	m["e2e.read_p99_ms"] = percentile(readLat, 0.99)
	m["ops_per_s"] = float64(ops) / ob.elapsed.Seconds()
	m["cpu_ms_per_op"] = float64(ob.rtAfter.CPUNs-ob.rtBefore.CPUNs) / 1e6 / float64(max(1, ops))
	m["daemon_heap_mb"] = float64(ob.heap.HeapAlloc) / (1 << 20)
	m["error_frac"] = frac(failed, attempted)
	m["wrong_answers"] = float64(wrong)
	m["references_checked"] = float64(ob.refs)
	applyLat := latencies(applies, ms)
	m["e2e.apply_p50_ms"] = percentile(applyLat, 0.50)
	m["e2e.apply_p90_ms"] = percentile(applyLat, 0.90)

	// Counters the daemon keeps, over the measured window.
	b, a := ob.stBefore, ob.stAfter
	m["serve.shed"] = float64(a.Shed - b.Shed)
	m["serve.retries"] = float64(a.Retries - b.Retries)
	m["serve.degraded"] = float64(a.Degraded - b.Degraded)
	m["serve.timeouts"] = float64(a.Timeouts - b.Timeouts)
	if a.Pool != nil && b.Pool != nil {
		m["resolve.pool_steals"] = float64(a.Pool.Steals - b.Pool.Steals)
		m["resolve.pool_waits"] = float64(a.Pool.Waits - b.Pool.Waits)
		var vars, pkgs int
		for _, sh := range a.Pool.Shard {
			vars += sh.Encoding.SolverVars
			pkgs += sh.Encoding.MaterializedPackages
		}
		m["concretize.solver_vars"] = float64(vars)
		m["concretize.materialized_pkgs"] = float64(pkgs)
	}
	m["resolve.construct_s"] = ob.info.ConstructS
	m["repo.build_s"] = ob.info.BuildS
	m["runtime.alloc_kb_per_op"] = float64(ob.rtAfter.TotalAlloc-ob.rtBefore.TotalAlloc) / 1024 / float64(max(1, ops))
	m["runtime.gc_cycles_per_kop"] = float64(ob.rtAfter.NumGC-ob.rtBefore.NumGC) * 1000 / float64(max(1, ops))

	// What the answers report about the work behind them.
	var solved, hits, coalesced, memo int
	var calls, imps, pkgs, conf, dec, prop []float64
	winners := map[string]int{}
	for _, r := range reads {
		st := r.stats
		switch {
		case st.Coalesced:
			coalesced++
		case st.SolutionCacheHit:
			hits++
		default:
			solved++
			if st.BoundMemoHit {
				memo++
			}
			winners[r.config]++
			calls = append(calls, float64(st.SolveCalls))
			imps = append(imps, float64(st.Improvements))
			pkgs = append(pkgs, float64(st.Packages))
			conf = append(conf, float64(st.Conflicts))
			dec = append(dec, float64(st.Decisions))
			prop = append(prop, float64(st.Propagations))
		}
	}
	m["serve.coalesced_frac"] = frac(coalesced, len(reads))
	m["concretize.cache_hit_frac"] = frac(hits, hits+solved)
	m["concretize.memo_hit_frac"] = frac(memo, solved)
	m["concretize.solve_calls_per_miss"] = mean(calls)
	m["concretize.improvements_per_miss"] = mean(imps)
	m["concretize.packages_per_miss"] = mean(pkgs)
	m["sat.conflicts_per_miss"] = mean(conf)
	m["sat.decisions_per_miss"] = mean(dec)
	m["sat.propagations_per_miss"] = mean(prop)
	m["misses"] = float64(solved)
	for _, name := range portfolioMembers {
		m["resolve.winner_frac."+name] = frac(winners[name], solved)
	}

	if ob.cfg.trace {
		traceMetrics(ob, reads, applies, m)
	}
	scaleTimes(ob.cal, m)

	res := result{Correct: wrong == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	defs := endToEnd
	if ob.cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, m
}

// scaleTimes rescales every time and rate in m to the reference machine,
// and records the calibration it applied.
func scaleTimes(c calibration, m map[string]float64) {
	scale := c.scale()
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		v, ok := m[d.name]
		switch {
		case !ok:
		case d.unit == "ms" || d.unit == "us" || d.unit == "s":
			m[d.name] = v * scale
		case d.unit == "1/s":
			m[d.name] = v / scale
		}
	}
	m["calib.scale"] = scale
	m["calib.round_trip_us"] = us(c.roundTrip)
	m["calib.kernel_ms"] = ms(c.kernel)
}

func latencies(recs []record, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = unit(r.dur())
	}
	slices.Sort(out)
	return out
}

// traceMetrics derives self times from the spans: a layer's self time is
// its span minus the child spans of the same request.
func traceMetrics(ob *observed, reads, applies []record, m map[string]float64) {
	serveSpan := map[uint64]span{}
	backend := map[uint64]time.Duration{} // summed over retries
	var applySpans []span
	for _, s := range ob.spans {
		switch s.Layer {
		case layerServe:
			serveSpan[s.ID] = s
		case layerResolve:
			backend[s.ID] += s.dur()
		case layerApply:
			applySpans = append(applySpans, s)
		}
	}

	var clientSelf, serveSelf, followerWait, hit, miss []float64
	var tracedSum, untracedSum time.Duration
	var traced, untraced int
	for _, r := range reads {
		if r.id == 0 {
			untracedSum += r.dur()
			untraced++
			continue
		}
		tracedSum += r.dur()
		traced++
		sv, ok := serveSpan[r.id]
		if !ok {
			continue
		}
		clientSelf = append(clientSelf, us(r.dur()-sv.dur()))
		if r.stats.Coalesced {
			followerWait = append(followerWait, ms(sv.dur()))
			continue
		}
		bd, ok := backend[r.id]
		if !ok {
			continue
		}
		serveSelf = append(serveSelf, us(sv.dur()-bd))
		if r.stats.SolutionCacheHit {
			hit = append(hit, us(bd))
		} else {
			miss = append(miss, ms(bd))
		}
	}
	clientSelf, serveSelf, followerWait, hit, miss = sortedOf(clientSelf), sortedOf(serveSelf), sortedOf(followerWait), sortedOf(hit), sortedOf(miss)
	m["client.self_us_p50"] = percentile(clientSelf, 0.5)
	m["serve.self_us_p50"] = percentile(serveSelf, 0.5)
	m["serve.self_us_p99"] = percentile(serveSelf, 0.99)
	m["serve.follower_wait_ms_p50"] = percentile(followerWait, 0.5)
	m["resolve.hit_us_p50"] = percentile(hit, 0.5)
	m["resolve.miss_ms_p50"] = percentile(miss, 0.5)
	m["resolve.miss_ms_p95"] = percentile(miss, 0.95)
	if traced > 0 && untraced > 0 && untracedSum > 0 {
		m["trace.overhead_frac"] = (float64(tracedSum)/float64(traced))/(float64(untracedSum)/float64(untraced)) - 1
	}

	// A publish's backend span is the apply span inside its serve span.
	var applySelf, applyDur, invalidated []float64
	for _, s := range applySpans {
		applyDur = append(applyDur, ms(s.dur()))
		invalidated = append(invalidated, float64(s.Invalidated))
	}
	for _, r := range applies {
		sv, ok := serveSpan[r.id]
		if r.id == 0 || !ok {
			continue
		}
		for _, s := range applySpans {
			if s.Start >= sv.Start && s.End <= sv.End {
				applySelf = append(applySelf, us(sv.dur()-s.dur()))
				break
			}
		}
	}
	applyDur = sortedOf(applyDur)
	m["serve.apply_self_us_p50"] = percentile(sortedOf(applySelf), 0.5)
	m["resolve.apply_ms_p50"] = percentile(applyDur, 0.5)
	m["resolve.apply_ms_p90"] = percentile(applyDur, 0.9)
	m["concretize.invalidated_per_apply"] = mean(invalidated)
}
