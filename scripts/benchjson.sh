#!/bin/sh
# benchjson.sh <label> — convert `go test -bench` output (stdin) into the
# perf-trajectory JSON recorded as BENCH_<label>.json at the repo root.
# Each entry carries the benchmark name (CPU-count suffix stripped), the
# owning package, and the measured ns/op, B/op, and allocs/op — plus the
# custom units the registry suite reports via b.ReportMetric: solver_vars
# (lazy-encoder coverage), heap_bytes (one warmed session's footprint) and
# solve_calls/miss (descent rounds per warm first visit).
set -eu
label="${1:?usage: benchjson.sh <label> < bench-output}"

printf '{\n  "label": "%s",\n  "suite": "BenchmarkConcretize|BenchmarkSessionWarm|BenchmarkPortfolio|BenchmarkSessionResolver|BenchmarkRegistry",\n  "benchmarks": [\n' "$label"
awk '
/^pkg: /       { pkg = $2 }
/^goos: /      { goos = $2 }
/^goarch: /    { goarch = $2 }
/^Benchmark/ && $3 == "ns/op" || /^Benchmark/ && $4 == "ns/op" {
    name = $1; sub(/-[0-9]+$/, "", name)
    iters = $2
    ns = ""; b = ""; allocs = ""; vars = ""; heap = ""; calls = ""
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op")       ns = $(i - 1)
        if ($i == "B/op")        b = $(i - 1)
        if ($i == "allocs/op")   allocs = $(i - 1)
        if ($i == "solver_vars") vars = $(i - 1)
        if ($i == "heap_bytes")  heap = $(i - 1)
        if ($i == "solve_calls/miss") calls = $(i - 1)
    }
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"pkg\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", name, pkg, iters, ns
    if (b != "")      printf ", \"b_per_op\": %s", b
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    if (vars != "")   printf ", \"solver_vars\": %s", vars
    if (heap != "")   printf ", \"heap_bytes\": %s", heap
    if (calls != "")  printf ", \"solve_calls_per_miss\": %s", calls
    printf "}"
}
END { if (n) printf "\n" }
'
printf '  ]\n}\n'
