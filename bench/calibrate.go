package main

import (
	"math"
	"slices"
	"time"
)

// Calibration. The reference machine is a 2-vCPU VM on a shared host, and
// its neighbours move every time this benchmark measures. Over 40 minutes
// of back-to-back runs the daemon's CPU time for identical work (the same
// 180 cold-fanout misses at 945.62 conflicts each) ranged from 49 to 98 ms
// per op, and the quartile spread of a dozen runs was 0.16–0.39 of the
// median for every time metric on every workload. A fixed SHA-256 loop
// drifted half as much over the same runs; what drifted with the
// workloads was the cost of crossing the kernel (a loopback round trip to
// an idle process) and of memory-heavy user code (a hash map being filled).
// README.md has the measurements.
//
// So a run also starts an idle process, the echo helper, and every
// calibEvery, between the workload's requests, it times computeKernel once
// and calibBurst round trips to the helper. Every time the run reports is
// scaled to the reference machine, whose median round trip is refRoundTrip
// and median kernel is refKernel:
//
//	scale    = sqrt(refRoundTrip / round trip × refKernel / kernel)
//	reported = measured × scale
//
// with medians over the run, and rates divided by the scale. The probes run
// none of the repository's code, so a change to the daemon moves the scale
// only by competing with them for the CPU. The run's -out record keeps the
// scale and both medians, so every measured value can be recovered.
const (
	refRoundTrip = 100 * time.Microsecond
	refKernel    = 2 * time.Millisecond
	calibEvery   = 200 * time.Millisecond
	calibBurst   = 10
)

// calibrator times the probes.
type calibrator struct {
	cl      *httpClient // to the echo helper
	last    time.Time
	trips   []time.Duration
	kernels []time.Duration
	err     error // the first failed round trip
}

// burst times the kernel once and calibBurst round trips.
func (k *calibrator) burst() {
	t0 := time.Now()
	computeKernel()
	k.kernels = append(k.kernels, time.Since(t0))
	for range calibBurst {
		t0 := time.Now()
		if err := k.cl.get("/", nil); err != nil {
			if k.err == nil {
				k.err = err
			}
			break
		}
		k.trips = append(k.trips, time.Since(t0))
	}
	k.last = time.Now()
}

// tick runs a burst when calibEvery has passed since the last one.
func (k *calibrator) tick() {
	if time.Since(k.last) >= calibEvery {
		k.burst()
	}
}

// pause spends d with a burst at its start, where a run would otherwise
// sleep.
func (k *calibrator) pause(d time.Duration) {
	t0 := time.Now()
	k.burst()
	time.Sleep(d - time.Since(t0))
}

// calibration is what a run's probes measured.
type calibration struct {
	roundTrip, kernel time.Duration // medians
}

func (k *calibrator) result() calibration {
	return calibration{medianDur(k.trips), medianDur(k.kernels)}
}

// scale takes a time measured in the run to the reference machine; 1 when
// nothing was measured.
func (c calibration) scale() float64 {
	if c.roundTrip <= 0 || c.kernel <= 0 {
		return 1
	}
	return math.Sqrt(float64(refRoundTrip) / float64(c.roundTrip) * float64(refKernel) / float64(c.kernel))
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// computeKernel stands for the daemon's memory-heavy user code: 20,000
// updates of a hash map over 50,000 possible keys, which grows it to about
// 16,000 entries.
func computeKernel() int {
	m := make(map[uint64]uint64)
	x := uint64(88172645463325252)
	for i := range 20000 {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		m[x%50000] += uint64(i)
	}
	return len(m)
}
