package main

import (
	"fmt"
	"os"
	"time"
)

// The host-speed probe. The host's CPU speed drifts by 10–20 % over
// tens of seconds as other tenants contend for the core the simulation
// runs on (NOTES.md, "Noise study"). A fixed loop of random
// read-modify-writes over an 8 MiB table, run between passes on the
// same goroutine, slows with the simulator: over 20-pass windows its
// time correlated with the simulator's at r = 0.91, over 40-pass windows
// at r = 0.98. Schemes dominated by memmove (RoLo-E's interval inserts)
// track a block-copy loop better, so the probe runs both. Each timed run
// samples the probe after every timed pass and scales its pass times by
// probeRefMs / median(probe samples), so a time metric reads as host
// time at the reference host speed and host drift between runs cancels;
// each set-up is scaled by the probe taken right after it. The probe is
// the benchmark's own code: a change to the simulator cannot move it.

// probeRefMs is the probe's median time on the 2-vCPU Xeon VM
// (300 MiB L3) where the benchmark was calibrated. Scaled times equal
// raw host times whenever the probe runs at this speed.
const probeRefMs = 27.0

const (
	probeTableWords = 1 << 20 // 8 MiB of uint64: misses L2, lives in L3
	probeSteps      = 3_000_000
	probeCopyBytes  = 1 << 20 // each copy moves 1 MiB within a 4 MiB buffer
	probeCopies     = 300
)

var (
	probeTable = make([]uint64, probeTableWords)
	probeBuf   = make([]byte, 4*probeCopyBytes)
	probeSink  uint64
)

// probeOnce runs the fixed probe loops and returns their host time in ms.
func probeOnce() float64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < probeSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		probeTable[x>>44] += x // top 20 bits index the 2^20-word table
	}
	probeSink += x
	for i := 0; i < probeCopies; i++ {
		off := (i * 7 * 4096) % (2 * probeCopyBytes)
		copy(probeBuf[off+1:off+1+probeCopyBytes], probeBuf[off:off+probeCopyBytes])
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// hostSpeed collects a run's probe samples.
type hostSpeed struct{ samples []float64 }

func (h *hostSpeed) sample() { h.samples = append(h.samples, probeOnce()) }

// scale is the factor that turns this run's host times into times at
// the reference host speed.
func (h *hostSpeed) scale() float64 {
	s := probeRefMs / median(h.samples)
	fmt.Fprintf(os.Stderr, "perfbench: host probe median %.2f ms over %d samples (scale %.3f)\n",
		median(h.samples), len(h.samples), s)
	return s
}
