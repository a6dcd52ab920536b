package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/fleet"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

// workload is one set of inputs. Single-array workloads replay one
// calibrated MSR profile through every scheme; the fleet workload runs
// fleet.DefaultSpec widened to many shards.
type workload struct {
	name string
	// Single-array inputs: the profile, the geometry+trace scale, and
	// whether the run is observed (sanitizer, probes, async journal).
	profile  string
	scale    float64
	observed bool
	// shards > 0 selects the fleet workload.
	shards int
	// setupReps is how many times the inputs are built (about a second
	// of set-ups); setup_s is the median of their scaled times.
	setupReps int
}

var workloads = map[string]*workload{
	"src2_2-burst":    {name: "src2_2-burst", profile: "src2_2", scale: 0.5, setupReps: 31},
	"hm_1-read":       {name: "hm_1-read", profile: "hm_1", scale: 1, setupReps: 15},
	"src2_2-observed": {name: "src2_2-observed", profile: "src2_2", scale: 0.1, observed: true, setupReps: 41},
	"fleet-mixed":     {name: "fleet-mixed", shards: 512, setupReps: 15},
}

func (w *workload) isFleet() bool { return w.shards > 0 }

// procs is the harness's GOMAXPROCS: one for the single-array
// workloads, which run every scheme serially on one goroutine, and the
// machine's CPU count for the fleet, whose pool has that many slots.
func (w *workload) procs() int {
	if w.isFleet() {
		return runtime.NumCPU()
	}
	return 1
}

// schemeNames lists the schemes in rolo.Schemes order.
func schemeNames() []string {
	out := make([]string, len(rolo.Schemes))
	for i, s := range rolo.Schemes {
		out[i] = s.String()
	}
	return out
}

// probeInterval is the observed workload's probe spacing (the nightly
// sweep's setting).
const probeInterval = 30 * sim.Second

// scaledConfig is the geometry+trace scaling used by rolosim and the
// experiments package: 20 pairs, 64 KB stripes, and capacity, free space
// and the GRAID log disk shrunk with the trace.
func scaledConfig(scheme rolo.Scheme, scale float64) rolo.Config {
	cfg := rolo.DefaultConfig(scheme)
	cfg.Pairs = 20
	cfg.StripeUnitBytes = 64 << 10
	cfg.Disk.CapacityBytes = scaleBytes(18.4*(1<<30), scale)
	cfg.FreeBytesPerDisk = scaleBytes(8*(1<<30), scale)
	cfg.GRAID.LogCapacityBytes = scaleBytes(16*(1<<30), scale)
	return cfg
}

func scaleBytes(b, scale float64) int64 {
	v := int64(b * scale)
	v -= v % (1 << 20)
	if v < 1<<20 {
		v = 1 << 20
	}
	return v
}

// arrayInputs are a single-array workload's generated inputs.
type arrayInputs struct {
	recs []trace.Record
	cfgs []rolo.Config // one per scheme, rolo.Schemes order
}

// buildArray generates the profile trace and the per-scheme configs,
// with spans under parent when tr is set. genTime is the time of
// Profile.Generate alone.
func buildArray(w *workload, seed int64, tr *tracer, parent int) (in arrayInputs, genTime time.Duration, err error) {
	sp := tr.begin(parent, "trace.Lookup", w.profile)
	p, err := trace.Lookup(w.profile)
	tr.end(sp)
	if err != nil {
		return in, 0, err
	}
	if seed >= 0 {
		p.Seed = seed
	}
	for _, s := range rolo.Schemes {
		cfg := scaledConfig(s, w.scale)
		if w.observed {
			cfg.Check = true
			cfg.Telemetry.ProbeInterval = probeInterval
		}
		in.cfgs = append(in.cfgs, cfg)
	}
	sp = tr.begin(parent, "Profile.Generate", w.profile)
	t0 := time.Now()
	in.recs, err = p.Generate(in.cfgs[0].VolumeBytes(), w.scale)
	genTime = time.Since(t0)
	tr.end(sp)
	return in, genTime, err
}

// fleetInputs are the fleet workload's spec and every shard's config and
// generated trace.
type fleetInputs struct {
	spec     fleet.Spec
	cfgs     []rolo.Config
	recs     [][]trace.Record
	requests int
}

// fleetSpec is fleet.DefaultSpec widened to the workload's shard count
// and reseeded.
func fleetSpec(w *workload, seed int64) fleet.Spec {
	spec := fleet.DefaultSpec()
	spec.Shards = w.shards
	if seed >= 0 {
		spec.Base.Seed = seed
	}
	return spec
}

// buildFleet builds the spec, then Spec.ShardConfig and
// Synthetic.Generate for every shard, with spans under parent when tr is
// set. genTime sums the Generate calls.
func buildFleet(w *workload, seed int64, tr *tracer, parent int) (in fleetInputs, genTime time.Duration, err error) {
	sp := tr.begin(parent, "fleet.DefaultSpec", "fleet")
	in.spec = fleetSpec(w, seed)
	err = in.spec.Validate()
	tr.end(sp)
	if err != nil {
		return in, 0, err
	}
	for i := 0; i < in.spec.Shards; i++ {
		shard := fmt.Sprintf("shard-%d", i)
		sp = tr.begin(parent, "Spec.ShardConfig", shard)
		cfg, wl := in.spec.ShardConfig(i)
		tr.end(sp)
		sp = tr.begin(parent, "Synthetic.Generate", shard)
		t0 := time.Now()
		recs, err := wl.Generate(cfg.VolumeBytes())
		genTime += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return in, 0, fmt.Errorf("shard %d workload: %w", i, err)
		}
		in.cfgs = append(in.cfgs, cfg)
		in.recs = append(in.recs, recs)
		in.requests += len(recs)
	}
	return in, genTime, nil
}

// setupStats is what repeated set-ups measured.
type setupStats struct {
	times  []float64 // seconds per set-up
	gen    []float64 // seconds of trace generation per set-up
	probes []float64 // host probe ms right after each set-up
}

// setupSeconds is the median set-up time, each set-up scaled to the
// reference host speed by the probe taken right after it.
func (st setupStats) setupSeconds() float64 {
	scaled := make([]float64, len(st.times))
	for i, t := range st.times {
		scaled[i] = t * probeRefMs / st.probes[i]
	}
	return median(scaled)
}

// setupArray builds the inputs w.setupReps times, checking that every
// build is identical to the first, and returns the first. A host probe
// follows each build. With tr set, the first build records spans under
// parent.
func setupArray(w *workload, seed int64, l *ledger, tr *tracer, parent int) (arrayInputs, setupStats, error) {
	var (
		first arrayInputs
		st    setupStats
	)
	for r := 0; r < w.setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		in, gen, err := buildArray(w, seed, tr, parent)
		tr = nil
		st.times = append(st.times, time.Since(t0).Seconds())
		st.probes = append(st.probes, probeOnce())
		st.gen = append(st.gen, gen.Seconds())
		if err != nil {
			return first, st, err
		}
		l.op()
		if r == 0 {
			first = in
		} else if !slices.Equal(in.recs, first.recs) {
			l.fail("set-up %d generated a different %s trace", r, w.profile)
		}
	}
	return first, st, nil
}

// setupFleet is setupArray for the fleet workload.
func setupFleet(w *workload, seed int64, l *ledger, tr *tracer, parent int) (fleetInputs, setupStats, error) {
	var (
		first fleetInputs
		st    setupStats
	)
	for r := 0; r < w.setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		in, gen, err := buildFleet(w, seed, tr, parent)
		tr = nil
		st.times = append(st.times, time.Since(t0).Seconds())
		st.probes = append(st.probes, probeOnce())
		st.gen = append(st.gen, gen.Seconds())
		if err != nil {
			return first, st, err
		}
		l.op()
		if r == 0 {
			first = in
			continue
		}
		for i := range in.recs {
			if !slices.Equal(in.recs[i], first.recs[i]) {
				l.fail("set-up %d generated a different trace for shard %d", r, i)
				break
			}
		}
	}
	return first, st, nil
}

// digest fingerprints a value's complete printed form; two reports with
// equal digests are bit-identical in every exported and unexported
// field (floats print in their shortest exact form).
func digest(v any) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
}
