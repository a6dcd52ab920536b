package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/fleet"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
	"github.com/rolo-storage/rolo/internal/trace"
)

// minPasses is the fewest timed passes of each scheme (or fleet rounds)
// a run makes, however short --seconds is.
const minPasses = 2

// byteCounter is the observed workload's journal destination: it counts
// the encoded bytes and keeps none, so no disk I/O enters the timing.
type byteCounter struct{ n int64 }

func (c *byteCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// passResult is one rolo.Run call and what it cost.
type passResult struct {
	rep          rolo.Report
	dur          time.Duration
	allocs       uint64
	allocBytes   uint64
	journal      journal.WriterStats
	journalBytes int64
	rssMB        float64 // resident-set high-water mark of the timed call
}

// runScheme makes one timed rolo.Run of cfg over recs after a full
// collection. An observed configuration (probes set) gets a fresh async
// journal with the blocking policy, closed after the timed call; a
// non-nil jt times that journal's Emit and WriteEvent calls, and a
// non-nil prof adds a CPU profile of the timed call to its layer counts.
func runScheme(cfg rolo.Config, recs []trace.Record, jt *journalTimer, prof map[string]int64) (passResult, error) {
	var (
		pr      passResult
		counter byteCounter
		sink    *journal.AsyncSink
	)
	if cfg.Telemetry.ProbeInterval > 0 {
		w := journal.NewStreamWriter(&counter)
		if jt != nil {
			w = timedWriter{EventWriter: w, jt: jt}
		}
		sink = journal.NewAsyncSink(w, journal.AsyncConfig{Policy: journal.PolicyBlock})
		cfg.Telemetry.Sink = sink
		if jt != nil {
			jt.sink = sink
			cfg.Telemetry.Sink = timedSink{jt: jt}
		}
	}
	var (
		before, after runtime.MemStats
		rep           rolo.Report
		err           error
	)
	call := func() {
		t0 := time.Now()
		rep, err = rolo.Run(cfg, recs)
		pr.dur = time.Since(t0)
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	resetPeakRSS()
	if prof != nil {
		profiled(prof, call)
	} else {
		call()
	}
	runtime.ReadMemStats(&after)
	pr.rssMB = peakRSSMB()
	pr.rep = rep
	pr.allocs = after.Mallocs - before.Mallocs
	pr.allocBytes = after.TotalAlloc - before.TotalAlloc
	if sink != nil {
		cerr := sink.Close()
		pr.journal = sink.Stats()
		pr.journalBytes = counter.n
		if err == nil && cerr != nil {
			err = fmt.Errorf("closing journal: %w", cerr)
		}
	}
	return pr, err
}

// checker holds each scheme's reference pass and judges later passes
// against it.
type checker struct {
	ref  []rolo.Report
	jb   []int64
	have []bool
}

func newChecker(n int) *checker {
	return &checker{ref: make([]rolo.Report, n), jb: make([]int64, n), have: make([]bool, n)}
}

// check counts one operation and fails it on the first miss: a run
// error, a request-count mismatch, a journal that dropped events or
// wrote fewer than it took, a checked pass whose sanitizer saw nothing,
// or a report (or journal size) that differs from the scheme's first
// pass. A checker serves one configuration per scheme.
func (c *checker) check(l *ledger, label string, i int, cfg rolo.Config, pr passResult, err error, want int) bool {
	l.op()
	reason := ""
	switch {
	case err != nil:
		reason = err.Error()
	case pr.rep.Requests != int64(want):
		reason = fmt.Sprintf("completed %d of %d requests", pr.rep.Requests, want)
	case cfg.Telemetry.ProbeInterval > 0 && pr.journal.Dropped != 0:
		reason = fmt.Sprintf("journal dropped %d events", pr.journal.Dropped)
	case cfg.Telemetry.ProbeInterval > 0 && pr.journal.Written != pr.journal.Enqueued:
		reason = fmt.Sprintf("journal wrote %d of %d events", pr.journal.Written, pr.journal.Enqueued)
	case cfg.Check && pr.rep.SanitizerEvents == 0:
		reason = "sanitizer observed no events"
	case !c.have[i]:
		c.ref[i], c.jb[i], c.have[i] = pr.rep, pr.journalBytes, true
	case digest(pr.rep) != digest(c.ref[i]):
		reason = "report differs from the first pass in " + diffFields(pr.rep, c.ref[i])
	case pr.journalBytes != c.jb[i]:
		reason = fmt.Sprintf("journal is %d bytes, first pass wrote %d", pr.journalBytes, c.jb[i])
	}
	if reason != "" {
		l.fail("%s %s: %s", label, cfg.Scheme, reason)
		return false
	}
	return true
}

// diffFields names the report fields whose printed values differ.
func diffFields(a, b rolo.Report) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var names []string
	for i := 0; i < va.NumField(); i++ {
		if fmt.Sprintf("%+v", va.Field(i).Interface()) != fmt.Sprintf("%+v", vb.Field(i).Interface()) {
			names = append(names, va.Type().Field(i).Name)
		}
	}
	return strings.Join(names, ", ")
}

// metricSet accumulates named metrics; non-finite values (a run whose
// every pass failed) print as 0 so the result line stays valid JSON.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqm is the interquartile mean: the mean of the middle half of xs
// (all of xs when there are fewer than four).
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM), so the next peakRSSMB covers only what runs in between.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fatalf("resetting the peak RSS: %v", err)
	}
}

// peakRSSMB reads the resident-set high-water mark since the last reset.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fatalf("reading the peak RSS: %v", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var v float64
			if _, err := fmt.Sscanf(kb, "%f kB", &v); err != nil {
				fatalf("parsing VmHWM %q: %v", kb, err)
			}
			return v / 1024
		}
	}
	fatalf("no VmHWM in /proc/self/status")
	return 0
}

// maxMedian is the largest of the groups' medians.
func maxMedian(groups [][]float64) float64 {
	out := math.NaN()
	for _, g := range groups {
		if m := median(g); math.IsNaN(out) || m > out {
			out = m
		}
	}
	return out
}

func runTimed(w *workload, seed int64, seconds float64, l *ledger) (map[string]metric, error) {
	if w.isFleet() {
		return timedFleet(w, seed, seconds, l)
	}
	return timedArray(w, seed, seconds, l)
}

// timedArray runs every scheme minPasses times in rotation, then gives
// each next pass to the scheme with the least measured time so far,
// until --seconds have passed: every scheme gets about the same
// measured time, interleaved with the others. There is no warm-up: a
// pass is long enough (0.1–4 s) that heap growth in the first is noise,
// and each scheme's first pass is the reference its later passes must
// reproduce.
func timedArray(w *workload, seed int64, seconds float64, l *ledger) (map[string]metric, error) {
	var hs hostSpeed
	in, st, err := setupArray(w, seed, l, nil, 0)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests, set-up %v s\n", w.name, len(in.recs), st.times)
	names := schemeNames()
	n := len(in.cfgs)
	chk := newChecker(n)
	perScheme := make([][]float64, n)
	rss := make([][]float64, n)
	spent := make([]time.Duration, n)
	var allocs, simReq uint64
	start := time.Now()
	for pass := 0; pass < n*minPasses || time.Since(start).Seconds() < seconds; pass++ {
		i := pass % n
		if pass >= n*minPasses {
			for j := range spent {
				if spent[j] < spent[i] {
					i = j
				}
			}
		}
		pr, err := runScheme(in.cfgs[i], in.recs, nil, nil)
		hs.sample()
		spent[i] += pr.dur
		if !chk.check(l, fmt.Sprintf("pass %d", pass), i, in.cfgs[i], pr, err, len(in.recs)) {
			continue
		}
		perScheme[i] = append(perScheme[i], float64(pr.dur.Nanoseconds())/float64(len(in.recs)))
		fmt.Fprintf(os.Stderr, "perfbench: pass %d %-6s %8.0f raw ns/req, probe %.2f ms\n",
			pass, names[i], perScheme[i][len(perScheme[i])-1], hs.samples[len(hs.samples)-1])
		rss[i] = append(rss[i], pr.rssMB)
		allocs += pr.allocs
		simReq += uint64(len(in.recs))
	}
	scale := hs.scale()
	m := metricSet{}
	m.set("setup_s", st.setupSeconds(), "s")
	var sum float64
	for i, name := range names {
		ns := iqm(perScheme[i]) * scale
		m.set("ns_per_req."+name, ns, "ns")
		sum += ns
	}
	m.set("req_per_s", float64(n)*1e9/sum, "req/s")
	m.set("allocs_per_req", float64(allocs)/float64(simReq), "allocs/req")
	m.set("peak_rss_MB", maxMedian(rss), "MB")
	return m, nil
}

// clusterWorstK is the worst-shard digest size fleet.Run uses for a spec
// that leaves WorstK zero.
func clusterWorstK(spec fleet.Spec) int {
	if spec.WorstK == 0 {
		return 8
	}
	return spec.WorstK
}

// fleetRound is one serial pass over the fleet's shards, grouped by
// scheme: per-scheme host time and requests, and every shard's report.
type fleetRound struct {
	nsPerReq []float64
	reps     []rolo.Report
}

// serialFleet runs every shard's rolo.Run on the calling goroutine over
// the pre-generated inputs, one scheme's shards at a time in the given
// scheme order, after a full collection per scheme.
func serialFleet(in *fleetInputs, order []int, shardRef [][32]byte, l *ledger, label string, hs *hostSpeed) fleetRound {
	out := fleetRound{nsPerReq: make([]float64, len(rolo.Schemes)), reps: make([]rolo.Report, len(in.cfgs))}
	for _, si := range order {
		scheme := rolo.Schemes[si]
		var (
			dur  time.Duration
			reqs int
		)
		runtime.GC()
		for i, cfg := range in.cfgs {
			if cfg.Scheme != scheme {
				continue
			}
			t0 := time.Now()
			rep, err := rolo.Run(cfg, in.recs[i])
			dur += time.Since(t0)
			reqs += len(in.recs[i])
			out.reps[i] = rep
			l.op()
			switch {
			case err != nil:
				l.fail("%s shard %d: %v", label, i, err)
			case rep.Requests != int64(len(in.recs[i])):
				l.fail("%s shard %d: completed %d of %d requests", label, i, rep.Requests, len(in.recs[i]))
			case shardRef[i] == [32]byte{}:
				shardRef[i] = digest(rep)
			case digest(rep) != shardRef[i]:
				l.fail("%s shard %d: report differs from the first pass", label, i)
			}
		}
		out.nsPerReq[si] = float64(dur.Nanoseconds()) / float64(reqs)
		if hs != nil {
			hs.sample()
		}
	}
	return out
}

// foldSerial folds a serial pass's reports in shard order, as fleet.Run
// does, into the cluster report.
func foldSerial(spec fleet.Spec, reps []rolo.Report) fleet.ClusterReport {
	c := fleet.NewCluster(clusterWorstK(spec))
	for i := range reps {
		c.Fold(i, &reps[i])
	}
	return c.Report()
}

// timedFleet runs fleet.Run once untimed (the reference report), then
// rounds of a timed fleet.Run on an nproc-slot pool followed by a serial
// per-scheme pass over the same shards, until --seconds have passed and
// at least minPasses rounds are done. The first serial pass, folded in
// shard order, must reproduce fleet.Run's report exactly.
func timedFleet(w *workload, seed int64, seconds float64, l *ledger) (map[string]metric, error) {
	var hs hostSpeed
	in, st, err := setupFleet(w, seed, l, nil, 0)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	ref, err := fleet.Run(in.spec, fleet.NewPool(nproc))
	l.ops(in.spec.Shards)
	if err != nil {
		l.fail("warm-up fleet.Run: %v", err)
	}
	refDigest := digest(ref)
	if ref.Requests != int64(in.requests) {
		l.fail("warm-up fleet.Run completed %d of %d requests", ref.Requests, in.requests)
	}
	shardRef := make([][32]byte, len(in.cfgs))
	perScheme := make([][]float64, len(rolo.Schemes))
	var (
		rates, rss []float64
		allocs     uint64
		runs       uint64
	)
	start := time.Now()
	for round := 0; round < minPasses || time.Since(start).Seconds() < seconds; round++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		resetPeakRSS()
		t0 := time.Now()
		rep, err := fleet.Run(in.spec, fleet.NewPool(nproc))
		dur := time.Since(t0)
		runtime.ReadMemStats(&after)
		rss = append(rss, peakRSSMB())
		hs.sample()
		l.ops(in.spec.Shards)
		switch {
		case err != nil:
			l.fail("round %d fleet.Run: %v", round, err)
		case digest(rep) != refDigest:
			l.fail("round %d fleet.Run: cluster report differs from the first run", round)
		default:
			rates = append(rates, float64(in.requests)/dur.Seconds())
			allocs += after.Mallocs - before.Mallocs
			runs++
		}

		order := make([]int, len(rolo.Schemes))
		for k := range order {
			order[k] = (round + k) % len(order)
		}
		fr := serialFleet(&in, order, shardRef, l, fmt.Sprintf("round %d serial", round), &hs)
		for si, v := range fr.nsPerReq {
			perScheme[si] = append(perScheme[si], v)
		}
		if round == 0 {
			l.op()
			if digest(foldSerial(in.spec, fr.reps)) != refDigest {
				l.fail("serial fold of the shards differs from fleet.Run at %d slots", nproc)
			}
		}
	}
	scale := hs.scale()
	m := metricSet{}
	m.set("setup_s", st.setupSeconds(), "s")
	m.set("req_per_s", iqm(rates)/scale, "req/s")
	for si, name := range schemeNames() {
		m.set("ns_per_req."+name, iqm(perScheme[si])*scale, "ns")
	}
	m.set("allocs_per_req", float64(allocs)/float64(runs*uint64(in.requests)), "allocs/req")
	m.set("peak_rss_MB", median(rss), "MB")
	return m, nil
}
