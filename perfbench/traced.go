package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/fleet"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
)

// profileHz is the traced run's requested CPU sampling rate, ten times
// pprof's default.
const profileHz = 1000

// Each scheme's traced passes repeat until they add up to
// minTracedSeconds, at most maxTracedPasses times: the kernel's timer
// granularity can hold the effective sampling rate well below
// profileHz.
const (
	minTracedSeconds = 2.0
	maxTracedPasses  = 5
)

// span is one timed interval around a public call. Times are
// nanoseconds since the traced run began; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Group  string `json:"group"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID. A nil tracer records nothing.
func (t *tracer) begin(parent int, name, group string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Group: group,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTimes sums each span name's self time: its duration minus the
// part its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// profiled runs fn under a CPU profile at profileHz and adds its samples
// to the per-layer counts.
func profiled(counts map[string]int64, fn func()) {
	var buf bytes.Buffer
	// Setting the rate first makes StartCPUProfile keep it; the runtime
	// prints a one-line notice that the default rate was not applied.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		fatalf("starting the CPU profile: %v", err)
	}
	fn()
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		fatalf("%v", err)
	}
	layerCounts(counts, samples)
}

// journalTimer times the observed workload's journal pipeline from
// outside: every telemetry.Sink.Emit on the producer side (including
// any wait for ring space) and every EventWriter.WriteEvent on the
// writer goroutine.
type journalTimer struct {
	emits, emitNs int64
	mu            sync.Mutex // guards writeNs: WriteEvent runs on the writer goroutine
	writeNs       int64
	sink          *journal.AsyncSink
}

type timedSink struct{ jt *journalTimer }

func (s timedSink) Emit(ev telemetry.Event) {
	t0 := time.Now()
	s.jt.sink.Emit(ev)
	s.jt.emitNs += int64(time.Since(t0))
	s.jt.emits++
}

// Flush forwards to the async sink so rolo.Run still drains it.
func (s timedSink) Flush() error { return s.jt.sink.Flush() }

type timedWriter struct {
	journal.EventWriter
	jt *journalTimer
}

func (w timedWriter) WriteEvent(line []byte, at sim.Time) error {
	t0 := time.Now()
	err := w.EventWriter.WriteEvent(line, at)
	d := int64(time.Since(t0))
	w.jt.mu.Lock()
	w.jt.writeNs += d
	w.jt.mu.Unlock()
	return err
}

func (jt *journalTimer) writeTime() int64 {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.writeNs
}

// layerApplies reports whether a layer can be non-zero for a group (a
// scheme name, or "fleet"); inapplicable pairs are not metrics.
func layerApplies(layer, group string) bool {
	switch layer {
	case "core":
		return strings.HasPrefix(group, "RoLo-") || group == "fleet"
	case "baseline":
		return group == "RAID10" || group == "GRAID" || group == "fleet"
	case "logspace", "intervals":
		return group != "RAID10"
	case "cache":
		return group == "RoLo-E" || group == "fleet"
	}
	return true
}

// groups are the per-layer metric suffixes: the five schemes, and
// "fleet" for fleet-mixed.
func groups() []string { return append(schemeNames(), "fleet") }

// perLayerTemplate returns every per-layer metric at zero, so each
// traced run prints the full set; a workload that does not exercise a
// layer or group leaves its metrics at zero.
func perLayerTemplate() metricSet {
	m := metricSet{}
	for _, g := range groups() {
		for _, l := range layers {
			if layerApplies(l, g) {
				m.set("self_ns_per_req."+l+"."+g, 0, "ns")
			}
		}
		m.set("traced_ns_per_req."+g, 0, "ns")
		m.set("events_per_req."+g, 0, "events/req")
		m.set("sanitizer_ns_per_req."+g, 0, "ns")
		m.set("sim.mean_ms."+g, 0, "ms")
		m.set("sim.energy_J."+g, 0, "J")
		if g != "RAID10" {
			m.set("sim.spin_cycles."+g, 0, "count")
		}
	}
	for _, g := range []string{"RoLo-P", "RoLo-R", "RoLo-E"} {
		m.set("sim.rotations."+g, 0, "count")
	}
	for _, g := range []string{"GRAID", "RoLo-E"} {
		m.set("sim.destages."+g, 0, "count")
	}
	for _, name := range []string{"trace.gen_ns_per_req", "journal.emit_ns", "fleet.fold_ns"} {
		m.set(name, 0, "ns")
	}
	m.set("alloc_bytes_per_req", 0, "B/req")
	m.set("journal.events_per_req", 0, "events/req")
	m.set("journal.bytes_per_req", 0, "B/req")
	m.set("journal.writer_busy_frac", 0, "frac")
	m.set("journal.peak_ring_frac", 0, "frac")
	m.set("fleet.shard_ms.p50", 0, "ms")
	m.set("fleet.shard_ms.p99", 0, "ms")
	m.set("fleet.acquire_wait_frac", 0, "frac")
	m.set("fleet.speedup", 0, "x")
	m.set("traced_req_per_s", 0, "req/s")
	m.set("untraced_req_per_s", 0, "req/s")
	return m
}

// setLayers charges a traced pass's ns per request to the layers by
// their sample shares; layers that cannot apply to the group (none
// should sample) are folded into other, so the self times always sum
// to the traced ns per request.
func setLayers(m metricSet, group string, shares map[string]float64, nsPerReq float64) {
	other := 0.0
	for l, sh := range shares {
		if l != "other" && layerApplies(l, group) {
			m.set("self_ns_per_req."+l+"."+group, sh*nsPerReq, "ns")
		} else {
			other += sh
		}
	}
	m.set("self_ns_per_req.other."+group, other*nsPerReq, "ns")
	m.set("traced_ns_per_req."+group, nsPerReq, "ns")
}

// layerRow is one group's line in the per-layer table.
type layerRow struct {
	group    string
	nsPerReq float64
	shares   map[string]float64
	samples  int64
}

func runTraced(w *workload, seed int64, l *ledger) (map[string]metric, error) {
	tr := newTracer()
	root := tr.begin(0, "perfbench.traced", w.name)
	var (
		m    metricSet
		rows []layerRow
		err  error
	)
	if w.isFleet() {
		m, rows, err = tracedFleet(w, seed, l, tr, root)
	} else {
		m, rows, err = tracedArray(w, seed, l, tr, root)
	}
	if err != nil {
		return nil, err
	}
	tr.end(root)
	if err := writeTraceFiles(w, seed, tr, rows, m); err != nil {
		return nil, err
	}
	return m, nil
}

// tracedArray runs each scheme serially: an untimed warm-up, plain
// passes (no profile, no wrappers) alternating with traced passes (CPU
// profile and journal timers), and a pass with Config.Check flipped,
// which pairs with the plain passes to give the sanitizer's cost and its
// event count.
func tracedArray(w *workload, seed int64, l *ledger, tr *tracer, root int) (metricSet, []layerRow, error) {
	m := perLayerTemplate()
	setup := tr.begin(root, "setup", w.name)
	in, st, err := setupArray(w, seed, l, tr, setup)
	tr.end(setup)
	if err != nil {
		return nil, nil, err
	}
	req := len(in.recs)
	m.set("trace.gen_ns_per_req", median(st.gen)*1e9/float64(req), "ns")

	chk, chkFlip := newChecker(len(in.cfgs)), newChecker(len(in.cfgs))
	var (
		rows                         []layerRow
		plainNs, tracedNs            int64
		allocBytes, plainReq         uint64
		jEvents, jBytes, emits, emNs int64
		writeNs                      int64
		peakRing                     float64
		tracedReq                    int
	)
	for i, cfg := range in.cfgs {
		name := cfg.Scheme.String()
		grp := tr.begin(root, "scheme", name)
		// pass makes one rolo.Run inside a pass span and a call span.
		pass := func(kind string, c rolo.Config, jt *journalTimer, prof map[string]int64) (passResult, error) {
			p := tr.begin(grp, kind, name)
			call := tr.begin(p, "rolo.Run", name)
			pr, err := runScheme(c, in.recs, jt, prof)
			tr.end(call)
			tr.end(p)
			return pr, err
		}

		// An untimed warm-up pass first, so no timed pass of the scheme
		// pays for growing the heap.
		warm, err := pass("pass.warm-up", cfg, nil, nil)
		chk.check(l, "warm-up", i, cfg, warm, err, req)

		// Plain and traced passes alternate, so host drift hits both
		// alike, until the traced ones add up to minTracedSeconds of
		// profile: short schemes still collect enough samples.
		var (
			counts     = map[string]int64{}
			plain      passResult
			pdur, tdur time.Duration
			passes     int
		)
		for passes < maxTracedPasses && (passes == 0 || tdur.Seconds() < minTracedSeconds) {
			pr, err := pass("pass.plain", cfg, nil, nil)
			chk.check(l, "plain", i, cfg, pr, err, req)
			plain = pr
			pdur += pr.dur
			allocBytes += pr.allocBytes
			plainReq += uint64(req)
			jEvents += pr.journal.Enqueued
			jBytes += pr.journalBytes
			if c := pr.journal.Capacity; c > 0 {
				peakRing = max(peakRing, float64(pr.journal.PeakOccupancy)/float64(c))
			}

			var jt journalTimer
			traced, err := pass("pass.traced", cfg, &jt, counts)
			chk.check(l, "traced", i, cfg, traced, err, req)
			tdur += traced.dur
			passes++
			emits += jt.emits
			emNs += jt.emitNs
			writeNs += jt.writeTime()
		}
		plainNs += pdur.Nanoseconds()
		tracedNs += tdur.Nanoseconds()
		tracedReq += req * passes
		shares, samples := layerShares(counts)
		ns := float64(tdur.Nanoseconds()) / float64(req*passes)
		setLayers(m, name, shares, ns)
		rows = append(rows, layerRow{group: name, nsPerReq: ns, shares: shares, samples: samples})

		flipped := cfg
		flipped.Check = !cfg.Check
		flip, err := pass("pass.check-flipped", flipped, nil, nil)
		chkFlip.check(l, "check-flipped", i, flipped, flip, err, req)
		if d := diffFields(flip.rep, plain.rep); d != "SanitizerEvents, SanitizerSweeps" {
			fmt.Fprintf(os.Stderr, "perfbench: note: %s with Check=%v differs in %s (EnergyJ %.17g vs %.17g)\n",
				name, flipped.Check, d, flip.rep.EnergyJ, plain.rep.EnergyJ)
		}
		plainPerReq := float64(pdur.Nanoseconds()) / float64(req*passes)
		flipPerReq := float64(flip.dur.Nanoseconds()) / float64(req)
		checked, sanitizerNs := flip, flipPerReq-plainPerReq
		if cfg.Check {
			checked, sanitizerNs = plain, plainPerReq-flipPerReq
		}
		m.set("events_per_req."+name, float64(checked.rep.SanitizerEvents)/float64(req), "events/req")
		m.set("sanitizer_ns_per_req."+name, sanitizerNs, "ns")
		tr.end(grp)

		rep := plain.rep
		m.set("sim.mean_ms."+name, rep.MeanResponseMs, "ms")
		m.set("sim.energy_J."+name, rep.EnergyJ, "J")
		if name != "RAID10" {
			m.set("sim.spin_cycles."+name, float64(rep.SpinCycles), "count")
		}
		if strings.HasPrefix(name, "RoLo-") {
			m.set("sim.rotations."+name, float64(rep.Rotations), "count")
		}
		if name == "GRAID" || name == "RoLo-E" {
			m.set("sim.destages."+name, float64(rep.Destages), "count")
		}
	}
	m.set("alloc_bytes_per_req", float64(allocBytes)/float64(plainReq), "B/req")
	m.set("untraced_req_per_s", float64(plainReq)/(float64(plainNs)/1e9), "req/s")
	m.set("traced_req_per_s", float64(tracedReq)/(float64(tracedNs)/1e9), "req/s")
	if w.observed {
		m.set("journal.events_per_req", float64(jEvents)/float64(plainReq), "events/req")
		m.set("journal.bytes_per_req", float64(jBytes)/float64(plainReq), "B/req")
		m.set("journal.emit_ns", float64(emNs)/float64(emits), "ns")
		m.set("journal.writer_busy_frac", float64(writeNs)/float64(tracedNs), "frac")
		m.set("journal.peak_ring_frac", peakRing, "frac")
	}
	return m, rows, nil
}

// timingPool wraps a fleet.Pool, measuring how long shards wait for a
// slot and how long they hold one.
type timingPool struct {
	inner      fleet.Pool
	mu         sync.Mutex
	wait, hold time.Duration
}

func (p *timingPool) Acquire() func() {
	t0 := time.Now()
	release := p.inner.Acquire()
	t1 := time.Now()
	return func() {
		t2 := time.Now()
		release()
		p.mu.Lock()
		p.wait += t1.Sub(t0)
		p.hold += t2.Sub(t1)
		p.mu.Unlock()
	}
}

func (p *timingPool) Cap() int { return p.inner.Cap() }

// tracedFleet makes three serial passes over the shards with
// Spec.RunShard — traced (spans and one CPU profile over the pass),
// plain, and checked — then one fleet.Run on a timing pool of nproc
// slots, whose report must equal the traced pass's fold.
func tracedFleet(w *workload, seed int64, l *ledger, tr *tracer, root int) (metricSet, []layerRow, error) {
	m := perLayerTemplate()
	setup := tr.begin(root, "setup", w.name)
	in, st, err := setupFleet(w, seed, l, tr, setup)
	tr.end(setup)
	if err != nil {
		return nil, nil, err
	}
	req := float64(in.requests)
	m.set("trace.gen_ns_per_req", median(st.gen)*1e9/req, "ns")
	k := clusterWorstK(in.spec)

	// serial runs every shard through Spec.RunShard on this goroutine and
	// folds the reports in order; with spans set it records a span per
	// shard, fold and report.
	serial := func(spec fleet.Spec, label string, spans bool) (rep fleet.ClusterReport, shardMs []float64, foldNs int64, events uint64) {
		c := fleet.NewCluster(k)
		parent := 0
		if spans {
			parent = tr.begin(root, label, "fleet")
		}
		for i := 0; i < spec.Shards; i++ {
			var sp int
			if spans {
				sp = tr.begin(parent, "Spec.RunShard", fmt.Sprintf("shard-%d/%s", i, spec.SchemeFor(i)))
			}
			t0 := time.Now()
			r, err := spec.RunShard(i)
			shardMs = append(shardMs, float64(time.Since(t0).Nanoseconds())/1e6)
			if spans {
				tr.end(sp)
			}
			l.op()
			if err != nil {
				l.fail("%s shard %d: %v", label, i, err)
				continue
			}
			if spec.Check && r.SanitizerEvents == 0 {
				l.fail("%s shard %d: sanitizer observed no events", label, i)
			}
			events += r.SanitizerEvents
			if spans {
				sp = tr.begin(parent, "Cluster.Fold", fmt.Sprintf("shard-%d", i))
			}
			t0 = time.Now()
			c.Fold(i, &r)
			foldNs += time.Since(t0).Nanoseconds()
			if spans {
				tr.end(sp)
			}
		}
		if !spans {
			return c.Report(), shardMs, foldNs, events
		}
		sp := tr.begin(parent, "Cluster.Report", "fleet")
		rep = c.Report()
		tr.end(sp)
		tr.end(parent)
		return rep, shardMs, foldNs, events
	}

	var (
		tracedRep  fleet.ClusterReport
		shardMs    []float64
		foldNs     int64
		tracedTime time.Duration
	)
	counts := map[string]int64{}
	profiled(counts, func() {
		t0 := time.Now()
		tracedRep, shardMs, foldNs, _ = serial(in.spec, "pass.traced", true)
		tracedTime = time.Since(t0)
	})
	if tracedRep.Requests != int64(in.requests) {
		l.fail("traced serial pass completed %d of %d requests", tracedRep.Requests, in.requests)
	}
	shares, samples := layerShares(counts)
	ns := float64(tracedTime.Nanoseconds()) / req
	setLayers(m, "fleet", shares, ns)
	rows := []layerRow{{group: "fleet", nsPerReq: ns, shares: shares, samples: samples}}
	sort.Float64s(shardMs)
	m.set("fleet.shard_ms.p50", quantile(shardMs, 0.50), "ms")
	m.set("fleet.shard_ms.p99", quantile(shardMs, 0.99), "ms")
	m.set("fleet.fold_ns", float64(foldNs)/float64(in.spec.Shards), "ns")

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	plainRep, _, _, _ := serial(in.spec, "pass.plain", false)
	plainTime := time.Since(t0)
	runtime.ReadMemStats(&after)
	m.set("alloc_bytes_per_req", float64(after.TotalAlloc-before.TotalAlloc)/req, "B/req")
	m.set("untraced_req_per_s", req/plainTime.Seconds(), "req/s")
	m.set("traced_req_per_s", req/tracedTime.Seconds(), "req/s")

	checkedSpec := in.spec
	checkedSpec.Check = true
	runtime.GC()
	t0 = time.Now()
	checkedRep, _, _, events := serial(checkedSpec, "pass.checked", false)
	checkedTime := time.Since(t0)
	m.set("events_per_req.fleet", float64(events)/req, "events/req")
	m.set("sanitizer_ns_per_req.fleet", float64(checkedTime.Nanoseconds()-plainTime.Nanoseconds())/req, "ns")

	pool := &timingPool{inner: fleet.NewPool(runtime.NumCPU())}
	runtime.GC()
	sp := tr.begin(root, "fleet.Run", "fleet")
	parRep, err := fleet.Run(in.spec, pool)
	parTime := tr.end(sp)
	l.ops(in.spec.Shards)
	ref := digest(tracedRep)
	switch {
	case err != nil:
		l.fail("fleet.Run: %v", err)
	case digest(parRep) != ref:
		l.fail("fleet.Run at %d slots differs from the serial traced pass", pool.Cap())
	}
	l.op()
	if digest(plainRep) != ref {
		l.fail("serial plain pass differs from the serial traced pass")
	}
	if checkedRep.Requests != tracedRep.Requests {
		l.fail("serial checked pass completed %d of %d requests", checkedRep.Requests, tracedRep.Requests)
	}
	m.set("fleet.acquire_wait_frac", float64(pool.wait)/float64(pool.wait+pool.hold), "frac")
	m.set("fleet.speedup", plainTime.Seconds()/parTime.Seconds(), "x")
	m.set("sim.mean_ms.fleet", tracedRep.MeanResponseMs, "ms")
	m.set("sim.energy_J.fleet", tracedRep.EnergyJ, "J")
	m.set("sim.spin_cycles.fleet", float64(tracedRep.SpinCycles), "count")
	return m, rows, nil
}

// quantile is the nearest-rank quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// traceDir holds the traced run's output, relative to the checkout root
// the harness runs from.
const traceDir = ".bench_build/trace"

// writeTraceFiles writes the spans (JSON lines) and the per-layer table
// to traceDir, and prints the table to standard error.
func writeTraceFiles(w *workload, seed int64, tr *tracer, rows []layerRow, m metricSet) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer host time, %s (seed %d): self ns/req (share of traced rolo.Run time)\n", w.name, seed)
	fmt.Fprintf(&b, "%-10s", "layer")
	for _, r := range rows {
		fmt.Fprintf(&b, " %18s", r.group)
	}
	b.WriteString("\n")
	for _, ly := range layers {
		fmt.Fprintf(&b, "%-10s", ly)
		for _, r := range rows {
			v := m["self_ns_per_req."+ly+"."+r.group]
			if !layerApplies(ly, r.group) {
				fmt.Fprintf(&b, " %18s", "-")
				continue
			}
			fmt.Fprintf(&b, " %9.0f (%5.1f%%)", v.Value, 100*v.Value/r.nsPerReq)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-10s", "total")
	for _, r := range rows {
		fmt.Fprintf(&b, " %9.0f (%d smp)", r.nsPerReq, r.samples)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "tracing overhead: traced %.0f req/s vs untraced %.0f req/s (%.1f%% slower)\n",
		m["traced_req_per_s"].Value, m["untraced_req_per_s"].Value,
		100*(m["untraced_req_per_s"].Value/m["traced_req_per_s"].Value-1))
	b.WriteString("span self time by name (ms):\n")
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-20s %10.1f\n", n, float64(self[n].Nanoseconds())/1e6)
	}
	fmt.Fprint(os.Stderr, b.String())
	return os.WriteFile(base+".layers.txt", []byte(b.String()), 0o644)
}
