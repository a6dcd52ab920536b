// Command perfbench is the repository's whole-run benchmark. It replays
// one workload through the simulator's public entry points
// (trace.Lookup/Profile.Generate, rolo.Run, fleet.Run), checks the
// outputs, and prints one JSON result line:
//
//	python3 perfbench/run.py --workload src2_2-burst --seed 101 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics (host time, with no
// tracing in the timed calls). With --trace 1 it makes a separate traced
// run that records spans around every public call, profiles each
// rolo.Run, and splits each scheme's host time across the repository's
// packages. See NOTES.md for the workloads, metrics and noise study.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger counts operations (one rolo.Run or fleet shard each) and the
// checks they failed.
type ledger struct {
	attempted int
	failures  []string
}

func (l *ledger) op() { l.attempted++ }

func (l *ledger) ops(n int) { l.attempted += n }

// fail records a failed operation with its reason.
func (l *ledger) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	l.failures = append(l.failures, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

// fatalf reports a failure of the harness itself (not of the simulator:
// those are failed operations) and exits without a result.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see NOTES.md)")
		seed    = flag.Int64("seed", -1, "input seed; -1 keeps the workload's calibrated seed")
		seconds = flag.Float64("seconds", 30, "how long the timed passes run")
		traced  = flag.Int("trace", 0, "1 makes the traced per-layer run instead of the timed run")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, not %d\n", *traced)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		os.Exit(2)
	}
	// Single-array workloads run on one goroutine; one P keeps the
	// collector's background work off a second, shared core (NOTES.md).
	runtime.GOMAXPROCS(w.procs())

	var (
		l       ledger
		metrics map[string]metric
		err     error
	)
	if *traced == 1 {
		metrics, err = runTraced(w, *seed, &l)
	} else {
		metrics, err = runTimed(w, *seed, *seconds, &l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if l.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation ran")
		os.Exit(1)
	}
	out, err := json.Marshal(result{
		Correct:   len(l.failures) == 0,
		Attempted: l.attempted,
		Failed:    len(l.failures),
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
