// Command perfbench is the repository's end-to-end benchmark. It drives
// the real trictd binary through seeded serving workloads from one
// load-generator process (one producer and one reader connection),
// checks every tenant's final estimate against the library, and prints
// the end-to-end metrics: trictd's CPU time per edge and per recovery
// and its peak memory, with wall-clock throughput and latencies as
// ungated lines. With --trace 1 it instead hosts the server in-process,
// records spans around the handlers, replays the run's POST bodies
// through each module's public functions, and prints the per-layer
// metrics.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	perfbench --workload bulk-load --seed 1 --seconds 15 --trace 0
//	perfbench --workload window-reads --seed 1 --seconds 15 --repeat 10
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "timed-phase length the workload is sized for")
		trace   = flag.Int("trace", 0, "1 = traced in-process run printing the per-layer metrics")
		repeat  = flag.Int("repeat", 0, "steadiness report: run the workload this many times with seeds seed, seed+1, ... and print each end-to-end metric's median and quartiles")
		trictd  = flag.String("trictd", ".bench_build/bin/trictd", "trictd binary")
		work    = flag.String("work", ".bench_build/perfbench", "scratch and input-cache directory")
	)
	flag.Parse()
	killOnSignal()
	if err := run(*name, *seed, *seconds, *trace, *repeat, *trictd, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(name string, seed uint64, seconds, trace, repeat int, trictd, work string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if repeat > 0 {
		return steadiness(name, seed, seconds, repeat, trictd, work)
	}
	if _, err := os.Stat(trictd); err != nil {
		return fmt.Errorf("trictd binary: %w (run perfbench/run.sh, which builds it)", err)
	}
	work, err = filepath.Abs(work)
	if err != nil {
		return err
	}
	trictd, err = filepath.Abs(trictd)
	if err != nil {
		return err
	}
	runDir := filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	p := newPlan(w, seed, seconds)
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
	logf("%s seed=%d seconds=%d trace=%d num_cpu=%d %s", name, seed, seconds, trace, runtime.NumCPU(), runtime.Version())
	in, err := prepareInputs(p, trictd, filepath.Join(work, "cache"), logf)
	if err != nil {
		return err
	}
	// Generation and the reference leave garbage behind; collect it
	// before anything is timed.
	debug.FreeOSMemory()
	var out *output
	if trace == 1 {
		out, err = runTraced(in, runDir, filepath.Join(work, "traces"), logf)
	} else {
		out, err = runServe(in, trictd, runDir, logf)
	}
	if err != nil {
		return err
	}
	return out.print(os.Stdout)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is a run's result; print renders it.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	notes    []string // extra human-readable lines
}

func (o *output) set(name, unit string, v float64) {
	if o.Metrics == nil {
		o.Metrics = make(map[string]metric)
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes one human-readable line per metric, then the JSON result
// as the last line.
func (o *output) print(f *os.File) error {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.Metrics[n]
		fmt.Fprintf(f, "%-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range o.notes {
		fmt.Fprintln(f, n)
	}
	ratio := 0.0
	if o.Attempted > 0 {
		ratio = float64(o.Failed) / float64(o.Attempted)
	}
	fmt.Fprintf(f, "%-44s %14.6g (%d failed of %d attempted)\n", "error_ratio", ratio, o.Failed, o.Attempted)
	for _, p := range o.problems {
		fmt.Fprintln(f, "CHECK FAILED:", p)
	}
	b, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}
