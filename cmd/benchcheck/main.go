// Command benchcheck is the CI bench-regression gate: it compares a
// fresh `go test -bench` run of internal/bench against the committed
// BENCH_core.txt baseline, both in Go's benchmark text format, and exits
// non-zero when any cell's median throughput collapses below the
// failure tolerance.
//
// Usage (what `make bench-check` runs):
//
//	benchcheck -baseline BENCH_core.txt -fresh BENCH_fresh.txt
//
// Tolerances are generous by design — CI hardware is noisy and slower
// than the machine that recorded the baseline — so the gate trips on
// architectural regressions, not jitter: a cell fails below 0.5× the
// committed edges/sec and warns below 0.8×.
package main

import (
	"flag"
	"fmt"
	"os"

	"streamtri/internal/bench"
)

const (
	failBelow = 0.5 // fail when fresh/baseline edges/sec falls below this
	warnBelow = 0.8 // warn below this
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_core.txt", "committed baseline run")
	freshPath := flag.String("fresh", "BENCH_fresh.txt", "freshly measured run")
	flag.Parse()

	baseline, err := readReport(*baselinePath)
	if err != nil {
		fatal(err)
	}
	fresh, err := readReport(*freshPath)
	if err != nil {
		fatal(err)
	}

	rep := bench.CompareReports(baseline, fresh, failBelow, warnBelow)
	fmt.Printf("bench-regression gate: %s (baseline) vs %s (fresh), fail < %.2fx, warn < %.2fx\n",
		*baselinePath, *freshPath, failBelow, warnBelow)
	rep.Format(os.Stdout)
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		if err := appendMarkdownSummary(path, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck: writing step summary:", err)
		}
	}

	switch {
	case rep.Failed():
		fmt.Println("RESULT: FAIL — throughput regression beyond tolerance")
		os.Exit(1)
	case rep.Warned():
		fmt.Println("RESULT: WARN — some cells below the warning band (not gating)")
	default:
		fmt.Println("RESULT: OK")
	}
}

// appendMarkdownSummary appends the markdown rendering of the gate to
// the GitHub Actions step-summary file (append, not truncate: other
// steps share the file).
func appendMarkdownSummary(path string, rep bench.RegressReport) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	rep.FormatMarkdown(f)
	return f.Close()
}

func readReport(path string) (bench.CoreBenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return bench.CoreBenchReport{}, err
	}
	defer f.Close()
	rep, err := bench.ParseBenchOutput(f)
	if err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Rows) == 0 {
		return rep, fmt.Errorf("%s: no benchmark rows", path)
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
