package bench

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Bench-regression gate: compare a fresh `go test -bench` run against
// the committed BENCH_core.txt baseline, cell by cell. The tolerances
// are deliberately generous — CI machines are noisy and heterogeneous —
// so the gate catches architectural regressions (a cell collapsing to
// half its committed throughput), not jitter.

// CoreBenchRow is one benchmark cell's throughput.
type CoreBenchRow struct {
	Name        string
	EdgesPerSec float64
}

// CoreBenchReport is one benchmark run, a row per cell.
type CoreBenchReport struct {
	Rows []CoreBenchRow
}

// ParseBenchOutput reads `go test -bench` output. A cell is named as its
// benchmark, less the "Benchmark" prefix and the "-N" GOMAXPROCS
// suffix; its row holds the median Medges/s of its runs, in edges/s,
// and rows keep the order in which cells first appear. Lines other
// than results (goos:, pkg:, PASS, ok) are skipped, and a result
// without Medges/s is an error naming its cell.
func ParseBenchOutput(r io.Reader) (CoreBenchReport, error) {
	var rep CoreBenchReport
	runs := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
			continue // -v prints a cell's name alone before its result
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		mps, found := 0.0, false
		for i := 3; i < len(f); i += 2 { // value-unit pairs follow the count
			if f[i] == "Medges/s" {
				var err error
				if mps, err = strconv.ParseFloat(f[i-1], 64); err != nil {
					return rep, fmt.Errorf("cell %s: %v", name, err)
				}
				found = true
				break
			}
		}
		if !found {
			return rep, fmt.Errorf("cell %s reports no Medges/s", name)
		}
		if _, seen := runs[name]; !seen {
			rep.Rows = append(rep.Rows, CoreBenchRow{Name: name})
		}
		runs[name] = append(runs[name], mps)
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	for i := range rep.Rows {
		rep.Rows[i].EdgesPerSec = median(runs[rep.Rows[i].Name]) * 1e6
	}
	return rep, nil
}

// RegressStatus classifies one compared cell.
type RegressStatus string

const (
	RegressOK   RegressStatus = "ok"
	RegressWarn RegressStatus = "warn"
	RegressFail RegressStatus = "fail"
)

// RegressRow is the comparison of one benchmark cell.
type RegressRow struct {
	Name        string
	BaselineEPS float64 // committed edges/sec
	FreshEPS    float64 // measured edges/sec
	Ratio       float64 // fresh / baseline
	Status      RegressStatus
}

// RegressReport is the outcome of a baseline comparison.
type RegressReport struct {
	Rows    []RegressRow
	Missing []string // cells in the baseline absent from the fresh run (a fail)
	New     []string // cells only in the fresh run (informational)
}

// CompareReports matches cells by name and classifies each fresh/baseline
// throughput ratio: below failBelow is a failure, below warnBelow a
// warning, otherwise ok. Baseline cells missing from the fresh run are
// failures (a renamed or dropped cell must update the baseline
// deliberately); new cells are reported informationally.
func CompareReports(baseline, fresh CoreBenchReport, failBelow, warnBelow float64) RegressReport {
	freshByName := make(map[string]CoreBenchRow, len(fresh.Rows))
	for _, row := range fresh.Rows {
		freshByName[row.Name] = row
	}
	var rep RegressReport
	seen := make(map[string]bool, len(baseline.Rows))
	for _, base := range baseline.Rows {
		seen[base.Name] = true
		f, ok := freshByName[base.Name]
		if !ok {
			rep.Missing = append(rep.Missing, base.Name)
			continue
		}
		row := RegressRow{
			Name:        base.Name,
			BaselineEPS: base.EdgesPerSec,
			FreshEPS:    f.EdgesPerSec,
		}
		if base.EdgesPerSec > 0 {
			row.Ratio = f.EdgesPerSec / base.EdgesPerSec
		}
		switch {
		case row.Ratio < failBelow:
			row.Status = RegressFail
		case row.Ratio < warnBelow:
			row.Status = RegressWarn
		default:
			row.Status = RegressOK
		}
		rep.Rows = append(rep.Rows, row)
	}
	for _, row := range fresh.Rows {
		if !seen[row.Name] {
			rep.New = append(rep.New, row.Name)
		}
	}
	return rep
}

// Failed reports whether the comparison should gate a build: any failing
// cell or any baseline cell missing from the fresh run.
func (r RegressReport) Failed() bool {
	if len(r.Missing) > 0 {
		return true
	}
	for _, row := range r.Rows {
		if row.Status == RegressFail {
			return true
		}
	}
	return false
}

// Warned reports whether any cell fell into the warning band.
func (r RegressReport) Warned() bool {
	for _, row := range r.Rows {
		if row.Status == RegressWarn {
			return true
		}
	}
	return false
}

// Format renders the comparison as an aligned table.
func (r RegressReport) Format(w io.Writer) {
	fmt.Fprintf(w, "%-44s %14s %14s %7s  %s\n", "cell", "baseline e/s", "fresh e/s", "ratio", "status")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %6.2fx  %s\n",
			row.Name, row.BaselineEPS, row.FreshEPS, row.Ratio, row.Status)
	}
	for _, name := range r.Missing {
		fmt.Fprintf(w, "%-44s %14s %14s %7s  fail (missing from fresh run)\n", name, "-", "-", "-")
	}
	for _, name := range r.New {
		fmt.Fprintf(w, "%-44s %14s %14s %7s  new cell (not in baseline)\n", name, "-", "-", "-")
	}
}

// FormatMarkdown renders the comparison as a GitHub-flavored markdown
// table — the $GITHUB_STEP_SUMMARY rendering of the gate, so a CI run's
// verdict is readable from the job summary without digging through logs.
func (r RegressReport) FormatMarkdown(w io.Writer) {
	verdict := map[RegressStatus]string{RegressOK: "✅ ok", RegressWarn: "⚠️ warn", RegressFail: "❌ fail"}
	fmt.Fprintln(w, "### Bench-regression gate")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| cell | baseline e/s | fresh e/s | ratio | verdict |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---|")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "| `%s` | %.0f | %.0f | %.2fx | %s |\n",
			row.Name, row.BaselineEPS, row.FreshEPS, row.Ratio, verdict[row.Status])
	}
	for _, name := range r.Missing {
		fmt.Fprintf(w, "| `%s` | — | — | — | ❌ missing from fresh run |\n", name)
	}
	for _, name := range r.New {
		fmt.Fprintf(w, "| `%s` | — | — | — | 🆕 not in baseline |\n", name)
	}
	fmt.Fprintln(w)
	switch {
	case r.Failed():
		fmt.Fprintln(w, "**RESULT: FAIL** — throughput regression beyond tolerance")
	case r.Warned():
		fmt.Fprintln(w, "**RESULT: WARN** — some cells below the warning band (not gating)")
	default:
		fmt.Fprintln(w, "**RESULT: OK**")
	}
}
