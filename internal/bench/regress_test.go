package bench

import (
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func regressReports() (CoreBenchReport, CoreBenchReport) {
	baseline := CoreBenchReport{Rows: []CoreBenchRow{
		{Name: "a", EdgesPerSec: 1000},
		{Name: "b", EdgesPerSec: 1000},
		{Name: "c", EdgesPerSec: 1000},
	}}
	fresh := CoreBenchReport{Rows: []CoreBenchRow{
		{Name: "a", EdgesPerSec: 950},  // ok
		{Name: "b", EdgesPerSec: 700},  // warn at 0.8
		{Name: "c", EdgesPerSec: 400},  // fail at 0.5
		{Name: "d", EdgesPerSec: 1234}, // new cell
	}}
	return baseline, fresh
}

func TestCompareReportsClassification(t *testing.T) {
	baseline, fresh := regressReports()
	rep := CompareReports(baseline, fresh, 0.5, 0.8)
	if len(rep.Rows) != 3 {
		t.Fatalf("compared %d rows, want 3", len(rep.Rows))
	}
	want := map[string]RegressStatus{"a": RegressOK, "b": RegressWarn, "c": RegressFail}
	for _, row := range rep.Rows {
		if row.Status != want[row.Name] {
			t.Fatalf("cell %s: status %s, want %s (ratio %.2f)", row.Name, row.Status, want[row.Name], row.Ratio)
		}
	}
	if len(rep.New) != 1 || rep.New[0] != "d" {
		t.Fatalf("new cells = %v", rep.New)
	}
	if !rep.Failed() || !rep.Warned() {
		t.Fatalf("Failed=%v Warned=%v, want true/true", rep.Failed(), rep.Warned())
	}
}

func TestCompareReportsMissingCellFails(t *testing.T) {
	baseline := CoreBenchReport{Rows: []CoreBenchRow{{Name: "a", EdgesPerSec: 1000}}}
	fresh := CoreBenchReport{Rows: []CoreBenchRow{{Name: "renamed", EdgesPerSec: 1000}}}
	rep := CompareReports(baseline, fresh, 0.5, 0.8)
	if !rep.Failed() {
		t.Fatal("missing baseline cell must fail the gate")
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "a" {
		t.Fatalf("Missing = %v", rep.Missing)
	}
}

func TestCompareReportsCleanPass(t *testing.T) {
	baseline := CoreBenchReport{Rows: []CoreBenchRow{{Name: "a", EdgesPerSec: 1000}}}
	fresh := CoreBenchReport{Rows: []CoreBenchRow{{Name: "a", EdgesPerSec: 1600}}}
	rep := CompareReports(baseline, fresh, 0.5, 0.8)
	if rep.Failed() || rep.Warned() {
		t.Fatalf("Failed=%v Warned=%v on an improvement", rep.Failed(), rep.Warned())
	}
}

func TestRegressReportFormat(t *testing.T) {
	baseline, fresh := regressReports()
	rep := CompareReports(baseline, fresh, 0.5, 0.8)
	var sb strings.Builder
	rep.Format(&sb)
	out := sb.String()
	for _, frag := range []string{"0.40x", "fail", "warn", "new cell"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("formatted report missing %q:\n%s", frag, out)
		}
	}
}

func TestRegressReportFormatMarkdown(t *testing.T) {
	baseline, fresh := regressReports()
	rep := CompareReports(baseline, fresh, 0.5, 0.8)
	rep.Missing = append(rep.Missing, "gone")
	var sb strings.Builder
	rep.FormatMarkdown(&sb)
	out := sb.String()
	for _, frag := range []string{
		"| cell | baseline e/s | fresh e/s | ratio | verdict |",
		"| `c` | 1000 | 400 | 0.40x | ❌ fail |",
		"| `gone` | — | — | — | ❌ missing from fresh run |",
		"| `d` | — | — | — | 🆕 not in baseline |",
		"**RESULT: FAIL**",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("markdown report missing %q:\n%s", frag, out)
		}
	}
}

func TestCompareReportsZeroBaseline(t *testing.T) {
	baseline := CoreBenchReport{Rows: []CoreBenchRow{{Name: "a", EdgesPerSec: 0}}}
	fresh := CoreBenchReport{Rows: []CoreBenchRow{{Name: "a", EdgesPerSec: 100}}}
	rep := CompareReports(baseline, fresh, 0.5, 0.8)
	// A zero baseline cannot be compared; ratio 0 classifies as fail so
	// a corrupt baseline is loud rather than silently green.
	if !rep.Failed() {
		t.Fatal("zero-baseline cell must fail")
	}
}

func TestParseBenchOutput(t *testing.T) {
	cases := []struct {
		name, in string
		want     []CoreBenchRow
		err      string
	}{
		{
			name: "GOMAXPROCS suffix",
			in: "BenchmarkA/w=8-2   \t10\t100 ns/op\t2.5 Medges/s\t64 B/op\n" +
				"BenchmarkB/w=8\t10\t100 ns/op\t3 Medges/s\n",
			want: []CoreBenchRow{{"A/w=8", 2.5e6}, {"B/w=8", 3e6}},
		},
		{
			name: "median of repeats",
			in: "BenchmarkC-4\t1\t1 Medges/s\n" +
				"BenchmarkC-4\t1\t5 Medges/s\n" +
				"BenchmarkC-4\t1\t3 Medges/s\n",
			want: []CoreBenchRow{{"C", 3e6}},
		},
		{
			name: "other lines",
			in: "goos: linux\ngoarch: amd64\npkg: streamtri/internal/bench\ncpu: Intel\n" +
				"BenchmarkD-2\t7\t1.5 Medges/s\n" +
				"PASS\nok  \tstreamtri/internal/bench\t12.3s\n",
			want: []CoreBenchRow{{"D", 1.5e6}},
		},
		{
			name: "no Medges/s",
			in:   "BenchmarkE-2\t1\t1 Medges/s\nBenchmarkF/w=8-2\t10\t100 ns/op\t64 B/op\n",
			err:  "cell F/w=8 reports no Medges/s",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := ParseBenchOutput(strings.NewReader(tc.in))
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("err = %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.Rows, tc.want) {
				t.Fatalf("rows = %v, want %v", rep.Rows, tc.want)
			}
		})
	}
}

// TestCommittedBaselineCells holds the committed baseline to the gated
// cells, so regenerating it cannot drop one unnoticed.
func TestCommittedBaselineCells(t *testing.T) {
	f, err := os.Open("../../BENCH_core.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := ParseBenchOutput(f)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range rep.Rows {
		got = append(got, row.Name)
	}
	sort.Strings(got)
	want := []string{
		"AddBatchFlat/r=4096/w=1024",
		"AddBatchFlat/r=4096/w=16384",
		"AddBatchFlat/r=4096/w=4096",
		"BlockDecodeBulk/w=8192",
		"MultiPipelinedCount/files=2/r=1024/w=8192",
		"OrderedMergedCount/files=2/r=1024/w=8192",
		"OrderedMergedCount/files=64/r=1024/w=8192",
		"OrderedMergedCount/files=8/r=1024/w=8192",
		"OrderedMergedCountV2/files=2/r=1024/w=8192",
		"OrderedMergedCountV2/files=64/r=1024/w=8192",
		"OrderedMergedCountV2/files=8/r=1024/w=8192",
		"PipelinedCount/r=1024/w=8192",
		"ServeIngestUnderReaders/readers=4/r=1024/w=8192",
		"SlurpThenCount/r=1024/w=8192",
		"TextDecodeBulk/w=8192",
		"TextDecodePerEdge/w=8192",
		"TsBinaryDecodeBulk/w=8192",
		"TsTextDecodeBulk/w=8192",
		"TsTextDecodePerEdge/w=8192",
		"WatermarkedCount/files=2/r=1024/w=8192",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCH_core.txt cells:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
