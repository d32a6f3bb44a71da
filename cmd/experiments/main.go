// Command experiments regenerates every table and figure from the
// evaluation of "Counting and Sampling Triangles from a Graph Stream"
// (PVLDB 2013), using the synthetic stand-in datasets that
// internal/bench defines.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1,table3,fig4 -trials 5
//	experiments -run table3 -r 1024,131072,1048576
//
// Experiments: fig3, table1, table2, table3, memtable, fig4, fig5, fig6,
// buriol, cliques, window, tangle, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"streamtri/internal/bench"
)

var order = []string{
	"fig3", "table1", "table2", "table3", "memtable",
	"fig4", "fig5", "fig6", "buriol", "cliques", "window", "tangle",
}

func main() {
	runFlag := flag.String("run", "all", "comma-separated experiments or 'all'")
	trials := flag.Int("trials", 5, "trials per cell (the paper uses 5)")
	rList := flag.String("r", "", "comma-separated estimator counts for table3/fig4 (default 1024,16384,131072)")
	flag.Parse()

	cfg := bench.Config{Trials: *trials}
	if *rList != "" {
		for _, tok := range strings.Split(*rList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "experiments: bad -r value %q\n", tok)
				os.Exit(2)
			}
			cfg.RValues = append(cfg.RValues, v)
		}
	}

	want := map[string]bool{}
	if *runFlag == "all" {
		for _, name := range order {
			want[name] = true
		}
	} else {
		for _, tok := range strings.Split(*runFlag, ",") {
			want[strings.TrimSpace(tok)] = true
		}
	}

	runners := map[string]func(){
		"fig3":     func() { bench.Fig3(os.Stdout) },
		"table1":   func() { bench.Table1(os.Stdout, cfg) },
		"table2":   func() { bench.Table2(os.Stdout, cfg) },
		"table3":   func() { bench.Table3(os.Stdout, cfg) },
		"memtable": func() { bench.MemTable(os.Stdout, cfg) },
		"fig4":     func() { bench.Fig4(os.Stdout, cfg) },
		"fig5":     func() { bench.Fig5(os.Stdout, cfg) },
		"fig6":     func() { bench.Fig6(os.Stdout, cfg) },
		"buriol":   func() { bench.BuriolStudy(os.Stdout, cfg) },
		"cliques":  func() { bench.CliqueStudy(os.Stdout, cfg) },
		"window":   func() { bench.WindowStudy(os.Stdout, cfg) },
		"tangle":   func() { bench.TangleStudy(os.Stdout, cfg) },
	}

	ran := 0
	for _, name := range order {
		if !want[name] {
			continue
		}
		delete(want, name)
		start := time.Now()
		runners[name]()
		fmt.Printf("[%s finished in %.1fs]\n\n", name, time.Since(start).Seconds())
		ran++
	}
	for name := range want {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
		os.Exit(2)
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "experiments: nothing to run")
		os.Exit(2)
	}
}
