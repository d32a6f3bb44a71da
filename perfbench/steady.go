package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
)

// steadiness runs the workload n times, each a separate process with
// its own seed, and prints every end-to-end metric's median, quartiles
// and spread ((Q3-Q1)/median): the figures the metric bounds in
// BENCHMARK.json are set from.
func steadiness(name string, seed uint64, seconds, n int, trictd, work string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		var stdout bytes.Buffer
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0", "--trictd", trictd, "--work", work)
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		var res output
		if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
			return fmt.Errorf("run with seed %d: parsing result: %w", s, err)
		}
		if !res.Correct || res.Failed != 0 {
			return fmt.Errorf("run with seed %d failed its checks:\n%s", s, stdout.String())
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "perfbench: repeat %d/%d (seed %d): %s\n", i+1, n, s, lastLine(stdout.Bytes()))
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs of %ds, seeds %d..%d\n", name, n, seconds, seed, seed+uint64(n)-1)
	fmt.Printf("%-18s %12s %12s %12s %8s  unit\n", "metric", "q1", "median", "q3", "spread")
	for _, k := range names {
		q1, med, q3 := quartiles(values[k])
		fmt.Printf("%-18s %12.6g %12.6g %12.6g %8.4f  %s\n", k, q1, med, q3, (q3-q1)/med, units[k])
	}
	return nil
}

// lastLine is the last non-empty line of b.
func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}
