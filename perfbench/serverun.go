package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"streamtri/internal/serve"
)

// runServe is one untraced run against the real trictd: setupReps
// recoveries of fresh copies of the pre-built data dir (the last one
// stays up), a check that every tenant recovered to its pre-built
// position and estimate, then the load phase.
//
// The gated time metrics are trictd's CPU time, not wall time. On a
// shared 2-vCPU guest the hypervisor steals CPU in phases that last from
// seconds to minutes. A phase that covers a run can double its wall-clock
// figures, while trictd's CPU time, which leaves the stolen time out,
// grows by a quarter at most (README.md, "Steadiness"). The wall-clock
// figures are printed beside them, ungated.
func runServe(in *inputs, trictd, runDir string, logf func(string, ...any)) (*output, error) {
	out := &output{}
	var setupCPU, setupWall []float64
	var d *daemon
	var dir string
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.kill()
			// Deleted within seconds, before write-back, a copy costs no
			// disk time that could land in a later timed phase.
			os.RemoveAll(dir)
		}
		dir = filepath.Join(runDir, fmt.Sprintf("data-%d", rep))
		if err := copyDir(in.dataDir, dir); err != nil {
			return nil, err
		}
		var el time.Duration
		var err error
		d, el, err = startDaemon(trictd, dir, runDir, "always")
		if err != nil {
			return nil, err
		}
		cpu, err := d.cpuTime()
		if err != nil {
			d.kill()
			return nil, err
		}
		setupCPU = append(setupCPU, cpu.Seconds())
		setupWall = append(setupWall, el.Seconds())
		checkRecovered(in, newClient(d.base), out)
	}
	defer d.kill()
	logf("setup: %d recoveries, median %.3fs CPU, %.3fs wall", len(setupCPU), median(setupCPU), median(setupWall))

	// trictd's CPU time at the start of the timed phase and after each
	// chunk's checkpoint.
	cpu := make([]time.Duration, timedChunks+1)
	var cpuErr error
	lr := runLoad(in, d.base, nil, func(k int) {
		c, err := d.cpuTime()
		if err != nil {
			cpuErr = err
		}
		cpu[k] = c
	})
	if cpuErr != nil {
		return nil, cpuErr
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	d.kill()
	foldLoad(out, lr)
	rate, err := chunkCPURate(lr.chunkEdges, cpu)
	if err != nil {
		return nil, err
	}
	out.set("edges_per_cpu_s", "1/s", rate)
	out.set("setup_s", "s", median(setupCPU))
	out.set("peak_rss_mb", "MiB", rss)
	busy := cpu[timedChunks] - cpu[0]

	out.notes = append(out.notes, wallClockNotes(lr)...)
	out.notes = append(out.notes,
		fmt.Sprintf("%-44s %14.6g s (median of %d; printed, not gated)", "setup_wall_s", median(setupWall), len(setupWall)),
		fmt.Sprintf("timed phase: %d edges in %.3fs wall, trictd CPU %.3fs, CPU steal %.1f%% of the machine",
			lr.ackedEdges, lr.wall.Seconds(), busy.Seconds(), stealShare(lr)*100))
	return out, nil
}

// checkRecovered asserts that every tenant came back at its pre-built
// edge position with the library's estimate for that position.
func checkRecovered(in *inputs, c *client, out *output) {
	defer c.close()
	for i, t := range in.tenants {
		var got serve.EstimateResult
		out.Attempted++
		if _, err := c.do("GET", "/v1/counters/"+t.name+"/estimate", nil, "", &got); err != nil {
			out.Failed++
			out.problems = append(out.problems, fmt.Sprintf("recovered estimate %s: %v", t.name, err))
			continue
		}
		if got.Edges != in.prebuiltEdges() || got != in.ref.Prebuilt[i] {
			out.problems = append(out.problems, fmt.Sprintf("recovered %s = %+v, want %+v", t.name, got, in.ref.Prebuilt[i]))
		}
	}
}

// chunkCPURate is the median over the timed chunks of the edges each
// acked per second of trictd CPU time it took; cpu holds trictd's CPU
// time at every chunk boundary. Every chunk carries the same POSTs and
// one checkpoint, and the median keeps a burst of host load during one
// or two chunks out of the figure.
func chunkCPURate(edges []uint64, cpu []time.Duration) (float64, error) {
	if len(edges) == 0 || len(cpu) != len(edges)+1 {
		return 0, fmt.Errorf("%d chunks with %d CPU readings", len(edges), len(cpu))
	}
	rates := make([]float64, len(edges))
	for k, e := range edges {
		busy := cpu[k+1] - cpu[k]
		if busy <= 0 {
			return 0, fmt.Errorf("trictd used no CPU time in timed chunk %d; lengthen the run", k+1)
		}
		rates[k] = float64(e) / busy.Seconds()
	}
	return median(rates), nil
}

// foldLoad adds a load phase's operation counts and check results to out.
func foldLoad(out *output, lr *loadResult) {
	out.Attempted += lr.attempted
	out.Failed += lr.failed
	out.problems = append(out.problems, lr.problems...)
	out.Correct = len(out.problems) == 0 && out.Failed == 0
}

// wallClockNotes renders the timed phase's wall-clock throughput and
// latencies as printed lines. They are not gated: a steal phase that
// covers a run moves them by tens of percent (README.md, "Steadiness").
// A percentile is printed only with at least minTail samples beyond it.
func wallClockNotes(lr *loadResult) []string {
	lines := []string{fmt.Sprintf("%-44s %14.6g 1/s (wall clock; printed, not gated)",
		"edges_per_s", float64(lr.ackedEdges)/lr.wall.Seconds())}
	for _, m := range []struct {
		name    string
		samples []float64
	}{
		{"ack", lr.ackMs},
		{"estimate", lr.estMs},
	} {
		for _, q := range []struct {
			name string
			p    float64
		}{{"p50", 0.5}, {"p90", 0.9}} {
			name := m.name + "_" + q.name + "_ms"
			v, ok := percentile(m.samples, q.p)
			if !ok {
				lines = append(lines, fmt.Sprintf("%-44s %14s (%d samples, too few)", name, "-", len(m.samples)))
				continue
			}
			lines = append(lines, fmt.Sprintf("%-44s %14.6g ms (%d samples; wall clock; printed, not gated)", name, v, len(m.samples)))
		}
	}
	return lines
}

// stealShare is the share of the machine's CPU time the hypervisor stole
// during the timed phase.
func stealShare(lr *loadResult) float64 {
	avail := lr.wall.Seconds() * clockTicks * float64(runtime.NumCPU())
	return float64(lr.steal) / avail
}
