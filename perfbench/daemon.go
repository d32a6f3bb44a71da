package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one running trictd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	log  *os.File
}

var daemonSeq atomic.Int64

// live holds the daemons not yet killed, so that a signal to the
// benchmark can take them down with it.
var live = struct {
	sync.Mutex
	m map[*daemon]bool
}{m: make(map[*daemon]bool)}

// killOnSignal makes SIGINT and SIGTERM kill every live daemon and wait
// for it before the benchmark exits.
func killOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-ch
		live.Lock()
		ds := make([]*daemon, 0, len(live.m))
		for d := range live.m {
			ds = append(ds, d)
		}
		live.Unlock()
		for _, d := range ds {
			d.kill()
		}
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", sig)
		os.Exit(1)
	}()
}

// startDaemon execs trictd on dataDir and waits for /healthz to answer
// 200, returning the time from exec to that answer. trictd's own
// checkpoint timer is set out of the way: checkpoints come from the
// producer at a fixed POST cadence. runDir receives the address file
// and trictd's log.
func startDaemon(bin, dataDir, runDir, walSync string) (*daemon, time.Duration, error) {
	n := daemonSeq.Add(1)
	addrFile := filepath.Join(runDir, fmt.Sprintf("trictd-%d.addr", n))
	logf, err := os.Create(filepath.Join(runDir, fmt.Sprintf("trictd-%d.log", n)))
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-data", dataDir,
		"-wal-sync", walSync, "-checkpoint-interval", "1h")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without running its cleanup, the kernel
	// still takes trictd down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, done: make(chan struct{}), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting trictd: %w", err)
	}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	live.Lock()
	live.m[d] = true
	live.Unlock()

	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	deadline := start.Add(120 * time.Second)
	for {
		select {
		case <-d.done:
			d.kill()
			return nil, 0, fmt.Errorf("trictd exited during start-up (%v); see %s", cmd.ProcessState, logf.Name())
		default:
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if resp, err := probe.Get(d.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(start), nil
				}
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("trictd did not become healthy within 120s; see %s", logf.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// kill SIGKILLs the daemon and waits for it to exit. Safe to repeat.
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
	live.Lock()
	delete(live.m, d)
	live.Unlock()
}

// cpuTime is the daemon's user+sys CPU time so far, over all its
// threads. The kernel leaves out the time the hypervisor stole from a
// vCPU and the time a thread waited for a CPU, so it grows far less
// than wall time when the host or the load generator is busy.
func (d *daemon) cpuTime() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

// procCPU is the CPU time of process pid: the sum over its threads of
// the first field of /proc/<pid>/task/<tid>/schedstat, nanoseconds on a
// CPU. A thread that has exited drops out of the sum; the Go runtime
// keeps its threads for the life of the process.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat is empty", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// procStatusKB reads one "Key:   N kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				return strconv.ParseFloat(fields[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// peakRSSMiB is the daemon's peak resident set (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	kb, err := procStatusKB(d.cmd.Process.Pid, "VmHWM")
	return kb / 1024, err
}

// client is one HTTP/1.1 connection's worth of client: the benchmark
// holds at most two, the producer's and the reader's.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// send makes one request and reads the whole response; the caller's
// clock around it is the request's latency. rid, when set, travels in
// ridHeader so a traced server can tie its spans to the client's. A
// transport error returns status 0; a non-2xx status returns an error
// carrying the response text.
func (c *client) send(method, path string, body []byte, ctype, rid string) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if rid != "" {
		req.Header.Set(ridHeader, rid)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, b, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return resp.StatusCode, b, nil
}

// do is send plus decoding a 2xx JSON response into out (if non-nil).
func (c *client) do(method, path string, body []byte, ctype string, out any) (int, error) {
	st, b, err := c.send(method, path, body, ctype, "")
	if err == nil && out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return st, fmt.Errorf("decoding %s %s response: %w", method, path, err)
		}
	}
	return st, err
}

// ridHeader carries the client's request id to the traced server.
const ridHeader = "X-Bench-Request-Id"
