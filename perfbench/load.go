package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"streamtri/internal/serve"
)

// postRecord is one ingest POST as sent, in send order: what the
// traced replay walks.
type postRecord struct {
	tenant, body int
	rid          int32 // client span id (traced runs)
	timed        bool
	checkpoint   bool // a POST /v1/checkpoint, not an ingest
}

// loadResult is what one load phase measured and checked.
type loadResult struct {
	ackMs      []float64 // timed ingest POSTs, send to ack
	estMs      []float64 // timed estimate GETs, from scheduled send time to response
	lateMs     []float64 // timed estimate GETs, actual minus scheduled send
	ackedEdges uint64    // edges acked by 200s in the timed phase
	chunkEdges []uint64  // the same, chunk by chunk
	wall       time.Duration
	steal      uint64 // CPU steal ticks, all CPUs, over the timed phase
	posts      []postRecord

	attempted, failed int
	problems          []string
}

func (r *loadResult) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// clockTicks is how many of the clock ticks /proc/stat counts in make a
// second: USER_HZ, 100 on every architecture Go runs Linux on.
const clockTicks = 100

// stealTicks is the machine's CPU steal time so far, summed over CPUs,
// in clock ticks (the "steal" column of /proc/stat): time the
// hypervisor ran something else while a vCPU had work. It reads 0 where
// /proc/stat has no such column.
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseUint(f[8], 10, 64)
	return n
}

// getSample is one estimate GET seen by the reader.
type getSample struct {
	due, sent, done time.Time
	tenant          int
	ok              bool
	edges           uint64
	err             error
}

// runLoad drives the warm-up and the timed phase: one producer (this
// goroutine, a closed loop over the POST bodies, round-robin over the
// tenants, with a POST /v1/checkpoint closing each timed chunk) and
// one reader (an open loop at readRate GETs/s, each timed from its
// scheduled send time). Each has its own connection. With tr set, every
// request gets a client span whose id travels to the server. mark, if
// set, is called with 0 just before the timed phase and with k just
// after timed chunk k (1..timedChunks) has been checkpointed, so the
// caller can read its counters at every chunk boundary.
func runLoad(in *inputs, base string, tr *tracer, mark func(k int)) *loadResult {
	prod, read := newClient(base), newClient(base)
	defer prod.close()
	defer read.close()
	res := &loadResult{}
	T := in.numTenants
	pos := make([]uint64, T)
	for i := range pos {
		pos[i] = in.prebuiltEdges()
	}
	var timedFrom atomic.Int64 // unix ns when the timed phase began; 0 before
	stop := make(chan struct{})
	gets := make(chan []getSample, 1)
	start := time.Now()
	go func() { gets <- runReader(read, in, start, stop, tr, &timedFrom) }()

	send := func(method, path string, body []byte, ctype, name string, timed bool) (int32, time.Duration, []byte, error) {
		var id int32
		rid := ""
		if tr != nil {
			id = tr.reserve()
			rid = strconv.Itoa(int(id))
		}
		t0 := time.Now()
		_, b, err := prod.send(method, path, body, ctype, rid)
		t1 := time.Now()
		if tr != nil {
			tr.finish(id, name, 0, id, t0, t1, timed)
		}
		res.attempted++
		if err != nil {
			res.failed++
		}
		return id, t1.Sub(t0), b, err
	}
	post := func(g int, timed bool) {
		tenant, k := g%T, in.prefixPosts+in.tailPosts+g/T
		t := &in.tenants[tenant]
		id, el, b, err := send("POST", "/v1/counters/"+t.name+"/edges", t.bodies[k], in.format.contentType(), "loadgen.post", timed)
		res.posts = append(res.posts, postRecord{tenant: tenant, body: k, rid: id, timed: timed})
		if err != nil {
			res.problem("ingest %s body %d: %v", t.name, k, err)
			return
		}
		var ir serve.IngestResult
		if err := json.Unmarshal(b, &ir); err != nil {
			res.problem("ingest %s body %d: %v", t.name, k, err)
			return
		}
		pos[tenant] += uint64(in.bodyEdges)
		if ir.Edges != uint64(in.bodyEdges) || ir.TotalEdges != pos[tenant] {
			res.problem("ingest %s body %d acked %d edges at total %d, want %d at %d",
				t.name, k, ir.Edges, ir.TotalEdges, in.bodyEdges, pos[tenant])
		}
		if timed {
			res.ackMs = append(res.ackMs, ms(el))
			res.ackedEdges += ir.Edges
			res.chunkEdges[len(res.chunkEdges)-1] += ir.Edges
		}
	}

	for g := 0; g < in.warmPosts; g++ {
		post(g, false)
	}
	if mark != nil {
		mark(0)
	}
	steal0 := stealTicks()
	t0 := time.Now()
	timedFrom.Store(t0.UnixNano())
	for c := 0; c < timedChunks; c++ {
		res.chunkEdges = append(res.chunkEdges, 0)
		for j := c * in.chunkPosts(); j < (c+1)*in.chunkPosts(); j++ {
			post(in.warmPosts+j, true)
		}
		id, _, _, err := send("POST", "/v1/checkpoint", nil, "", "loadgen.checkpoint", true)
		res.posts = append(res.posts, postRecord{rid: id, timed: true, checkpoint: true})
		if err != nil {
			res.problem("checkpoint: %v", err)
		}
		if mark != nil {
			mark(c + 1)
		}
	}
	res.wall = time.Since(t0)
	res.steal = stealTicks() - steal0
	t1 := t0.Add(res.wall)
	close(stop)

	last := make([]uint64, T)
	for _, g := range <-gets {
		res.attempted++
		if !g.ok {
			res.failed++
			res.problem("estimate %s: %v", in.tenants[g.tenant].name, g.err)
			continue
		}
		if g.edges < last[g.tenant] || g.edges < in.prebuiltEdges() {
			res.problem("estimate %s went to %d edges after %d", in.tenants[g.tenant].name, g.edges, last[g.tenant])
		}
		last[g.tenant] = g.edges
		if !g.due.Before(t0) && g.due.Before(t1) {
			res.lateMs = append(res.lateMs, ms(g.sent.Sub(g.due)))
			res.estMs = append(res.estMs, ms(g.done.Sub(g.due)))
		}
	}

	// Every tenant must end exactly where the library reference ends.
	for i, t := range in.tenants {
		var got serve.EstimateResult
		res.attempted++
		if _, err := prod.do("GET", "/v1/counters/"+t.name+"/estimate", nil, "", &got); err != nil {
			res.failed++
			res.problem("final estimate %s: %v", t.name, err)
			continue
		}
		if got != in.ref.Final[i] {
			res.problem("final estimate %s = %+v, library reference %+v", t.name, got, in.ref.Final[i])
		}
	}
	return res
}

// runReader is the open-loop reader: GET number k is due at
// start + k/readRate, round-robin over the tenants, sent as soon as
// the connection is free at or after that time. It stops at stop.
func runReader(c *client, in *inputs, start time.Time, stop <-chan struct{}, tr *tracer, timedFrom *atomic.Int64) []getSample {
	interval := time.Duration(float64(time.Second) / in.readRate)
	out := make([]getSample, 0, int(in.readRate)*(in.seconds+30))
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-stop:
			return out
		default:
		}
		tenant := k % in.numTenants
		var id int32
		rid := ""
		if tr != nil {
			id = tr.reserve()
			rid = strconv.Itoa(int(id))
		}
		sent := time.Now()
		_, b, err := c.send("GET", "/v1/counters/"+in.tenants[tenant].name+"/estimate", nil, "", rid)
		done := time.Now()
		if tr != nil {
			tf := timedFrom.Load()
			tr.finish(id, "loadgen.get", 0, id, sent, done, tf != 0 && due.UnixNano() >= tf)
		}
		g := getSample{due: due, sent: sent, done: done, tenant: tenant, err: err}
		if err == nil {
			var est serve.EstimateResult
			if err := json.Unmarshal(b, &est); err != nil {
				g.err = err
			} else {
				g.ok, g.edges = true, est.Edges
			}
		}
		out = append(out, g)
	}
}
