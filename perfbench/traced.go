package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"streamtri"
	"streamtri/internal/serve"
	"streamtri/internal/stream"
)

// runTraced is the per-layer run. It hosts serve.NewServer + Handler in
// this process on a loopback listener, sends the same traffic as the
// untraced run, and records a span around NewServer and each handler
// call, parented to the client's span for that request. It then replays
// the run through the lower modules' public functions, in the server's
// order: the pre-built checkpoint restore and WAL tail, then each POST
// body's Fill, BlockWriter.AppendEdgeBlock, AddBatch + Flush, File.Sync
// and an estimate read, each a span under a replay span that carries
// the POST's request id. The replayed counters must end where the
// server and the library reference end.
func runTraced(in *inputs, runDir, traceDir string, logf func(string, ...any)) (*output, error) {
	out := &output{}
	tr := newTracer()
	quiet := serve.WithLogf(func(string, ...any) {})

	var srv *serve.Server
	var dir string
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.Close()
			os.RemoveAll(dir)
		}
		dir = filepath.Join(runDir, fmt.Sprintf("data-%d", rep))
		if err := copyDir(in.dataDir, dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		srv, err = serve.NewServer(dir, serve.WithWALSyncPolicy(serve.FsyncAlways), quiet)
		if err != nil {
			return nil, fmt.Errorf("serve.NewServer: %w", err)
		}
		tr.add("serve.recover", 0, 0, t0, time.Now(), false)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: traceHandler(srv.Handler(), tr)}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	checkRecovered(in, newClient(base), out)

	var pc processCounters
	lr := runLoad(in, base, tr, pc.mark)
	hs.Shutdown(context.Background())
	<-served
	srv.Close()
	foldLoad(out, lr)
	tracedRate := float64(lr.ackedEdges) / lr.wall.Seconds()

	// The replay writes its WAL segment into the run's data dir, beside
	// the server's own segments, so fsync costs the same.
	rp, err := replay(in, lr.posts, tr, dir)
	if err != nil {
		return nil, err
	}
	out.problems = append(out.problems, rp.problems...)
	overhead, err := countStreamOverhead(in, lr.posts)
	if err != nil {
		return nil, err
	}

	spans := tr.snapshot()
	if err := checkSpans(spans); err != nil {
		out.problems = append(out.problems, "span tree: "+err.Error())
	}
	setLayerMetrics(out, spans, rp, lr, &pc, tracedRate, overhead)
	out.Correct = len(out.problems) == 0 && out.Failed == 0

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, in.name+".spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("%d spans written to %s", len(spans), path))
	return out, nil
}

// traceHandler records a span around each handler call, parented to the
// client span whose id arrives in ridHeader.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		rid, err := strconv.Atoi(r.Header.Get(ridHeader))
		if err != nil || rid == 0 {
			return
		}
		name := "serve.other"
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/edges"):
			name = "serve.ingest"
		case strings.HasSuffix(r.URL.Path, "/estimate"):
			name = "serve.estimate"
		case r.URL.Path == "/v1/checkpoint":
			name = "serve.checkpoint"
		}
		tr.add(name, int32(rid), int32(rid), t0, t1, false)
	})
}

// processCounters are this process's CPU and allocation counters at the
// start and end of the timed phase.
type processCounters struct {
	cpu0, cpu1 time.Duration
	ms0, ms1   runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark takes the counters at the start (k = 0) and the end
// (k = timedChunks) of the timed phase.
func (p *processCounters) mark(k int) {
	switch k {
	case 0:
		runtime.ReadMemStats(&p.ms0)
		p.cpu0 = cpuTime()
	case timedChunks:
		p.cpu1 = cpuTime()
		runtime.ReadMemStats(&p.ms1)
	}
}

// replayResult is what the replay measured besides its spans.
type replayResult struct {
	walTailEdges    uint64 // edges replayed from the pre-built WAL
	timedEdges      uint64 // edges of the timed POSTs
	timedWALBytes   int64  // replay WAL bytes written for timed POSTs
	checkpointBytes []int  // last checkpoint blob size per tenant
	problems        []string
}

// replayTenant is one tenant's counter and WAL segment in the replay.
type replayTenant struct {
	rc  *refCounter
	f   *os.File
	bw  *stream.BlockWriter
	buf []streamtri.Edge
}

// replay restores every tenant from the pre-built data dir through the
// library (checkpoint restore, then the WAL tail block by block), then
// replays every POST of the run in send order.
func replay(in *inputs, posts []postRecord, tr *tracer, dataDir string) (*replayResult, error) {
	res := &replayResult{checkpointBytes: make([]int, in.numTenants)}
	ts := make([]*replayTenant, in.numTenants)
	defer func() {
		for _, t := range ts {
			if t != nil {
				t.rc.close()
				t.f.Close()
			}
		}
	}()
	for i, ti := range in.tenants {
		rc, n, err := restoreTenant(in.dataDir, ti, tr)
		if err != nil {
			return nil, fmt.Errorf("replay restore %s: %w", ti.name, err)
		}
		res.walTailEdges += n
		f, err := os.OpenFile(filepath.Join(dataDir, "replay-"+ti.name+".wal"), os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
		if err != nil {
			rc.close()
			return nil, err
		}
		ts[i] = &replayTenant{rc: rc, f: f, bw: stream.NewBlockWriter(f), buf: make([]streamtri.Edge, in.batchSize())}
		if got := rc.estimate(); got != in.ref.Prebuilt[i] {
			res.problems = append(res.problems, fmt.Sprintf("replay restore %s = %+v, want %+v", ti.name, got, in.ref.Prebuilt[i]))
		}
	}

	var blob bytes.Buffer
	for _, p := range posts {
		if p.checkpoint {
			t0 := time.Now()
			root := tr.reserve()
			for i, t := range ts {
				blob.Reset()
				c0 := time.Now()
				var err error
				if t.rc.pc != nil {
					_, err = t.rc.pc.WriteTo(&blob)
				} else {
					_, err = t.rc.sw.WriteTo(&blob)
				}
				tr.add("counter.checkpoint_write", root, p.rid, c0, time.Now(), p.timed)
				if err != nil {
					return nil, err
				}
				res.checkpointBytes[i] = blob.Len()
			}
			tr.finish(root, "replay.checkpoint", 0, p.rid, t0, time.Now(), p.timed)
			continue
		}
		t := ts[p.tenant]
		body := in.tenants[p.tenant].bodies[p.body]
		var before int64
		if p.timed {
			st, err := t.f.Stat()
			if err != nil {
				return nil, err
			}
			before = st.Size()
		}
		t0 := time.Now()
		root := tr.reserve()
		n, err := replayPost(in.format, body, t, tr, root, p)
		if err != nil {
			return nil, fmt.Errorf("replaying %s body %d: %w", in.tenants[p.tenant].name, p.body, err)
		}
		tr.finish(root, "replay.post", 0, p.rid, t0, time.Now(), p.timed)
		if p.timed {
			st, err := t.f.Stat()
			if err != nil {
				return nil, err
			}
			res.timedEdges += n
			res.timedWALBytes += st.Size() - before
		}
	}
	for i, t := range ts {
		if got := t.rc.estimate(); got != in.ref.Final[i] {
			res.problems = append(res.problems, fmt.Sprintf("replay final %s = %+v, want %+v", in.tenants[i].name, got, in.ref.Final[i]))
		}
	}
	return res, nil
}

// replayPost is one POST's path through the lower modules, in the
// server's order: decode a batch, log it as one WAL block, add it to
// the counter; after the body, flush, fsync the WAL, read the estimate.
func replayPost(f bodyFormat, body []byte, t *replayTenant, tr *tracer, root int32, p postRecord) (uint64, error) {
	step := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		tr.add(name, root, p.rid, t0, time.Now(), p.timed)
		return err
	}
	var bf stream.BatchFiller
	if err := step("stream.source", func() error {
		var err error
		bf, err = bodyFiller(f, bytes.NewReader(body))
		return err
	}); err != nil {
		return 0, err
	}
	var total uint64
	for {
		var n int
		var ferr error
		step("stream.fill", func() error { n, ferr = bf.Fill(t.buf); return nil })
		if n > 0 {
			batch := t.buf[:n]
			if err := step("stream.wal_append", func() error { return t.bw.AppendEdgeBlock(batch) }); err != nil {
				return 0, err
			}
			step("counter.add_batch", func() error { t.rc.addBatch(batch); return nil })
			total += uint64(n)
		}
		if ferr == io.EOF {
			break
		}
		if ferr != nil {
			return 0, ferr
		}
	}
	step("counter.flush", func() error { t.rc.flush(); return nil })
	if err := step("serve.wal_sync", t.f.Sync); err != nil {
		return 0, err
	}
	step("counter.estimate", func() error {
		if t.rc.pc != nil {
			t.rc.pc.Snapshot()
		} else {
			t.rc.sw.EstimateTriangles()
		}
		return nil
	})
	return total, nil
}

// bodyFiller builds the decoder trictd builds for a body of format f
// (internal/serve's bodySource): the text decoder, or, behind a
// bufio.Reader, the plain or v2-block binary decoder with timestamps
// stripped.
func bodyFiller(f bodyFormat, r io.Reader) (stream.BatchFiller, error) {
	var src streamtri.Source
	switch f {
	case formatText:
		src = streamtri.NewEdgeListSource(r)
	case formatPlain:
		src = streamtri.NewBinaryEdgeSource(bufio.NewReader(r))
	default:
		src = streamtri.StripTimestamps(streamtri.NewBlockBinaryEdgeSource(bufio.NewReader(r)))
	}
	bf, ok := src.(stream.BatchFiller)
	if !ok {
		return nil, fmt.Errorf("%s source %T has no Fill", f, src)
	}
	return bf, nil
}

// restoreTenant rebuilds one tenant from the pre-built data dir the way
// recovery does: the newest checkpoint generation, then every WAL block
// past its position, one AddBatch per block. It returns the counter and
// the number of WAL edges replayed.
func restoreTenant(dataDir string, ti tenantInputs, tr *tracer) (*refCounter, uint64, error) {
	root := tr.reserve()
	t0 := time.Now()
	gens, err := numberedFiles(dataDir, ti.name+".ckpt.")
	if err != nil || len(gens) == 0 {
		return nil, 0, fmt.Errorf("no checkpoint generation (%v)", err)
	}
	gen := gens[len(gens)-1]
	rc := &refCounter{}
	err = func() error {
		f, err := os.Open(gen.path)
		if err != nil {
			return err
		}
		defer f.Close()
		c0 := time.Now()
		if ti.cfg.Window > 0 {
			rc.sw, err = streamtri.RestoreSlidingWindowCounter(f)
		} else {
			rc.pc, err = streamtri.RestoreParallelTriangleCounter(f)
		}
		tr.add("counter.restore", root, 0, c0, time.Now(), false)
		return err
	}()
	if err != nil {
		return nil, 0, err
	}
	segs, err := numberedFiles(dataDir, ti.name+".wal.")
	if err != nil {
		rc.close()
		return nil, 0, err
	}
	var replayed uint64
	var buf []streamtri.Edge
	for _, seg := range segs {
		if seg.n < gen.n {
			continue // wholly covered by the checkpoint
		}
		err := func() error {
			f, err := os.Open(seg.path)
			if err != nil {
				return err
			}
			defer f.Close()
			src := stream.NewBlockBinarySource(f)
			for {
				d0 := time.Now()
				buf, err = src.NextEdgeBlock(buf)
				tr.add("stream.wal_decode", root, 0, d0, time.Now(), false)
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				a0 := time.Now()
				rc.addBatch(buf)
				tr.add("counter.replay", root, 0, a0, time.Now(), false)
				replayed += uint64(len(buf))
			}
		}()
		if err != nil {
			rc.close()
			return nil, 0, fmt.Errorf("wal segment %s: %w", filepath.Base(seg.path), err)
		}
	}
	tr.finish(root, "replay.restore", 0, 0, t0, time.Now(), false)
	return rc, replayed, nil
}

type numberedFile struct {
	n    uint64
	path string
}

// numberedFiles lists dir's files named prefix<number>, by number.
func numberedFiles(dir, prefix string) ([]numberedFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []numberedFile
	for _, e := range ents {
		rest, ok := strings.CutPrefix(e.Name(), prefix)
		if !ok {
			continue
		}
		if n, err := strconv.ParseUint(rest, 10, 64); err == nil {
			out = append(out, numberedFile{n, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].n < out[j].n })
	return out, nil
}

// countStreamOverhead prices CountStream's pipeline against the bare
// counter calls: two fresh counters with tenant 0's config take the
// same timed bodies, one through AddBatch + Flush, the other through
// CountStream over a slice source, alternating body by body, for about
// half a second of counter work. It returns the difference in ns per
// edge; both counters must end equal.
func countStreamOverhead(in *inputs, posts []postRecord) (float64, error) {
	cfg := in.tenants[0].cfg
	a, b := newRefCounter(cfg), newRefCounter(cfg)
	defer a.close()
	defer b.close()
	var tA, tB time.Duration
	var edges uint64
	ctx := context.Background()
	buf := make([]streamtri.Edge, in.batchSize())
	for _, p := range posts {
		if p.checkpoint || p.tenant != 0 || !p.timed {
			continue
		}
		bf, err := bodyFiller(in.format, bytes.NewReader(in.tenants[0].bodies[p.body]))
		if err != nil {
			return 0, err
		}
		var body []streamtri.Edge
		for {
			n, err := bf.Fill(buf)
			body = append(body, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		a.post(body, in.batchSize())
		t1 := time.Now()
		if b.pc != nil {
			_, err = b.pc.CountStream(ctx, streamtri.NewSliceSource(body))
			b.pc.Flush()
		} else {
			_, err = b.sw.CountStream(ctx, streamtri.NewSliceSource(body))
		}
		t2 := time.Now()
		if err != nil {
			return 0, err
		}
		tA += t1.Sub(t0)
		tB += t2.Sub(t1)
		edges += uint64(len(body))
		if tA > 500*time.Millisecond {
			break
		}
	}
	if a.estimate() != b.estimate() {
		return 0, fmt.Errorf("CountStream and AddBatch+Flush counters diverged: %+v vs %+v", b.estimate(), a.estimate())
	}
	if edges == 0 {
		return 0, fmt.Errorf("no timed POSTs for tenant 0")
	}
	return float64(tB-tA) / float64(edges), nil
}
