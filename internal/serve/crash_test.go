package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"streamtri"
	"streamtri/internal/stream"
)

// abandonServer models kill -9: the fault injector latches down (so no
// final checkpoint, sync, or truncate runs) and the tenants' file
// descriptors are released without any of the graceful-shutdown work.
// Bytes already written survive (the page cache outlives the process);
// everything else is lost.
func abandonServer(s *Server) {
	s.faults.mu.Lock()
	s.faults.down = true
	s.faults.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tenants {
		t.mu.Lock()
		t.closed = true
		if t.wal != nil {
			t.wal.close()
		}
		t.mu.Unlock()
	}
	s.tenants = make(map[string]*tenant)
}

// crashTenant is one tenant of the deterministic crash workload.
type crashTenant struct {
	name   string
	cfg    CounterConfig
	bodies [][]streamtri.Edge
}

// crashWorkloadTenants builds the fixed two-tenant workload: one
// whole-stream sharded counter, one sliding-window counter, each
// ingesting four binary bodies with checkpoints interleaved.
func crashWorkloadTenants(t *testing.T) []crashTenant {
	t.Helper()
	split := func(edges []streamtri.Edge, parts int) [][]streamtri.Edge {
		out := make([][]streamtri.Edge, 0, parts)
		per := len(edges) / parts
		for i := 0; i < parts; i++ {
			end := (i + 1) * per
			if i == parts-1 {
				end = len(edges)
			}
			out = append(out, edges[i*per:end])
		}
		return out
	}
	return []crashTenant{
		{name: "ws", cfg: CounterConfig{R: 48, P: 2, Seed: 9, BatchSize: 128}, bodies: split(testEdges(t, 101, 1000), 4)},
		{name: "win", cfg: CounterConfig{R: 32, Window: 300, Seed: 11, BatchSize: 64}, bodies: split(testEdges(t, 102, 800), 4)},
	}
}

// runCrashWorkload drives the fixed script against a fresh durable
// server with hook installed as the fault hook, stopping at the first
// failed step (the crash moment). It returns the server (caller
// abandons or closes it) and each tenant's last acked stream position;
// a tenant absent from the map never had its create acked.
func runCrashWorkload(t *testing.T, dir string, hook func(point string) bool) (*Server, map[string]uint64) {
	t.Helper()
	s, err := NewServer(dir, WithLogf(t.Logf), WithCheckpointRetention(2))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	s.faults.hook = hook
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tenants := crashWorkloadTenants(t)
	acked := make(map[string]uint64)
	for _, ct := range tenants {
		if code := createCounter(t, ts.URL, ct.name, ct.cfg); code != http.StatusCreated {
			return s, acked
		}
		acked[ct.name] = 0
	}
	// Bodies round-robin across tenants with a checkpoint between
	// rounds, so crash points land mid-ingest, mid-checkpoint, and
	// mid-prune for both tenant kinds.
	for round := 0; round < len(tenants[0].bodies); round++ {
		for _, ct := range tenants {
			var res IngestResult
			code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/"+ct.name+"/edges?format=binary",
				binaryBody(t, ct.bodies[round]), &res)
			if code != http.StatusOK {
				return s, acked
			}
			acked[ct.name] = res.TotalEdges
		}
		if round < len(tenants[0].bodies)-1 {
			if _, err := s.CheckpointAll(); err != nil {
				return s, acked
			}
		}
	}
	return s, acked
}

// oracleBlob rebuilds the counter state an uncrashed process would hold
// after absorbing exactly n edges of ct's bodies, using the same batch
// boundaries the ingest pipeline uses (full batches of the configured
// size per body, short final batch), and serializes it. n must land on
// a batch boundary — recovery that lands anywhere else is a bug.
func oracleBlob(t *testing.T, ct crashTenant, n uint64) []byte {
	t.Helper()
	var pc *streamtri.ParallelTriangleCounter
	var sw *streamtri.SlidingWindowCounter
	if ct.cfg.Window > 0 {
		sw = streamtri.NewSlidingWindowCounter(ct.cfg.R, ct.cfg.Window, ct.cfg.options()...)
	} else {
		pc = streamtri.NewParallelTriangleCounter(ct.cfg.R, ct.cfg.P, ct.cfg.options()...)
	}
	w := ct.cfg.effectiveBatchSize()
	fed := uint64(0)
	for _, body := range ct.bodies {
		for off := 0; off < len(body) && fed < n; off += w {
			end := off + w
			if end > len(body) {
				end = len(body)
			}
			batch := body[off:end]
			if fed+uint64(len(batch)) > n {
				t.Fatalf("recovered position %d is not a batch boundary (next boundary %d)", n, fed+uint64(len(batch)))
			}
			if pc != nil {
				pc.AddBatch(batch)
			} else {
				sw.AddBatch(batch)
			}
			fed += uint64(len(batch))
		}
		if fed >= n {
			break
		}
	}
	if fed != n {
		t.Fatalf("workload holds only %d edges, recovery claims %d", fed, n)
	}
	var blob bytes.Buffer
	var err error
	if pc != nil {
		pc.Flush()
		_, err = pc.WriteTo(&blob)
	} else {
		_, err = sw.WriteTo(&blob)
	}
	if err != nil {
		t.Fatalf("oracle WriteTo: %v", err)
	}
	return blob.Bytes()
}

// counterEdges reads a tenant's stream position from its counter
// itself, not from the estimates the tenant published.
func counterEdges(tn *tenant) uint64 {
	switch c := tn.c.(type) {
	case *streamtri.ParallelTriangleCounter:
		return c.Edges()
	case *streamtri.SlidingWindowCounter:
		return c.StreamLength()
	}
	panic(fmt.Sprintf("tenant %q holds a %T", tn.name, tn.c))
}

// verifyRecovered asserts the crash-consistency contract for every
// tenant whose create was acked: the tenant exists, its stream position
// covers every acked edge, and its serialized state is bit-identical to
// an uncrashed oracle at the recovered position.
func verifyRecovered(t *testing.T, s *Server, acked map[string]uint64) {
	t.Helper()
	for _, ct := range crashWorkloadTenants(t) {
		ackedPos, created := acked[ct.name]
		if !created {
			continue
		}
		tn := s.lookup(ct.name)
		if tn == nil {
			t.Fatalf("tenant %q lost after crash (acked through %d)", ct.name, ackedPos)
		}
		pos := counterEdges(tn)
		var blob bytes.Buffer
		if _, err := tn.c.WriteTo(&blob); err != nil {
			t.Fatalf("tenant %q: WriteTo after recovery: %v", ct.name, err)
		}
		if pos < ackedPos {
			t.Fatalf("tenant %q recovered to %d edges, below the acked %d", ct.name, pos, ackedPos)
		}
		if want := oracleBlob(t, ct, pos); !bytes.Equal(blob.Bytes(), want) {
			t.Fatalf("tenant %q at %d edges: recovered state differs from uncrashed oracle", ct.name, pos)
		}
	}
}

// TestServeCrashPointRecovery is the fault-injection property test: the
// workload is first traced to enumerate every crash point it passes,
// then re-run once per selected point with a simulated kill -9 exactly
// there. Whatever the crash point — mid-WAL-append, after append before
// fsync, mid-checkpoint-rename, between generation prune steps —
// recovery must land on a prefix-consistent state covering every acked
// edge, bit-identical to a process that never crashed.
func TestServeCrashPointRecovery(t *testing.T) {
	var mu sync.Mutex
	var trace []string
	s, _ := runCrashWorkload(t, t.TempDir(), func(p string) bool {
		mu.Lock()
		trace = append(trace, p)
		mu.Unlock()
		return false
	})
	abandonServer(s)
	if len(trace) == 0 {
		t.Fatal("workload hit no crash points")
	}

	// Testing every occurrence would run the workload hundreds of
	// times; cover every distinct point's first and last occurrence
	// plus an even sample in between.
	selected := make(map[int]bool)
	first := make(map[string]int)
	for i, p := range trace {
		if _, ok := first[p]; !ok {
			first[p] = i
			selected[i] = true
		}
	}
	last := make(map[string]int)
	for i, p := range trace {
		last[p] = i
	}
	for _, i := range last {
		selected[i] = true
	}
	const extra = 24
	for k := 0; k < extra; k++ {
		selected[k*len(trace)/extra] = true
	}

	for k := range selected {
		k := k
		t.Run(fmt.Sprintf("%03d_%s", k, trace[k]), func(t *testing.T) {
			dir := t.TempDir()
			calls := 0
			s, acked := runCrashWorkload(t, dir, func(string) bool {
				calls++
				return calls-1 == k
			})
			abandonServer(s)
			s2, err := NewServer(dir, WithLogf(t.Logf), WithCheckpointRetention(2))
			if err != nil {
				t.Fatalf("recovery after crash at %s: %v", trace[k], err)
			}
			verifyRecovered(t, s2, acked)
			abandonServer(s2)
		})
	}
}

// TestServeWALReplayWithoutCheckpoint: a tenant that was never
// checkpointed recovers entirely from its metadata and WAL.
func TestServeWALReplayWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	tenants := crashWorkloadTenants(t)
	acked := make(map[string]uint64)
	for _, ct := range tenants {
		if code := createCounter(t, ts.URL, ct.name, ct.cfg); code != http.StatusCreated {
			t.Fatalf("create %s: %d", ct.name, code)
		}
		var res IngestResult
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/"+ct.name+"/edges?format=binary",
			binaryBody(t, ct.bodies[0]), &res); code != http.StatusOK {
			t.Fatalf("ingest %s: %d", ct.name, code)
		}
		acked[ct.name] = res.TotalEdges
	}
	abandonServer(s)
	s2, err := NewServer(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer abandonServer(s2)
	for name, want := range acked {
		tn := s2.lookup(name)
		if tn == nil {
			t.Fatalf("tenant %q lost", name)
		}
		if pos := counterEdges(tn); pos != want {
			t.Fatalf("tenant %q recovered to %d, want %d", name, pos, want)
		}
	}
	verifyRecovered(t, s2, acked)
}

// TestServeCheckpointGenerationFallback: corrupting the newest
// generation makes recovery fall back to the previous one and replay a
// longer WAL tail — still bit-identical to the uncrashed oracle, and
// provably via the older generation (the recovered checkpoint position
// is the older generation's).
func TestServeCheckpointGenerationFallback(t *testing.T) {
	checkGenerationFallback(t, func(data []byte) []byte { return data[:len(data)/3] })
}

// TestServeCheckpointGenerationImpossibleState: a newest generation that
// decodes but holds states no stream produces — every estimator claims
// c = 2^64−1 — is rejected like a truncated one, and recovery falls back
// to the older generation. Restoring it instead would make the WAL
// replay's AddBatch wrap c⁻ + c⁺ and panic NewServer.
func TestServeCheckpointGenerationImpossibleState(t *testing.T) {
	checkGenerationFallback(t, func(data []byte) []byte {
		// The batch size (u64), then the NSTC blob: magic, version,
		// r (u64), m (u64), flags (u8), rng length (u32), rng bytes and
		// r records of 41 bytes, whose c is at bytes 32..40.
		off := 8
		r := int(binary.LittleEndian.Uint64(data[off+8 : off+16]))
		off += 29 + int(binary.LittleEndian.Uint32(data[off+25:off+29]))
		for j := 0; j < r; j, off = j+1, off+41 {
			binary.LittleEndian.PutUint64(data[off+32:off+40], 1<<64-1)
		}
		if off != len(data) {
			t.Fatalf("walked %d of %d checkpoint bytes", off, len(data))
		}
		return data
	})
}

// checkGenerationFallback writes two generations and a WAL tail for the
// whole-stream crash tenant, rewrites the newest generation's bytes
// with damage, and requires recovery from the older generation that is
// bit-identical to the uncrashed oracle.
func checkGenerationFallback(t *testing.T, damage func([]byte) []byte) {
	t.Helper()
	dir := t.TempDir()
	ct := crashWorkloadTenants(t)[0] // the whole-stream tenant
	s, err := NewServer(dir, WithLogf(t.Logf), WithCheckpointRetention(3))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code := createCounter(t, ts.URL, ct.name, ct.cfg); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var res IngestResult
	for round := 0; round < 3; round++ {
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/"+ct.name+"/edges?format=binary",
			binaryBody(t, ct.bodies[round]), &res); code != http.StatusOK {
			t.Fatalf("ingest round %d: %d", round, code)
		}
		if round < 2 {
			if _, err := s.CheckpointAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	acked := res.TotalEdges
	abandonServer(s)

	gens, err := (&Server{dataDir: dir}).listGenerations(ct.name)
	if err != nil || len(gens) != 2 {
		t.Fatalf("want 2 generations, got %v (%v)", gens, err)
	}
	newest, older := gens[0], gens[1]
	data, err := os.ReadFile(newest.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest.path, damage(data), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(dir, WithLogf(t.Logf), WithCheckpointRetention(3))
	if err != nil {
		t.Fatalf("recovery with corrupt newest generation: %v", err)
	}
	defer abandonServer(s2)
	tn := s2.lookup(ct.name)
	if tn == nil {
		t.Fatal("tenant lost")
	}
	if tn.ckptEdges != older.pos {
		t.Fatalf("recovered from generation at %d, want fallback to %d", tn.ckptEdges, older.pos)
	}
	if got := counterEdges(tn); got != acked {
		t.Fatalf("recovered to %d edges, want %d", got, acked)
	}
	var blob bytes.Buffer
	if _, err := tn.c.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	if want := oracleBlob(t, ct, acked); !bytes.Equal(blob.Bytes(), want) {
		t.Fatal("fallback recovery state differs from uncrashed oracle")
	}
}

// TestServeRecoveryQuarantineOneBadTenant: one tenant with trashed
// files must not take down its neighbors — the server starts, the good
// tenant recovers bit-identically, the bad one's files are set aside.
func TestServeRecoveryQuarantineOneBadTenant(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	tenants := crashWorkloadTenants(t)
	for _, ct := range tenants {
		if code := createCounter(t, ts.URL, ct.name, ct.cfg); code != http.StatusCreated {
			t.Fatalf("create %s: %d", ct.name, code)
		}
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/"+ct.name+"/edges?format=binary",
			binaryBody(t, ct.bodies[0]), nil); code != http.StatusOK {
			t.Fatalf("ingest %s: %d", ct.name, code)
		}
	}
	if _, err := s.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	goodBlob := func(srv *Server) []byte {
		tn := srv.lookup("ws")
		var blob bytes.Buffer
		if _, err := tn.c.WriteTo(&blob); err != nil {
			t.Fatal(err)
		}
		return blob.Bytes()
	}
	want := goodBlob(s)
	abandonServer(s)

	// Trash the windowed tenant beyond repair: garbage metadata.
	if err := os.WriteFile((&Server{dataDir: dir}).metaPath("win"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatalf("one bad tenant failed the whole recovery: %v", err)
	}
	defer abandonServer(s2)
	if s2.lookup("win") != nil {
		t.Fatal("bad tenant served anyway")
	}
	if tn := s2.lookup("ws"); tn == nil {
		t.Fatal("good tenant lost to its neighbor's corruption")
	} else if !bytes.Equal(goodBlob(s2), want) {
		t.Fatal("good tenant's recovered state differs")
	}
	// The bad tenant's files are renamed aside, not deleted.
	if _, err := os.Stat((&Server{dataDir: dir}).metaPath("win")); !os.IsNotExist(err) {
		t.Fatal("bad tenant's metadata still in recovery's way")
	}
	quarantined, err := os.ReadFile((&Server{dataDir: dir}).metaPath("win.corrupt"))
	if err != nil || string(quarantined) != "not json" {
		t.Fatalf("quarantined metadata = %q, %v", quarantined, err)
	}
}

// TestServeWALTornTailRecovery: truncating the WAL segment at any byte
// offset — mid-magic, mid-header, mid-payload, at a block boundary —
// recovers exactly the longest whole-block prefix that survived, and
// that prefix's state is bit-identical to the oracle.
func TestServeWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := CounterConfig{R: 32, P: 1, Seed: 7, BatchSize: 100}
	edges := testEdges(t, 103, 300)
	s, err := NewServer(dir, WithLogf(t.Logf), WithWALSyncPolicy(FsyncNone))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code := createCounter(t, ts.URL, "c", cfg); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/c/edges?format=binary",
		binaryBody(t, edges), nil); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	abandonServer(s)

	segs, err := listWALSegments(dir, "c")
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	whole, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: 8-byte magic, then one block per 100-edge ingest batch
	// (short final batch), each a 32-byte header +
	// stream.EdgeBlockRecordBytes per record.
	type boundary struct {
		off   int    // byte offset where the block ends
		edges uint64 // stream position at that boundary
	}
	bounds := []boundary{{8, 0}}
	for got := 0; got < len(edges); {
		n := 100
		if len(edges)-got < n {
			n = len(edges) - got
		}
		got += n
		prev := bounds[len(bounds)-1]
		bounds = append(bounds, boundary{prev.off + 32 + stream.EdgeBlockRecordBytes*n, prev.edges + uint64(n)})
	}
	if want := bounds[len(bounds)-1].off; len(whole) != want {
		t.Fatalf("segment is %d bytes, want %d (%d edges)", len(whole), want, len(edges))
	}
	// Sample truncation points: every block boundary, one byte either
	// side of each, mid-magic, mid-header, and a stride through payloads.
	offsets := []int{0, 1, 7, 8 + 31}
	for _, b := range bounds {
		offsets = append(offsets, b.off)
		if b.off > 0 {
			offsets = append(offsets, b.off-1)
		}
		if b.off < len(whole) {
			offsets = append(offsets, b.off+1)
		}
	}
	for off := 13; off < len(whole); off += 977 {
		offsets = append(offsets, off)
	}
	ct := crashTenant{name: "c", cfg: cfg, bodies: [][]streamtri.Edge{edges}}
	for _, off := range offsets {
		if err := os.WriteFile(segs[0].path, whole[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := NewServer(dir, WithLogf(func(string, ...any) {}))
		if err != nil {
			t.Fatalf("truncation at %d: recovery failed: %v", off, err)
		}
		tn := s2.lookup("c")
		if tn == nil {
			t.Fatalf("truncation at %d: tenant quarantined", off)
		}
		wantEdges := uint64(0)
		for _, b := range bounds {
			if off >= b.off {
				wantEdges = b.edges
			}
		}
		if got := counterEdges(tn); got != wantEdges {
			abandonServer(s2)
			t.Fatalf("truncation at %d: recovered %d edges, want %d", off, got, wantEdges)
		}
		var blob bytes.Buffer
		if _, err := tn.c.WriteTo(&blob); err != nil {
			t.Fatal(err)
		}
		if want := oracleBlob(t, ct, wantEdges); !bytes.Equal(blob.Bytes(), want) {
			abandonServer(s2)
			t.Fatalf("truncation at %d: recovered state differs from oracle", off)
		}
		abandonServer(s2)
	}
}

// TestServeRecoversShardedCheckpoint: a data dir whose newest
// generation is an NSTS envelope of two shards, the checkpoint builds
// that split a tenant's estimators into p shards wrote at p = 2, plus a
// WAL tail, recovers from that generation with no fallback and no
// quarantine, to the checkpoint's position plus the WAL's edges, in the
// state the library reaches by restoring the same checkpoint and
// absorbing the same batches. The envelope is built here from two
// counters' NSTC blobs: the 8-byte batch size, then magic, version, p
// and m, then the blobs in shard order.
func TestServeRecoversShardedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const name, ckptPos = "ws", 600
	cfg := CounterConfig{R: 48, P: 2, Seed: 9, BatchSize: 128}
	edges := testEdges(t, 103, 1000)
	s, ts := newTestServer(t, dir)
	if code := createCounter(t, ts.URL, name, cfg); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	abandonServer(s)

	le := binary.LittleEndian
	ckpt := le.AppendUint64(nil, uint64(cfg.BatchSize))
	ckpt = append(ckpt, "NSTS"...)
	ckpt = le.AppendUint32(ckpt, 1)
	ckpt = le.AppendUint32(ckpt, 2)
	ckpt = le.AppendUint64(ckpt, ckptPos)
	for shard := uint64(0); shard < 2; shard++ {
		c := streamtri.NewTriangleCounter(cfg.R/2, streamtri.WithSeed(shard+1), streamtri.WithBatchSize(cfg.BatchSize))
		c.AddBatch(edges[:ckptPos])
		var blob bytes.Buffer
		if _, err := c.WriteTo(&blob); err != nil {
			t.Fatal(err)
		}
		ckpt = append(ckpt, blob.Bytes()[8:]...)
	}
	if err := os.WriteFile(s.genPath(name, ckptPos), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	wal := newWALWriter(dir, name, ckptPos, FsyncAlways, &faultInjector{})
	ref, err := streamtri.RestoreParallelTriangleCounter(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	for lo := ckptPos; lo < len(edges); lo += cfg.BatchSize {
		batch := edges[lo:min(lo+cfg.BatchSize, len(edges))]
		if err := wal.append(batch); err != nil {
			t.Fatal(err)
		}
		ref.AddBatch(batch)
	}
	if err := wal.close(); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	var logMu sync.Mutex
	s2, err := NewServer(dir, WithLogf(func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(&logs, format+"\n", args...)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tn := s2.lookup(name)
	if tn == nil {
		t.Fatalf("tenant lost; log:\n%s", logs.String())
	}
	if strings.Contains(logs.String(), "fallback") || strings.Contains(logs.String(), "quarantin") {
		t.Fatalf("recovery fell back or quarantined:\n%s", logs.String())
	}
	if corrupt, _ := filepath.Glob(filepath.Join(dir, name+".corrupt*")); len(corrupt) > 0 {
		t.Fatalf("quarantined files: %v", corrupt)
	}
	if pos, est := counterEdges(tn), tn.est.Load().Edges; pos != uint64(len(edges)) || est != pos {
		t.Fatalf("recovered to %d edges, published %d; want %d", pos, est, len(edges))
	}
	var got, want bytes.Buffer
	if _, err := tn.c.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("recovered state differs from the library's restore of the same checkpoint and batches")
	}
}

// TestServeRecoversSixteenByteWAL: a data dir whose WAL holds the
// 16-byte uncompressed records that earlier builds logged (one block per
// ingest batch, zero timestamps) recovers bit-identically; later bodies
// go to a new segment in AppendEdgeBlock's layout, and a second
// recovery replays both segments bit-identically too.
func TestServeRecoversSixteenByteWAL(t *testing.T) {
	dir := t.TempDir()
	tenants := crashWorkloadTenants(t)
	s, ts := newTestServer(t, dir)
	for _, ct := range tenants {
		if code := createCounter(t, ts.URL, ct.name, ct.cfg); code != http.StatusCreated {
			t.Fatalf("create %s: %d", ct.name, code)
		}
	}
	abandonServer(s)

	// Each tenant's first body, logged the earlier way: the writer cuts a
	// block every batch-size records and Close writes the short final
	// one, so the blocks are the ingest batches.
	acked := make(map[string]uint64)
	for _, ct := range tenants {
		body, w := ct.bodies[0], ct.cfg.effectiveBatchSize()
		f, err := os.Create(walSegPath(dir, ct.name, 0))
		if err != nil {
			t.Fatal(err)
		}
		bw := stream.NewBlockWriter(f, stream.WithBlockRecords(w))
		for _, e := range body {
			if err := bw.Write(stream.TimestampedEdge{E: e}); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		blocks := (len(body) + w - 1) / w
		if fi, err := os.Stat(walSegPath(dir, ct.name, 0)); err != nil || fi.Size() != int64(8+32*blocks+16*len(body)) {
			t.Fatalf("%s: hand-written segment is not %d blocks of 16-byte records: %v, %v", ct.name, blocks, fi, err)
		}
		acked[ct.name] = uint64(len(body))
	}

	recoverAt := func(acked map[string]uint64) *Server {
		t.Helper()
		s, err := NewServer(dir, WithLogf(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range acked {
			tn := s.lookup(name)
			if tn == nil {
				t.Fatalf("tenant %q lost", name)
			}
			if pos := counterEdges(tn); pos != want {
				t.Fatalf("tenant %q recovered to %d, want %d", name, pos, want)
			}
		}
		verifyRecovered(t, s, acked)
		return s
	}
	s2 := recoverAt(acked)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for _, ct := range tenants {
		for _, body := range ct.bodies[1:] {
			var res IngestResult
			if code := doJSON(t, http.MethodPost, ts2.URL+"/v1/counters/"+ct.name+"/edges?format=binary",
				binaryBody(t, body), &res); code != http.StatusOK {
				t.Fatalf("ingest %s: %d", ct.name, code)
			}
			acked[ct.name] = res.TotalEdges
		}
		segs, err := listWALSegments(dir, ct.name)
		if err != nil || len(segs) != 2 || segs[1].start != uint64(len(ct.bodies[0])) {
			t.Fatalf("%s: want the old segment and a new one at %d, got %v (%v)", ct.name, len(ct.bodies[0]), segs, err)
		}
		w, want := ct.cfg.effectiveBatchSize(), 8
		for _, body := range ct.bodies[1:] {
			want += 32*((len(body)+w-1)/w) + stream.EdgeBlockRecordBytes*len(body)
		}
		if fi, err := os.Stat(segs[1].path); err != nil || fi.Size() != int64(want) {
			t.Fatalf("%s: new segment is not %d bytes of AppendEdgeBlock blocks: %v, %v", ct.name, want, fi, err)
		}
	}
	abandonServer(s2)
	defer abandonServer(recoverAt(acked))
}

// TestServeWALRotationAndPruning: checkpoints rotate the log and prune
// generations beyond the retention count together with the segments
// they covered; the newest segment survives.
func TestServeWALRotationAndPruning(t *testing.T) {
	dir := t.TempDir()
	ct := crashWorkloadTenants(t)[0]
	s, err := NewServer(dir, WithLogf(t.Logf), WithCheckpointRetention(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code := createCounter(t, ts.URL, ct.name, ct.cfg); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var res IngestResult
	for round := 0; round < 3; round++ {
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/"+ct.name+"/edges?format=binary",
			binaryBody(t, ct.bodies[round]), &res); code != http.StatusOK {
			t.Fatalf("ingest round %d: %d", round, code)
		}
		if _, err := s.CheckpointAll(); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := s.listGenerations(ct.name)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("retention 1 kept %d generations: %v", len(gens), gens)
	}
	if gens[0].pos != res.TotalEdges {
		t.Fatalf("retained generation at %d, want the newest at %d", gens[0].pos, res.TotalEdges)
	}
	// Each checkpoint rotated the log; every rotated segment became
	// covered by the newer generation and was pruned, except the newest,
	// which the cleaner always keeps (recovery tolerates a torn tail only
	// on the final segment, so the final segment must never vanish out
	// from under a concurrent writer).
	segs, err := listWALSegments(dir, ct.name)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 1 {
		t.Fatalf("%d segments survive three covered rotations, want at most 1: %v", len(segs), segs)
	}
}
