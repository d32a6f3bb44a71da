package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamtri"
	"streamtri/internal/gen"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

func testEdges(t *testing.T, seed uint64, n int) []streamtri.Edge {
	t.Helper()
	rng := randx.New(seed)
	return stream.Shuffle(gen.HolmeKim(rng, n, 3, 0.6), rng)
}

func textBody(t *testing.T, edges []streamtri.Edge) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := streamtri.WriteEdgeList(&buf, edges); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func binaryBody(t *testing.T, edges []streamtri.Edge) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := streamtri.WriteBinaryEdges(&buf, edges); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func newTestServer(t *testing.T, dataDir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body io.Reader, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func createCounter(t *testing.T, base, name string, cfg CounterConfig) int {
	t.Helper()
	body, _ := json.Marshal(cfg)
	return doJSON(t, http.MethodPut, base+"/v1/counters/"+name, bytes.NewReader(body), nil)
}

func getEstimate(t *testing.T, base, name string) EstimateResult {
	t.Helper()
	var est EstimateResult
	if code := doJSON(t, http.MethodGet, base+"/v1/counters/"+name+"/estimate", nil, &est); code != 200 {
		t.Fatalf("GET estimate %s: status %d", name, code)
	}
	return est
}

func TestServeCounterLifecycle(t *testing.T) {
	_, ts := newTestServer(t, "")
	cfg := CounterConfig{R: 256, P: 2, Seed: 5}

	if code := createCounter(t, ts.URL, "g1", cfg); code != http.StatusCreated {
		t.Fatalf("create: status %d, want 201", code)
	}
	if code := createCounter(t, ts.URL, "g1", cfg); code != http.StatusOK {
		t.Fatalf("idempotent create: status %d, want 200", code)
	}
	if code := createCounter(t, ts.URL, "g1", CounterConfig{R: 512, P: 2, Seed: 5}); code != http.StatusConflict {
		t.Fatalf("conflicting create: status %d, want 409", code)
	}
	if code := createCounter(t, ts.URL, "bad..name", cfg); code != http.StatusBadRequest {
		t.Fatalf("bad name: status %d, want 400", code)
	}
	if code := createCounter(t, ts.URL, "g2", CounterConfig{R: 0}); code != http.StatusBadRequest {
		t.Fatalf("bad config: status %d, want 400", code)
	}
	if code := createCounter(t, ts.URL, "g3", CounterConfig{R: 2, P: 8}); code != http.StatusBadRequest {
		t.Fatalf("p > r: status %d, want 400", code)
	}

	// Created out of name order: the listing must come back sorted.
	zcfg, acfg := CounterConfig{R: 128, P: 1, Seed: 9}, CounterConfig{R: 64, P: 1, Seed: 3}
	if code := createCounter(t, ts.URL, "zz", zcfg); code != http.StatusCreated {
		t.Fatalf("create zz: status %d, want 201", code)
	}
	if code := createCounter(t, ts.URL, "aa", acfg); code != http.StatusCreated {
		t.Fatalf("create aa: status %d, want 201", code)
	}
	var list []CounterInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/counters", nil, &list); code != 200 {
		t.Fatalf("list: status %d", code)
	}
	want := []CounterInfo{{Name: "aa", Config: acfg}, {Name: "g1", Config: cfg}, {Name: "zz", Config: zcfg}}
	if len(list) != len(want) {
		t.Fatalf("list = %+v, want %+v", list, want)
	}
	for i := range want {
		if list[i] != want[i] {
			t.Fatalf("list = %+v, want %+v", list, want)
		}
	}

	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/counters/g1", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/counters/g1", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/counters/g1/estimate", nil, nil); code != http.StatusNotFound {
		t.Fatalf("estimate after delete: status %d, want 404", code)
	}
}

// TestServeTenantNameRule holds the tenant name rule on both of its
// paths: PUT answers 400, naming the rule, for a name outside it and
// creates the tenant otherwise, and recovery's scan of the data
// directory recovers a metadata file only if its stem follows the
// rule, leaving any other file where it is.
func TestServeTenantNameRule(t *testing.T) {
	// The rule: an ASCII letter or digit, then up to 63 letters,
	// digits, '_' or '-'.
	const rule = "want ^[a-zA-Z0-9][a-zA-Z0-9_-]{0,63}$"
	cases := []struct {
		name  string
		valid bool
	}{
		{"a", true},
		{"7", true},
		{"Z-9_x", true},
		{"a" + strings.Repeat("b_C-", 15) + "xyz", true}, // 64 characters
		{"a" + strings.Repeat("b_C-", 16), false},        // 65 characters
		{"_a", false},
		{"-a", false},
		{"a.b", false},
		{".", false},
		{"a/b", false},
		{"café", false},
		{"é", false},
		{"", false},
		{"a\n", false},
		{"a b", false},
	}
	cfg := CounterConfig{R: 64, P: 1, Seed: 3}
	s, err := NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range cases {
		body, _ := json.Marshal(cfg)
		req := httptest.NewRequest(http.MethodPut, "/v1/counters/x", bytes.NewReader(body))
		req.SetPathValue("name", tc.name)
		rec := httptest.NewRecorder()
		s.handleCreate(rec, req)
		switch {
		case tc.valid && rec.Code != http.StatusCreated:
			t.Errorf("PUT %q: status %d, want 201 (%s)", tc.name, rec.Code, rec.Body)
		case !tc.valid && (rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), rule)):
			t.Errorf("PUT %q: status %d, body %s; want 400 naming the rule", tc.name, rec.Code, rec.Body)
		}
	}

	for _, tc := range cases {
		if strings.Contains(tc.name, "/") {
			continue // not a file name
		}
		dir := t.TempDir()
		meta, _ := json.Marshal(tenantMeta{Name: tc.name, Config: cfg})
		metaPath := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(metaPath, meta, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(dir, WithLogf(t.Logf))
		if err != nil {
			t.Fatalf("recovering %q: %v", tc.name, err)
		}
		if got := s.lookup(tc.name) != nil; got != tc.valid {
			t.Errorf("recovery of %q: tenant served %v, want %v", tc.name, got, tc.valid)
		}
		s.Close()
		if _, err := os.Stat(metaPath); err != nil {
			t.Errorf("recovery of %q moved its metadata: %v", tc.name, err)
		}
	}

	// A quarantined tenant's metadata, <name>.corrupt.json, is skipped,
	// not quarantined again.
	dir := t.TempDir()
	quarantined := filepath.Join(dir, "win.corrupt.json")
	if err := os.WriteFile(quarantined, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatalf("recovery over a quarantined tenant: %v", err)
	}
	s2.Close()
	if got, err := os.ReadFile(quarantined); err != nil || string(got) != "not json" {
		t.Fatalf("quarantined metadata = %q, %v; want it left as it was", got, err)
	}
	if again, _ := filepath.Glob(filepath.Join(dir, "win.corrupt.corrupt*")); len(again) > 0 {
		t.Fatalf("quarantined again: %v", again)
	}
}

// TestServeIngestMatchesLibrary: edges POSTed through the API must
// produce bit-identical estimates to the same edges fed directly to an
// equally-configured counter — text and binary bodies alike.
func TestServeIngestMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, "")
	edges := testEdges(t, 71, 3000)
	cfg := CounterConfig{R: 256, P: 2, Seed: 9}

	// The reference ingests through the same pipeline (same batch
	// partitioning) — batch boundaries are part of the bit-exact state.
	ref := streamtri.NewParallelTriangleCounter(cfg.R, cfg.P, streamtri.WithSeed(cfg.Seed))
	defer ref.Close()
	if _, err := ref.CountStream(context.Background(), streamtri.NewSliceSource(edges)); err != nil {
		t.Fatal(err)
	}
	ref.Flush()
	want := ref.Snapshot()

	for _, tc := range []struct {
		name, format string
		body         *bytes.Buffer
	}{
		{"text-fmt", "?format=text", textBody(t, edges)},
		{"binary-fmt", "?format=binary", binaryBody(t, edges)},
	} {
		if code := createCounter(t, ts.URL, tc.name, cfg); code != http.StatusCreated {
			t.Fatalf("%s: create status %d", tc.name, code)
		}
		var res IngestResult
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/"+tc.name+"/edges"+tc.format, tc.body, &res)
		if code != http.StatusOK {
			t.Fatalf("%s: ingest status %d", tc.name, code)
		}
		if res.Edges != uint64(len(edges)) || res.TotalEdges != uint64(len(edges)) {
			t.Fatalf("%s: ingest result %+v, want %d edges", tc.name, res, len(edges))
		}
		est := getEstimate(t, ts.URL, tc.name)
		if est.Edges != want.Edges || est.Triangles != want.Triangles ||
			est.Wedges != want.Wedges || est.Transitivity != want.Transitivity {
			t.Fatalf("%s: estimate %+v differs from library %+v", tc.name, est, want)
		}
	}
}

// TestServeBinaryContentTypeSniff: with no ?format, octet-stream means
// binary — including the timestamped flavor, detected by magic and
// stripped.
func TestServeBinaryContentTypeSniff(t *testing.T) {
	_, ts := newTestServer(t, "")
	edges := testEdges(t, 73, 1500)
	cfg := CounterConfig{R: 128, P: 1, Seed: 3}

	tsEdges := make([]streamtri.TimestampedEdge, len(edges))
	for i, e := range edges {
		tsEdges[i] = streamtri.TimestampedEdge{E: e, TS: int64(i)}
	}
	var tsBuf bytes.Buffer
	if err := streamtri.WriteTimestampedBinaryEdges(&tsBuf, tsEdges); err != nil {
		t.Fatal(err)
	}

	ref := streamtri.NewParallelTriangleCounter(cfg.R, cfg.P, streamtri.WithSeed(cfg.Seed))
	defer ref.Close()
	if _, err := ref.CountStream(context.Background(), streamtri.NewSliceSource(edges)); err != nil {
		t.Fatal(err)
	}
	wantTri := ref.EstimateTriangles()

	for _, tc := range []struct {
		name string
		body io.Reader
	}{
		{"plainbin", binaryBody(t, edges)},
		{"tsbin", &tsBuf},
	} {
		if code := createCounter(t, ts.URL, tc.name, cfg); code != http.StatusCreated {
			t.Fatalf("%s: create status %d", tc.name, code)
		}
		resp, err := http.Post(ts.URL+"/v1/counters/"+tc.name+"/edges", "application/octet-stream", tc.body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: ingest status %d", tc.name, resp.StatusCode)
		}
		if est := getEstimate(t, ts.URL, tc.name); est.Triangles != wantTri {
			t.Fatalf("%s: estimate %v, want %v", tc.name, est.Triangles, wantTri)
		}
	}
}

// TestServeWindowedTenant: a window config routes to the sliding-window
// estimator, bit-identical to direct library use.
func TestServeWindowedTenant(t *testing.T) {
	_, ts := newTestServer(t, "")
	edges := testEdges(t, 77, 2500)
	cfg := CounterConfig{R: 128, Window: 1000, Seed: 13}

	ref := streamtri.NewSlidingWindowCounter(cfg.R, cfg.Window, streamtri.WithSeed(cfg.Seed))
	ref.AddBatch(edges)

	if code := createCounter(t, ts.URL, "win", cfg); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var res IngestResult
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/win/edges", textBody(t, edges), &res); code != 200 {
		t.Fatalf("ingest: status %d", code)
	}
	est := getEstimate(t, ts.URL, "win")
	if est.Triangles != ref.EstimateTriangles() || est.WindowEdges != ref.WindowEdges() || est.Edges != ref.StreamLength() {
		t.Fatalf("windowed estimate %+v differs from library (τ̂=%v window=%d len=%d)",
			est, ref.EstimateTriangles(), ref.WindowEdges(), ref.StreamLength())
	}
}

// TestServeWindowedConfigIgnoresP: p has no effect on a windowed tenant,
// so it is normalized to 1 — at create, where it then cannot make two
// equal windows conflict, and at recovery, where an older metadata file
// may still carry whatever p a create sent.
func TestServeWindowedConfigIgnoresP(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "old.json"), []byte(`{"name":"old","config":{"r":64,"p":-7,"window":100}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, dir)
	for _, tc := range []struct {
		name, cfg string
		want      int
	}{
		{"w1", `{"r":64,"window":100,"p":3}`, http.StatusCreated},
		{"w1", `{"r":64,"window":100}`, http.StatusOK},
		{"w2", `{"r":64,"window":100,"p":-7}`, http.StatusCreated},
	} {
		if code := doJSON(t, http.MethodPut, ts.URL+"/v1/counters/"+tc.name, strings.NewReader(tc.cfg), nil); code != tc.want {
			t.Fatalf("PUT %s %s: status %d, want %d", tc.name, tc.cfg, code, tc.want)
		}
	}
	var list []CounterInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/counters", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list) != 3 {
		t.Fatalf("list = %+v, want old, w1 and w2", list)
	}
	for _, info := range list {
		if info.Config.P != 1 {
			t.Fatalf("windowed tenant %s listed with p = %d, want 1", info.Name, info.Config.P)
		}
	}
}

// TestServeIngestErrorReportsProgress: a malformed body fails the POST
// but leaves the tenant valid and still serving.
func TestServeIngestErrorReportsProgress(t *testing.T) {
	_, ts := newTestServer(t, "")
	if code := createCounter(t, ts.URL, "g", CounterConfig{R: 64}); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	body := strings.NewReader("1 2\n3 4\nnot an edge line\n")
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/g/edges", body, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed ingest: status %d, want 400", code)
	}
	// Unknown format is rejected before any decode.
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/g/edges?format=csv", strings.NewReader("1 2\n"), nil); code != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/counters/g/estimate", nil, &EstimateResult{}); code != 200 {
		t.Fatalf("estimate after failed ingest: status %d", code)
	}
}

// TestServeQueriesDuringIngest is the serving story under -race: several
// goroutines POST edge chunks to two whole-stream tenants and a windowed
// one while others poll estimates; estimate reads must never block on
// or race with ingestion.
func TestServeQueriesDuringIngest(t *testing.T) {
	_, ts := newTestServer(t, "")
	edges := testEdges(t, 79, 4000)
	names := []string{"a", "b", "w"}
	cfgs := []CounterConfig{{R: 128, P: 2, Seed: 21}, {R: 128, P: 2, Seed: 21}, {R: 128, Window: 1000, Seed: 21}}
	for i, name := range names {
		if code := createCounter(t, ts.URL, name, cfgs[i]); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, code)
		}
	}

	const chunks = 8
	total := uint64(len(edges) / chunks * chunks)
	var writers sync.WaitGroup
	for _, name := range names {
		writers.Add(1)
		go func(name string) {
			defer writers.Done()
			n := len(edges) / chunks
			for i := 0; i < chunks; i++ {
				body := textBody(t, edges[i*n:(i+1)*n])
				code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/"+name+"/edges", body, nil)
				if code != http.StatusOK {
					t.Errorf("ingest %s chunk %d: status %d", name, i, code)
					return
				}
			}
		}(name)
	}
	var readers sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 6; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			name := names[g%len(names)]
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				est := getEstimate(t, ts.URL, name)
				if est.Edges < last {
					t.Errorf("reader %d: estimate edges went backwards %d -> %d", g, last, est.Edges)
					return
				}
				last = est.Edges
			}
		}(g)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	for _, name := range names {
		if est := getEstimate(t, ts.URL, name); est.Edges != total {
			t.Fatalf("tenant %s final edges = %d, want %d", name, est.Edges, total)
		}
	}
}

// TestServeReadsDuringStalledPost: a POST whose body stalls mid-batch
// holds a windowed tenant's ingest lock, yet the estimate and the
// listing answer at once, from the last batch boundary.
func TestServeReadsDuringStalledPost(t *testing.T) {
	_, ts := newTestServer(t, "")
	cfg := CounterConfig{R: 64, Window: 1000, Seed: 5, BatchSize: 64}
	if code := createCounter(t, ts.URL, "win", cfg); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	edges := testEdges(t, 83, 100)[:200]

	body, stall := io.Pipe()
	defer stall.Close() // lets the POST finish if the test fails early
	type posted struct {
		code int
		res  IngestResult
		err  error
	}
	done := make(chan posted, 1)
	go func() {
		var p posted
		resp, err := http.Post(ts.URL+"/v1/counters/win/edges", "text/plain", body)
		if p.err = err; err == nil {
			p.code = resp.StatusCode
			p.err = json.NewDecoder(resp.Body).Decode(&p.res)
			resp.Body.Close()
		}
		done <- p
	}()
	if _, err := stall.Write(textBody(t, edges).Bytes()); err != nil {
		t.Fatal(err)
	}

	// 200 edges are three full batches of 64 and 8 edges of a fourth,
	// which waits for the rest of the body.
	client := &http.Client{Timeout: 2 * time.Second}
	get := func(path string, out any) {
		t.Helper()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s during a stalled POST: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s during a stalled POST: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	const boundary = 3 * 64
	var est EstimateResult
	for deadline := time.Now().Add(10 * time.Second); est.Edges != boundary; {
		if est.Edges > boundary || time.Now().After(deadline) {
			t.Fatalf("estimate during a stalled POST at %d edges, want %d", est.Edges, boundary)
		}
		get("/v1/counters/win/estimate", &est)
	}
	var list []CounterInfo
	get("/v1/counters", &list)
	if len(list) != 1 || list[0].Edges != boundary {
		t.Fatalf("listing during a stalled POST = %+v, want win at %d edges", list, boundary)
	}

	stall.Close()
	p := <-done
	if p.err != nil || p.code != http.StatusOK || p.res.Edges != 200 || p.res.TotalEdges != 200 {
		t.Fatalf("POST after the stall: status %d, %+v, %v; want 200 edges", p.code, p.res, p.err)
	}
}

// TestServeCheckpointRecoveryBitIdentical is the kill-and-restart
// contract: estimates after recovery from the data dir are bit-identical
// to the checkpointed state, and the recovered tenant keeps ingesting.
func TestServeCheckpointRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	edges := testEdges(t, 83, 3000)
	half := len(edges) / 2

	s1, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	cfgs := map[string]CounterConfig{
		"ta": {R: 256, P: 2, Seed: 31},
		"tb": {R: 128, P: 1, Seed: 37},
	}
	for name, cfg := range cfgs {
		if code := createCounter(t, ts1.URL, name, cfg); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, code)
		}
		if code := doJSON(t, http.MethodPost, ts1.URL+"/v1/counters/"+name+"/edges", textBody(t, edges[:half]), nil); code != 200 {
			t.Fatalf("ingest %s: status %d", name, code)
		}
	}
	var ck map[string]int
	if code := doJSON(t, http.MethodPost, ts1.URL+"/v1/checkpoint", nil, &ck); code != 200 {
		t.Fatalf("checkpoint: status %d", code)
	}
	if ck["checkpointed"] != 2 {
		t.Fatalf("checkpointed %d tenants, want 2", ck["checkpointed"])
	}
	want := map[string]EstimateResult{}
	for name := range cfgs {
		want[name] = getEstimate(t, ts1.URL, name)
	}
	// Kill without graceful close: the periodic checkpoint already
	// persisted the state we hold estimates for.
	ts1.Close()

	s2, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})
	for name, cfg := range cfgs {
		got := getEstimate(t, ts2.URL, name)
		if got != want[name] {
			t.Fatalf("%s: recovered estimate %+v != checkpointed %+v", name, got, want[name])
		}
		// Recreating with the same config is still idempotent-OK.
		if code := createCounter(t, ts2.URL, name, cfg); code != http.StatusOK {
			t.Fatalf("%s: re-create after recovery: status %d", name, code)
		}
	}

	// The recovered counter must evolve exactly like a never-restarted
	// one: feed the second half and compare against a reference.
	if code := doJSON(t, http.MethodPost, ts2.URL+"/v1/counters/ta/edges", textBody(t, edges[half:]), nil); code != 200 {
		t.Fatalf("post-recovery ingest: status %d", code)
	}
	ref := streamtri.NewParallelTriangleCounter(256, 2, streamtri.WithSeed(31))
	defer ref.Close()
	for _, part := range [][]streamtri.Edge{edges[:half], edges[half:]} {
		if _, err := ref.CountStream(context.Background(), streamtri.NewSliceSource(part)); err != nil {
			t.Fatal(err)
		}
	}
	got := getEstimate(t, ts2.URL, "ta")
	if got.Triangles != ref.EstimateTriangles() {
		t.Fatalf("post-recovery estimate %v != reference %v", got.Triangles, ref.EstimateTriangles())
	}
}

// TestServeCheckpointSkipsUnchanged: tenants whose stream hasn't
// advanced since their last checkpoint — whole-stream and windowed
// alike — don't produce checkpoint writes.
func TestServeCheckpointSkipsUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	edges := testEdges(t, 89, 1000)
	if code := createCounter(t, ts.URL, "whole", CounterConfig{R: 64, Seed: 1}); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := createCounter(t, ts.URL, "win", CounterConfig{R: 64, Window: 100, Seed: 1}); code != http.StatusCreated {
		t.Fatalf("create windowed: %d", code)
	}
	for _, name := range []string{"whole", "win"} {
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/"+name+"/edges", textBody(t, edges), nil); code != 200 {
			t.Fatalf("ingest %s: %d", name, code)
		}
	}
	if n, err := s.CheckpointAll(); err != nil || n != 2 {
		t.Fatalf("first CheckpointAll = (%d, %v), want (2, nil)", n, err)
	}
	if n, err := s.CheckpointAll(); err != nil || n != 0 {
		t.Fatalf("idle CheckpointAll = (%d, %v), want (0, nil)", n, err)
	}
	// Advancing only the windowed tenant re-checkpoints only it.
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/win/edges", textBody(t, testEdges(t, 97, 200)), nil); code != 200 {
		t.Fatalf("second windowed ingest: %d", code)
	}
	if n, err := s.CheckpointAll(); err != nil || n != 1 {
		t.Fatalf("post-ingest CheckpointAll = (%d, %v), want (1, nil)", n, err)
	}
}

// loadTenants starts a durable server in a fresh directory whose
// tenants, one per name, have each taken one POST of 500 edges.
func loadTenants(t *testing.T, names ...string) *Server {
	t.Helper()
	s, err := NewServer(t.TempDir(), WithLogf(t.Logf), WithCheckpointRetention(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	h := s.Handler()
	for i, name := range names {
		if code := createCounterVia(h, name, CounterConfig{R: 32, Seed: uint64(i + 1)}); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, code)
		}
		if err := postBinary(h, name, binaryBody(t, testEdges(t, uint64(91+i), 500)).Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// blockCheckpoint makes the next checkpoint write of tenant name fail,
// by putting a directory where its temp file goes, and returns a func
// that removes the directory.
func blockCheckpoint(t *testing.T, s *Server, name string) func() {
	t.Helper()
	tmp := s.genPath(name, s.lookup(name).edges()) + ".tmp"
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.Remove(tmp); err != nil {
			t.Fatal(err)
		}
	}
}

// checkGenerations requires tenant name to have exactly want checkpoint
// generations, the newest at its current position.
func checkGenerations(t *testing.T, s *Server, name string, want int) {
	t.Helper()
	gens, err := s.listGenerations(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != want || want > 0 && gens[0].pos != s.lookup(name).edges() {
		t.Fatalf("%s has generations %+v, want %d, the newest at %d", name, gens, want, s.lookup(name).edges())
	}
}

// TestServeCheckpointRetriedAfterFailedWrite: a checkpoint whose file
// write failed is written by the next CheckpointAll, though the tenant
// took no edges in between. Without the retry every later call skips
// the idle tenant, the final one at shutdown included, and reports
// success.
func TestServeCheckpointRetriedAfterFailedWrite(t *testing.T) {
	s := loadTenants(t, "a")
	unblock := blockCheckpoint(t, s, "a")
	if n, err := s.CheckpointAll(); err == nil || n != 0 {
		t.Fatalf("blocked CheckpointAll = (%d, %v), want (0, an error)", n, err)
	}
	unblock()
	if n, err := s.CheckpointAll(); err != nil || n != 1 {
		t.Fatalf("CheckpointAll after the failure = (%d, %v), want (1, nil)", n, err)
	}
	checkGenerations(t, s, "a", 1)
}

// TestServeCheckpointPastFailingTenant: one tenant whose checkpoint
// fails does not stop the checkpoints of the tenants after it, and the
// error names the tenant that failed.
func TestServeCheckpointPastFailingTenant(t *testing.T) {
	s := loadTenants(t, "a", "b")
	unblock := blockCheckpoint(t, s, "a")
	n, err := s.CheckpointAll()
	if err == nil || n != 1 || !strings.Contains(err.Error(), `"a"`) || strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("CheckpointAll = (%d, %v), want (1, an error naming only \"a\")", n, err)
	}
	checkGenerations(t, s, "a", 0)
	checkGenerations(t, s, "b", 1)
	unblock()
	if n, err := s.CheckpointAll(); err != nil || n != 1 {
		t.Fatalf("CheckpointAll after the failure = (%d, %v), want (1, nil)", n, err)
	}
	checkGenerations(t, s, "a", 1)
}

// TestServeConcurrentCheckpointAllWritesOnce: CheckpointAll calls that
// overlap write each generation once between them, since they run one
// at a time. A tenant's checkpointed position advances only once its
// generation is durable, so without that two calls would both write
// it. make race runs this.
func TestServeConcurrentCheckpointAllWritesOnce(t *testing.T) {
	names := []string{"a", "b", "c"}
	s := loadTenants(t, names...)
	var writes atomic.Int64
	s.faults.hook = func(point string) bool {
		if point == "ckpt-tmp" {
			writes.Add(1)
		}
		return false
	}
	h := s.Handler()
	for round := 1; round <= 8; round++ {
		var (
			wg      sync.WaitGroup
			written atomic.Int64
		)
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				n, err := s.CheckpointAll()
				if err != nil {
					t.Error(err)
				}
				written.Add(int64(n))
			}()
		}
		close(start)
		wg.Wait()
		if got, want := writes.Load(), int64(round*len(names)); written.Load() != int64(len(names)) || got != want {
			t.Fatalf("round %d: the calls report %d generations and wrote %d in all, want %d and %d", round, written.Load(), got, len(names), want)
		}
		for i, name := range names {
			if err := postBinary(h, name, binaryBody(t, testEdges(t, uint64(100*round+i), 300)).Bytes()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestServeMixedTenantRecovery is the recovery-scan contract for a data
// directory holding both tenant kinds: windowed tenants reappear after
// a restart with config and state intact (the pre-fix behavior was to
// silently drop them), keep evolving exactly like a never-restarted
// counter, and a pre-fix data directory — whose windowed tenants never
// wrote meta or blob — still recovers cleanly.
func TestServeMixedTenantRecovery(t *testing.T) {
	dir := t.TempDir()
	edges := testEdges(t, 101, 2000)
	half := len(edges) / 2
	winCfg := CounterConfig{R: 96, Window: 700, Seed: 41}

	s1, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	if code := createCounter(t, ts1.URL, "whole", CounterConfig{R: 128, P: 2, Seed: 43}); code != http.StatusCreated {
		t.Fatalf("create whole: %d", code)
	}
	if code := createCounter(t, ts1.URL, "win", winCfg); code != http.StatusCreated {
		t.Fatalf("create win: %d", code)
	}
	for _, name := range []string{"whole", "win"} {
		if code := doJSON(t, http.MethodPost, ts1.URL+"/v1/counters/"+name+"/edges", textBody(t, edges[:half]), nil); code != 200 {
			t.Fatalf("ingest %s: %d", name, code)
		}
	}
	var ck map[string]int
	if code := doJSON(t, http.MethodPost, ts1.URL+"/v1/checkpoint", nil, &ck); code != 200 || ck["checkpointed"] != 2 {
		t.Fatalf("checkpoint: status %d, wrote %d tenants (want 2)", code, ck["checkpointed"])
	}
	wantWin := getEstimate(t, ts1.URL, "win")
	wantWhole := getEstimate(t, ts1.URL, "whole")
	ts1.Close()

	s2, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})
	if got := getEstimate(t, ts2.URL, "win"); got != wantWin {
		t.Fatalf("recovered windowed estimate %+v != checkpointed %+v", got, wantWin)
	}
	if got := getEstimate(t, ts2.URL, "whole"); got != wantWhole {
		t.Fatalf("recovered whole-stream estimate %+v != checkpointed %+v", got, wantWhole)
	}
	// Config survived: an idempotent re-create with the original config
	// is OK, a different one conflicts.
	if code := createCounter(t, ts2.URL, "win", winCfg); code != http.StatusOK {
		t.Fatalf("re-create win with original config: %d", code)
	}
	badCfg := winCfg
	badCfg.Window++
	if code := createCounter(t, ts2.URL, "win", badCfg); code != http.StatusConflict {
		t.Fatalf("re-create win with changed window: %d, want conflict", code)
	}

	// The recovered windowed tenant must evolve exactly like a
	// never-restarted one.
	if code := doJSON(t, http.MethodPost, ts2.URL+"/v1/counters/win/edges", textBody(t, edges[half:]), nil); code != 200 {
		t.Fatalf("post-recovery ingest: %d", code)
	}
	ref := streamtri.NewSlidingWindowCounter(winCfg.R, winCfg.Window, streamtri.WithSeed(winCfg.Seed))
	for _, part := range [][]streamtri.Edge{edges[:half], edges[half:]} {
		if _, err := ref.CountStream(context.Background(), streamtri.NewSliceSource(part)); err != nil {
			t.Fatal(err)
		}
	}
	got := getEstimate(t, ts2.URL, "win")
	if got.Triangles != ref.EstimateTriangles() || got.WindowEdges != ref.WindowEdges() || got.Edges != ref.StreamLength() {
		t.Fatalf("post-recovery windowed estimate %+v != reference (tri=%v win=%d edges=%d)",
			got, ref.EstimateTriangles(), ref.WindowEdges(), ref.StreamLength())
	}

	// Pre-fix compatibility: before windowed serialization existed, a
	// windowed tenant left NO files behind. Such a directory must
	// recover without error — just without that tenant.
	if err := s2.removeTenantFiles("win"); err != nil {
		t.Fatal(err)
	}
	s3, err := NewServer(dir)
	if err != nil {
		t.Fatalf("recovery from a pre-fix data dir (no windowed files): %v", err)
	}
	defer s3.Close()
	if s3.lookup("whole") == nil {
		t.Fatal("whole-stream tenant lost recovering a pre-fix data dir")
	}
	if s3.lookup("win") != nil {
		t.Fatal("windowed tenant resurrected without checkpoint files")
	}
}

// TestServeDeleteRemovesCheckpointFiles: DELETE drops the on-disk state
// too, so a restart doesn't resurrect the tenant.
func TestServeDeleteRemovesCheckpointFiles(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	if code := createCounter(t, ts.URL, "gone", CounterConfig{R: 64, Seed: 1}); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/gone/edges", textBody(t, testEdges(t, 91, 500)), nil); code != 200 {
		t.Fatalf("ingest: %d", code)
	}
	if n, err := s.CheckpointAll(); err != nil || n != 1 {
		t.Fatalf("CheckpointAll = (%d, %v)", n, err)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/counters/gone", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	s2, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.lookup("gone") != nil {
		t.Fatal("deleted tenant came back after recovery")
	}
}

// TestServeRecoveryCorruptCheckpoint: a truncated checkpoint blob — of
// either tenant kind — no longer aborts recovery. With the WAL intact
// the tenant is rebuilt from a full replay; with the WAL gone too, the
// tenant is quarantined (files renamed aside) and the server still
// starts.
func TestServeRecoveryCorruptCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  CounterConfig
	}{
		{"whole-stream", CounterConfig{R: 64, Seed: 1}},
		{"windowed", CounterConfig{R: 64, Window: 200, Seed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, ts := newTestServer(t, dir)
			if code := createCounter(t, ts.URL, "c", tc.cfg); code != http.StatusCreated {
				t.Fatalf("create: %d", code)
			}
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/counters/c/edges", textBody(t, testEdges(t, 93, 500)), nil); code != 200 {
				t.Fatalf("ingest: %d", code)
			}
			want := getEstimate(t, ts.URL, "c")
			if _, err := s.CheckpointAll(); err != nil {
				t.Fatal(err)
			}
			gens, err := s.listGenerations("c")
			if err != nil || len(gens) == 0 {
				t.Fatalf("listGenerations = (%v, %v)", gens, err)
			}
			blob := gens[0].path
			data, err := os.ReadFile(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(blob, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}

			// The WAL still reaches back to position 0, so recovery falls
			// past the damaged generation to a full replay — bit-identical.
			s2, err := NewServer(dir, WithLogf(t.Logf))
			if err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(s2.Handler())
			got := getEstimate(t, ts2.URL, "c")
			ts2.Close()
			// Close would re-checkpoint the replayed state; close the WALs
			// without touching the corrupted directory again.
			abandonServer(s2)
			if got != want {
				t.Fatalf("estimate after full-replay recovery %+v != pre-corruption %+v", got, want)
			}

			// With the WAL gone too, the tenant is unrecoverable: the
			// server must start anyway and quarantine the files.
			segs, err := listWALSegments(dir, "c")
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range segs {
				if err := os.Remove(seg.path); err != nil {
					t.Fatal(err)
				}
			}
			s3, err := NewServer(dir, WithLogf(t.Logf))
			if err != nil {
				t.Fatalf("recovery with a corrupt checkpoint and no wal: %v", err)
			}
			defer s3.Close()
			if s3.lookup("c") != nil {
				t.Fatal("unrecoverable tenant served anyway")
			}
			if _, err := os.Stat(s3.metaPath("c")); !os.IsNotExist(err) {
				t.Fatalf("metadata not quarantined: %v", err)
			}
			quarantined, err := os.ReadFile(s3.metaPath("c.corrupt"))
			if err != nil || len(quarantined) == 0 {
				t.Fatalf("quarantined metadata missing: %v", err)
			}
		})
	}
}
