package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"streamtri"
)

// logAndCounterPos reads a tenant's WAL position and its counter's
// stream position under the tenant lock.
func logAndCounterPos(t *testing.T, s *Server, name string) (wal, counter uint64) {
	t.Helper()
	tn := s.lookup(name)
	if tn == nil {
		t.Fatalf("tenant %q missing", name)
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return tn.wal.pos, counterEdges(tn)
}

// verifyRecoveredAt restarts a durable server from dir after the kill
// -9 that abandonServer models, and asserts that ct's tenant recovers to
// exactly pos edges, bit-identical to an uncrashed oracle fed ct's
// bodies in batches of the tenant's size.
func verifyRecoveredAt(t *testing.T, s *Server, dir string, ct crashTenant, pos uint64) {
	t.Helper()
	abandonServer(s)
	s2, err := NewServer(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer abandonServer(s2)
	tn := s2.lookup(ct.name)
	if tn == nil {
		t.Fatalf("tenant %q lost across restart", ct.name)
	}
	got := counterEdges(tn)
	var blob bytes.Buffer
	if _, err := tn.c.WriteTo(&blob); err != nil {
		t.Fatalf("WriteTo after recovery: %v", err)
	}
	if got != pos {
		t.Fatalf("tenant %q recovered to %d edges, want %d", ct.name, got, pos)
	}
	if !bytes.Equal(blob.Bytes(), oracleBlob(t, ct, pos)) {
		t.Fatalf("tenant %q at %d edges: recovered state differs from uncrashed oracle", ct.name, pos)
	}
}

// TestServeWALAppendFailureIsServerError: a WAL append that fails
// mid-body answers 5xx, not the 400 a malformed body gets, and reports
// the edges absorbed before it; the batch the log refused never reaches
// the counter, so recovery lands on the last logged batch boundary.
func TestServeWALAppendFailureIsServerError(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	appends := 0
	s.faults.hook = func(point string) bool {
		if point == "wal-append" {
			appends++
			return appends == 2
		}
		return false
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := CounterConfig{R: 48, P: 2, Seed: 9, BatchSize: 128}
	w := cfg.effectiveBatchSize()
	edges := testEdges(t, 131, 3*w)
	if code := createCounter(t, ts.URL, "ws", cfg); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/counters/ws/edges", "application/octet-stream", binaryBody(t, edges))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 500 {
		t.Fatalf("WAL append failure: status %d (%s), want 5xx", resp.StatusCode, msg)
	}
	if want := fmt.Sprintf("after %d edges", w); !strings.Contains(string(msg), want) {
		t.Fatalf("WAL append failure: body %s does not name %q", msg, want)
	}
	verifyRecoveredAt(t, s, dir, crashTenant{name: "ws", cfg: cfg, bodies: [][]streamtri.Edge{edges}}, uint64(w))
}

// cancelAfter is a request body that delivers one chunk per Read and
// cancels the request's context as it hands over the end of chunk
// number cut, while more of the body remains.
type cancelAfter struct {
	chunks [][]byte
	cut    int
	cancel context.CancelFunc
}

func (c *cancelAfter) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
		if c.cut--; c.cut == 0 {
			c.cancel()
		}
	}
	return n, nil
}

// TestServeFailedIngestLeavesLogAtCounter: a POST that ends early — a
// malformed line, a dropped connection, a cancelled context — leaves
// the WAL exactly at the counter's position, and a restart recovers
// that position bit-identically: no logged batch was left unabsorbed.
func TestServeFailedIngestLeavesLogAtCounter(t *testing.T) {
	cfg := CounterConfig{R: 48, P: 2, Seed: 9, BatchSize: 128}
	w := cfg.effectiveBatchSize()
	edges := testEdges(t, 137, 5*w)
	batchText := func(lo, hi int) []byte { return textBody(t, edges[lo:hi]).Bytes() }

	for _, tc := range []struct {
		name string
		// post sends the failing request and returns once the handler is
		// done, which must leave between lo and hi edges absorbed.
		post   func(t *testing.T, s *Server, done <-chan struct{}, base string)
		lo, hi int
	}{
		{
			name: "malformed-line-in-third-batch",
			post: func(t *testing.T, s *Server, done <-chan struct{}, base string) {
				body := append(batchText(0, 2*w+5), "not an edge\n"...)
				body = append(body, batchText(2*w+5, 5*w)...)
				if code := doJSON(t, http.MethodPost, base+"/v1/counters/ws/edges", bytes.NewReader(body), nil); code != http.StatusBadRequest {
					t.Fatalf("malformed body: status %d, want 400", code)
				}
				<-done
			},
			lo: 2*w + 5, hi: 2*w + 5,
		},
		{
			name: "client-drops-connection",
			post: func(t *testing.T, s *Server, done <-chan struct{}, base string) {
				conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(conn, "POST /v1/counters/ws/edges HTTP/1.1\r\nHost: trictd\r\nContent-Length: %d\r\n\r\n",
					len(batchText(0, 5*w)))
				conn.Write(batchText(0, 2*w))
				conn.Close()
				<-done
			},
			lo: 2 * w, hi: 2 * w,
		},
		{
			// Cancellation stops at a batch boundary, at most the second.
			name: "context-cancelled",
			post: func(t *testing.T, s *Server, done <-chan struct{}, base string) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				body := &cancelAfter{cut: 2, cancel: cancel}
				for b := 0; b < 5; b++ {
					body.chunks = append(body.chunks, batchText(b*w, (b+1)*w))
				}
				req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/counters/ws/edges", body)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				if rec.Code == http.StatusOK {
					t.Fatalf("cancelled ingest acked: %s", rec.Body)
				}
			},
			lo: w, hi: 2 * w,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewServer(dir, WithLogf(t.Logf))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{}, 1)
			ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				s.Handler().ServeHTTP(rw, r)
				if r.Method == http.MethodPost {
					done <- struct{}{}
				}
			}))
			defer ts.Close()
			if code := createCounter(t, ts.URL, "ws", cfg); code != http.StatusCreated {
				t.Fatalf("create: status %d", code)
			}
			tc.post(t, s, done, ts.URL)

			walPos, pos := logAndCounterPos(t, s, "ws")
			if walPos != pos {
				t.Fatalf("WAL at %d edges, counter at %d", walPos, pos)
			}
			if pos < uint64(tc.lo) || pos > uint64(tc.hi) {
				t.Fatalf("counter at %d edges, want %d..%d", pos, tc.lo, tc.hi)
			}
			verifyRecoveredAt(t, s, dir, crashTenant{name: "ws", cfg: cfg, bodies: [][]streamtri.Edge{edges[:pos]}}, pos)
		})
	}
}

// TestServeReusedBuffersCarryNothingOver: the ingest handler reuses its
// read buffer and its batch buffer across POSTs, so a body that fails
// mid-block must leave nothing behind for the next one. Each tenant gets
// a v2 body whose eighth 10-record block fails its bounds check at
// record 5, after the edges before it were copied into the batch;
// then a good v2 body; then a plain-binary body. Each ack must be
// exact, and the tenant must end bit-identical to a library counter fed
// each body's decoded prefix in batches of w.
func TestServeReusedBuffersCarryNothingOver(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	edges := testEdges(t, 81, 200)
	bad, good, plain := v2Body(t, edges[:250]), v2Body(t, edges[250:400]), binaryBody(t, edges[400:500]).Bytes()
	// Block 7 holds records 70..79 with timestamps 70..79; give record 75
	// the timestamp 80 and recompute the block's checksum.
	const k, block, rec = 10, 7, 5
	off := 8 + block*(32+16*k)
	binary.LittleEndian.PutUint64(bad[off+32+16*rec+8:], block*k+k)
	binary.LittleEndian.PutUint32(bad[off+12:], crc32.Checksum(bad[off+32:off+32+16*k], crc32.MakeTable(crc32.Castagnoli)))

	for _, cfg := range []CounterConfig{{R: 32, Seed: 5, BatchSize: 64}, {R: 16, Window: 500, Seed: 6, BatchSize: 64}} {
		name := fmt.Sprintf("w%d", cfg.Window)
		if code := createCounter(t, ts.URL, name, cfg); code != http.StatusCreated {
			t.Fatalf("%s: create status %d", name, code)
		}
		url := ts.URL + "/v1/counters/" + name + "/edges"
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		var fail map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&fail); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		wantErr := "ingest failed after 70 edges: stream: block record 5 timestamp 80 outside declared bounds [70, 79]"
		if resp.StatusCode != http.StatusBadRequest || fail["error"] != wantErr {
			t.Fatalf("%s: failing body answered %d %q, want 400 %q", name, resp.StatusCode, fail["error"], wantErr)
		}
		for i, tc := range []struct {
			body io.Reader
			want IngestResult
		}{
			{bytes.NewReader(good), IngestResult{Edges: 150, TotalEdges: 220}},
			{bytes.NewReader(plain), IngestResult{Edges: 100, TotalEdges: 320}},
		} {
			var res IngestResult
			if code := doJSON(t, http.MethodPost, url+"?format=binary", tc.body, &res); code != http.StatusOK || res != tc.want {
				t.Fatalf("%s: body %d answered %d %+v, want 200 %+v", name, i+2, code, res, tc.want)
			}
		}

		var ref interface {
			AddBatch([]streamtri.Edge)
			WriteTo(io.Writer) (int64, error)
		}
		if cfg.Window > 0 {
			ref = streamtri.NewSlidingWindowCounter(cfg.R, cfg.Window, cfg.options()...)
		} else {
			ref = streamtri.NewParallelTriangleCounter(cfg.R, 1, cfg.options()...)
		}
		for _, body := range [][]streamtri.Edge{edges[:70], edges[250:400], edges[400:500]} {
			for lo := 0; lo < len(body); lo += cfg.BatchSize {
				ref.AddBatch(body[lo:min(lo+cfg.BatchSize, len(body))])
			}
		}
		var want, got bytes.Buffer
		if _, err := ref.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		tn := s.lookup(name)
		tn.mu.Lock()
		_, err = tn.c.WriteTo(&got)
		tn.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: counter differs from the library fed the same batches", name)
		}
	}
}

// v2Body encodes edges as a v2 body of uncompressed 10-record blocks,
// the edge at index i carrying timestamp i.
func v2Body(t *testing.T, edges []streamtri.Edge) []byte {
	t.Helper()
	ts := make([]streamtri.TimestampedEdge, len(edges))
	for i, e := range edges {
		ts[i] = streamtri.TimestampedEdge{E: e, TS: int64(i)}
	}
	var buf bytes.Buffer
	if err := streamtri.WriteBlockBinaryEdges(&buf, ts, streamtri.WithBlockRecords(10)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
