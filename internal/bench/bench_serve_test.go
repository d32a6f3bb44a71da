package bench

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"streamtri/internal/core"
	"streamtri/internal/serve"
)

// BenchmarkServeIngestUnderReaders runs at the (r, w) and on the stream
// of the reader-free PipelinedCount cell, so the two compare directly.
func BenchmarkServeIngestUnderReaders(b *testing.B) {
	data := EncodeBinaryEdges(CoreBenchStream(PipeBenchEdges))
	r, w := PipeBenchR, 8*PipeBenchR
	b.Run(fmt.Sprintf("readers=%d/r=%d/w=%d", ServeBenchReaders, r, w), func(b *testing.B) {
		BenchServeIngestUnderReaders(b, data, w, 2, ServeBenchReaders, core.NewCounter(r, 1))
	})
}

// BenchmarkServeIngestCheckpoint prices trictd's intake in process at
// perfbench bulk-load's shape: a durable whole-stream tenant at
// r = 16,384 takes one plain-binary POST of w = 131,072 edges per op
// through serve.Server's handler — decode, WAL append and fsync, the
// root intake's AddBatch on the tenant's ParallelTriangleCounter,
// publish — and CheckpointAll runs after every 8th op. It reports CPU ns
// per edge beside wall time, and B/op and allocs/op. Its bodies are
// BenchCoreBulkLoad's batches: 16 untimed POSTs warm the tenant, every
// timed POST is one of the 16 after them, and when those run out the
// tenant is deleted and rebuilt untimed.
func BenchmarkServeIngestCheckpoint(b *testing.B) {
	edges := BulkLoadStream()
	bodies := make([][]byte, len(edges)/bulkLoadW)
	for k := range bodies {
		bodies[k] = EncodeBinaryEdges(edges[k*bulkLoadW : (k+1)*bulkLoadW])
	}
	b.Run(fmt.Sprintf("r=%d/w=%d", bulkLoadR, bulkLoadW), func(b *testing.B) {
		benchServeIngestCheckpoint(b, bodies)
	})
}

func benchServeIngestCheckpoint(b *testing.B, bodies [][]byte) {
	const ckptEvery = 8
	s, err := serve.NewServer(b.TempDir(), serve.WithLogf(b.Logf))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	do := func(method, path string, body []byte, want int) {
		req, err := http.NewRequest(method, path, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			b.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
	}
	const tenant = "/v1/counters/bulk"
	warm := func() {
		do(http.MethodPut, tenant, []byte(fmt.Sprintf(`{"r":%d}`, bulkLoadR)), http.StatusCreated)
		for _, body := range bodies[:bulkLoadWarmup] {
			do(http.MethodPost, tenant+"/edges", body, http.StatusOK)
		}
		if _, err := s.CheckpointAll(); err != nil {
			b.Fatal(err)
		}
	}
	warm()
	b.ReportAllocs()
	var cpu cpuMeter
	b.ResetTimer()
	cpu.start()
	for i, k := 0, bulkLoadWarmup; i < b.N; i, k = i+1, k+1 {
		if k == len(bodies) {
			cpu.stop()
			b.StopTimer()
			do(http.MethodDelete, tenant, nil, http.StatusNoContent)
			warm()
			k = bulkLoadWarmup
			b.StartTimer()
			cpu.start()
		}
		do(http.MethodPost, tenant+"/edges", bodies[k], http.StatusOK)
		if (i+1)%ckptEvery == 0 {
			if _, err := s.CheckpointAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
	cpu.stop()
	b.StopTimer()
	cpu.report(b, float64(bulkLoadW)*float64(b.N))
}
