package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"streamtri/internal/graph"
)

func appendBlocks(t *testing.T, batches [][]graph.Edge) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewBlockWriter(&buf)
	for _, b := range batches {
		if err := w.AppendEdgeBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func readEdgeBlocks(t *testing.T, data []byte) [][]graph.Edge {
	t.Helper()
	src := NewBlockBinarySource(bytes.NewReader(data))
	var out [][]graph.Edge
	for {
		edges, err := src.NextEdgeBlock(nil)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]graph.Edge(nil), edges...))
	}
}

func TestAppendEdgeBlockRoundTrip(t *testing.T) {
	batches := [][]graph.Edge{
		{{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 3}},
		{{U: 4, V: 5}},
		{{U: 6, V: 7}, {U: 7, V: 8}},
	}
	data := appendBlocks(t, batches)
	got := readEdgeBlocks(t, data)
	if len(got) != len(batches) {
		t.Fatalf("got %d blocks, want %d", len(got), len(batches))
	}
	for i := range got {
		if len(got[i]) != len(batches[i]) {
			t.Fatalf("block %d has %d edges, want %d", i, len(got[i]), len(batches[i]))
		}
		for j := range got[i] {
			if got[i][j] != batches[i][j] {
				t.Fatalf("block %d edge %d = %v, want %v", i, j, got[i][j], batches[i][j])
			}
		}
	}
	// The round trip must preserve the batch boundaries exactly — that
	// is the property the WAL's bit-identical replay rests on.
}

func TestAppendEdgeBlockFlushesThrough(t *testing.T) {
	// After each nil return the bytes must have left the writer: a torn
	// process loses nothing it appended.
	var buf bytes.Buffer
	w := NewBlockWriter(&buf)
	if err := w.AppendEdgeBlock([]graph.Edge{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	n1 := buf.Len()
	if n1 == 0 {
		t.Fatal("append left its block buffered")
	}
	if err := w.AppendEdgeBlock([]graph.Edge{{U: 3, V: 4}}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= n1 {
		t.Fatal("second append left its block buffered")
	}
}

func TestAppendEdgeBlockSelfLoopsDropped(t *testing.T) {
	data := appendBlocks(t, [][]graph.Edge{
		{{U: 1, V: 1}, {U: 1, V: 2}, {U: 3, V: 3}},
		{{U: 5, V: 5}}, // all self loops: no block at all
		{{U: 6, V: 7}},
	})
	got := readEdgeBlocks(t, data)
	want := [][]graph.Edge{{{U: 1, V: 2}}, {{U: 6, V: 7}}}
	if len(got) != len(want) {
		t.Fatalf("got %d blocks, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != 1 || got[i][0] != want[i][0] {
			t.Fatalf("block %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAppendEdgeBlockRejectsMixingAndOversize(t *testing.T) {
	var buf bytes.Buffer
	w := NewBlockWriter(&buf)
	if err := w.Write(TimestampedEdge{E: graph.Edge{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendEdgeBlock([]graph.Edge{{U: 3, V: 4}}); err == nil {
		t.Fatal("append over buffered Write records must error")
	}

	w2 := NewBlockWriter(&buf)
	if err := w2.AppendEdgeBlock(make([]graph.Edge, MaxBlockRecords+1)); err == nil {
		t.Fatal("oversize batch must error")
	}
}

func TestNextEdgeBlockTornTailPrefix(t *testing.T) {
	// Truncating the stream at every byte offset must yield exactly the
	// whole blocks before the cut, then a skippable RecordError (or a
	// clean EOF at block boundaries).
	batches := [][]graph.Edge{
		{{U: 1, V: 2}, {U: 2, V: 3}},
		{{U: 4, V: 5}},
		{{U: 6, V: 7}, {U: 8, V: 9}, {U: 9, V: 10}},
	}
	whole := appendBlocks(t, batches)
	// Block end offsets: magic, then 32-byte header + EdgeBlockRecordBytes/record.
	ends := []int{8}
	for _, b := range batches {
		ends = append(ends, ends[len(ends)-1]+32+EdgeBlockRecordBytes*len(b))
	}
	if ends[len(ends)-1] != len(whole) {
		t.Fatalf("stream is %d bytes, want %d", len(whole), ends[len(ends)-1])
	}
	for cut := 0; cut <= len(whole); cut++ {
		src := NewBlockBinarySource(bytes.NewReader(whole[:cut]))
		blocks := 0
		var err error
		for {
			var edges []graph.Edge
			edges, err = src.NextEdgeBlock(nil)
			if err != nil {
				break
			}
			if want := batches[blocks]; len(edges) != len(want) {
				t.Fatalf("cut=%d block %d: %d edges, want %d", cut, blocks, len(edges), len(want))
			}
			blocks++
		}
		wantBlocks := 0
		for _, end := range ends[1:] {
			if cut >= end {
				wantBlocks++
			}
		}
		if blocks != wantBlocks {
			t.Fatalf("cut=%d: decoded %d whole blocks, want %d", cut, blocks, wantBlocks)
		}
		atBoundary := false
		for _, end := range ends {
			if cut == end {
				atBoundary = true
			}
		}
		var re *RecordError
		switch {
		case cut < 8:
			// A tear inside the stream magic is terminal — the decoder
			// cannot tell a torn stream from a foreign file. (WAL recovery
			// special-cases files shorter than the magic for this reason.)
			if err == io.EOF || errors.As(err, &re) {
				t.Fatalf("cut=%d: err = %v, want a terminal header error", cut, err)
			}
		case atBoundary:
			if err != io.EOF {
				t.Fatalf("cut=%d: err = %v, want clean EOF at a block boundary", cut, err)
			}
		default:
			if !errors.As(err, &re) {
				t.Fatalf("cut=%d: err = %v, want a skippable *RecordError", cut, err)
			}
		}
	}
}

func TestNextEdgeBlockChecksumMismatch(t *testing.T) {
	whole := appendBlocks(t, [][]graph.Edge{
		{{U: 1, V: 2}},
		{{U: 3, V: 4}},
	})
	// Flip one payload byte in the second block: the first must still
	// decode, the second must fail as a skippable RecordError.
	corrupt := append([]byte(nil), whole...)
	corrupt[8+32+EdgeBlockRecordBytes+32+3] ^= 0xff
	src := NewBlockBinarySource(bytes.NewReader(corrupt))
	edges, err := src.NextEdgeBlock(nil)
	if err != nil || len(edges) != 1 || edges[0] != (graph.Edge{U: 1, V: 2}) {
		t.Fatalf("first block: %v, %v", edges, err)
	}
	_, err = src.NextEdgeBlock(edges)
	var re *RecordError
	if !errors.As(err, &re) {
		t.Fatalf("corrupt block: err = %v, want *RecordError", err)
	}
}

func TestNextEdgeBlockReusesBuffer(t *testing.T) {
	whole := appendBlocks(t, [][]graph.Edge{
		{{U: 1, V: 2}, {U: 3, V: 4}},
		{{U: 5, V: 6}},
	})
	src := NewBlockBinarySource(bytes.NewReader(whole))
	first, err := src.NextEdgeBlock(nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := src.NextEdgeBlock(first)
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &second[0] {
		t.Error("second block did not reuse the passed buffer's capacity")
	}
	if len(second) != 1 || second[0] != (graph.Edge{U: 5, V: 6}) {
		t.Fatalf("second block = %v", second)
	}
}

// walBenchBatch is w random edges with no self loops, the shape of one
// trictd ingest batch.
func walBenchBatch(w int) []graph.Edge {
	rng := rand.New(rand.NewSource(int64(w)))
	batch := make([]graph.Edge, w)
	for i := range batch {
		u := uint32(rng.Intn(1 << 20))
		batch[i] = graph.Edge{U: u, V: u + 1 + uint32(rng.Intn(1<<20))}
	}
	return batch
}

// walBenchSizes are the batch sizes of perfbench's two workloads:
// window-reads posts 512-edge batches, bulk-load one 131072-edge batch.
var walBenchSizes = []int{512, 131072}

// writeCounter counts the bytes written through it.
type writeCounter struct {
	w io.Writer
	n int64
}

func (c *writeCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// BenchmarkAppendEdgeBlock logs one batch per iteration to a temp file,
// the WAL append trictd runs before every AddBatch. B/edge is the log
// bytes written per edge, the stream magic excluded.
func BenchmarkAppendEdgeBlock(b *testing.B) {
	for _, w := range walBenchSizes {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			batch := walBenchBatch(w)
			f, err := os.CreateTemp(b.TempDir(), "wal")
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			out := &writeCounter{w: f}
			bw := NewBlockWriter(out)
			cut := int64(0) // bytes written when the file was last cut back
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bw.AppendEdgeBlock(batch); err != nil {
					b.Fatal(err)
				}
				// Keep the file small: cut it back every 64 MiB, off the clock.
				if out.n-cut > 64<<20 {
					b.StopTimer()
					if err := f.Truncate(0); err != nil {
						b.Fatal(err)
					}
					if _, err := f.Seek(0, io.SeekStart); err != nil {
						b.Fatal(err)
					}
					cut = out.n
					b.StartTimer()
				}
			}
			b.StopTimer()
			edges := float64(b.N) * float64(w)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/edges, "ns/edge")
			b.ReportMetric(float64(out.n-int64(len(blockBinaryMagic)))/edges, "B/edge")
		})
	}
}

// BenchmarkNextEdgeBlock decodes 8 logged batches per iteration from
// memory, the WAL replay recovery runs. B/edge is the log bytes read
// per edge, the stream magic excluded. The w=N cases read
// AppendEdgeBlock's layout; the 16byte/w=N cases read the 16-byte
// uncompressed records that builds before it logged, one block per
// batch, written as BlockWriter.Write with WithBlockRecords(w) writes
// them.
func BenchmarkNextEdgeBlock(b *testing.B) {
	const blocks = 8
	for _, layout := range []string{"", "16byte/"} {
		for _, w := range walBenchSizes {
			b.Run(fmt.Sprintf("%sw=%d", layout, w), func(b *testing.B) {
				var log bytes.Buffer
				batch := walBenchBatch(w)
				if layout == "" {
					bw := NewBlockWriter(&log)
					for i := 0; i < blocks; i++ {
						if err := bw.AppendEdgeBlock(batch); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					bw := NewBlockWriter(&log, WithBlockRecords(w))
					for i := 0; i < blocks; i++ {
						for _, e := range batch {
							if err := bw.Write(TimestampedEdge{E: e}); err != nil {
								b.Fatal(err)
							}
						}
					}
					if err := bw.Close(); err != nil {
						b.Fatal(err)
					}
				}
				data := log.Bytes()
				var buf []graph.Edge
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src := NewBlockBinarySource(bytes.NewReader(data))
					for {
						var err error
						if buf, err = src.NextEdgeBlock(buf); err == io.EOF {
							break
						} else if err != nil {
							b.Fatal(err)
						}
					}
				}
				edges := float64(b.N) * float64(blocks*w)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/edges, "ns/edge")
				b.ReportMetric(float64(len(data)-len(blockBinaryMagic))/float64(blocks*w), "B/edge")
			})
		}
	}
}
