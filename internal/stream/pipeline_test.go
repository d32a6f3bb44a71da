package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"streamtri/internal/graph"
)

// goroutineBaseline snapshots the goroutine count; assertNoLeak polls
// until the count returns to the baseline (finished goroutines are
// reaped asynchronously) or the deadline expires.
func goroutineBaseline() int { return runtime.NumGoroutine() }

func assertNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPipelineDeliversAllEdgesInOrder(t *testing.T) {
	base := goroutineBaseline()
	in := edges(100)
	p, err := NewPipeline(context.Background(), NewSliceSource(in), 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got []graph.Edge
	var sizes []int
	for {
		b, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
		sizes = append(sizes, len(b))
		p.Recycle(b)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(got) != len(in) {
		t.Fatalf("delivered %d of %d edges", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("edge %d out of order: %v != %v", i, got[i], in[i])
		}
	}
	for i, s := range sizes[:len(sizes)-1] {
		if s != 7 {
			t.Fatalf("batch %d has %d edges, want 7", i, s)
		}
	}
	if last := sizes[len(sizes)-1]; last != 100%7 {
		t.Fatalf("final batch has %d edges, want %d", last, 100%7)
	}
	st := p.Stats()
	if st.Edges != 100 || st.Batches != uint64(len(sizes)) {
		t.Fatalf("stats = %+v", st)
	}
	assertNoLeak(t, base)
}

func TestPipelineBadBatchSize(t *testing.T) {
	for _, w := range []int{0, -3} {
		if _, err := NewPipeline(context.Background(), NewSliceSource(nil), w, 2); err == nil {
			t.Fatalf("want error for w=%d", w)
		}
	}
}

func TestPipelineBinaryBulkPath(t *testing.T) {
	in := edges(1000)
	var buf bytes.Buffer
	if err := WriteBinaryEdges(&buf, in); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(context.Background(), NewBinarySource(&buf), 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []graph.Edge
	perr := p.Run(func(b []graph.Edge) error {
		got = append(got, b...)
		return nil
	})
	if perr != nil {
		t.Fatal(perr)
	}
	if len(got) != len(in) {
		t.Fatalf("delivered %d of %d edges", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

func TestPipelineTrailingPartialRecord(t *testing.T) {
	in := edges(100)
	var buf bytes.Buffer
	if err := WriteBinaryEdges(&buf, in); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5] // 99 whole records + 3 stray bytes
	p, err := NewPipeline(context.Background(), NewBinarySource(bytes.NewReader(trunc)), 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	perr := p.Run(func(b []graph.Edge) error {
		got += len(b)
		return nil
	})
	if perr == nil || !errors.Is(perr, io.ErrUnexpectedEOF) {
		t.Fatalf("want truncation error, got %v", perr)
	}
	if got != 99 {
		t.Fatalf("delivered %d whole records before the error, want 99", got)
	}
}

// errorSource fails after yielding n edges.
type errorSource struct {
	n   int
	pos int
}

func (s *errorSource) Next() (graph.Edge, error) {
	if s.pos >= s.n {
		return graph.Edge{}, fmt.Errorf("decoder exploded at edge %d", s.pos)
	}
	e := graph.Edge{U: graph.NodeID(s.pos), V: graph.NodeID(s.pos + 1)}
	s.pos++
	return e, nil
}

func TestPipelineDecoderErrorMidBatch(t *testing.T) {
	base := goroutineBaseline()
	p, err := NewPipeline(context.Background(), &errorSource{n: 25}, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	for {
		b, err := p.Next()
		if err != nil {
			if err == io.EOF {
				t.Fatal("want decoder error, got clean EOF")
			}
			break
		}
		got += len(b)
		p.Recycle(b)
	}
	// The 25 edges before the failure arrive (two full batches plus the
	// partial third); the error follows them.
	if got != 25 {
		t.Fatalf("delivered %d edges before the error, want 25", got)
	}
	if cerr := p.Close(); cerr == nil {
		t.Fatal("Close must surface the decoder error")
	}
	assertNoLeak(t, base)
}

// infiniteSource never ends — the cancellation tests need a stream that
// outlives the consumer.
type infiniteSource struct{ i uint32 }

func (s *infiniteSource) Next() (graph.Edge, error) {
	s.i++
	return graph.Edge{U: s.i, V: s.i + 1}, nil
}

func TestPipelineContextCancel(t *testing.T) {
	base := goroutineBaseline()
	ctx, cancel := context.WithCancel(context.Background())
	p, err := NewPipeline(ctx, &infiniteSource{}, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		b, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		p.Recycle(b)
	}
	cancel()
	// Buffered batches may still arrive; the cancellation error follows.
	var got error
	for {
		b, err := p.Next()
		if err != nil {
			got = err
			break
		}
		p.Recycle(b)
	}
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", got)
	}
	if cerr := p.Close(); !errors.Is(cerr, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled", cerr)
	}
	assertNoLeak(t, base)
}

func TestPipelineCloseWithoutDraining(t *testing.T) {
	base := goroutineBaseline()
	p, err := NewPipeline(context.Background(), &infiniteSource{}, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Let the decoder park on a full ring, then shut down cold.
	time.Sleep(10 * time.Millisecond)
	if cerr := p.Close(); cerr != nil {
		t.Fatalf("Close = %v, want nil for caller-initiated shutdown", cerr)
	}
	if cerr := p.Close(); cerr != nil {
		t.Fatalf("second Close = %v", cerr)
	}
	assertNoLeak(t, base)
}

func TestPipelineRunCallbackError(t *testing.T) {
	base := goroutineBaseline()
	p, err := NewPipeline(context.Background(), &infiniteSource{}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink failed")
	if got := p.Run(func([]graph.Edge) error { return boom }); got != boom {
		t.Fatalf("Run = %v, want %v", got, boom)
	}
	assertNoLeak(t, base)
}

// recordingSink keeps a copy of every batch Drain hands it, so a test
// can check that the concatenated batches equal the source: in order,
// and with no buffer recycled while the sink still held it.
type recordingSink struct {
	got     []graph.Edge
	batches int
}

func (s *recordingSink) AddBatch(batch []graph.Edge) {
	s.got = append(s.got, batch...)
	s.batches++
}

func TestPipelineDrain(t *testing.T) {
	base := goroutineBaseline()
	in := edges(500)
	p, err := NewPipeline(context.Background(), NewSliceSource(in), 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	n, derr := p.Drain(sink)
	if derr != nil {
		t.Fatal(derr)
	}
	if n != 500 || !slices.Equal(sink.got, in) {
		t.Fatalf("drained %d edges, sink saw %d, want the 500 input edges in order", n, len(sink.got))
	}
	wantBatches := (500 + 63) / 64
	if sink.batches != wantBatches {
		t.Fatalf("sink saw %d batches, want %d", sink.batches, wantBatches)
	}
	assertNoLeak(t, base)
}

func TestPipelineDrainDecoderError(t *testing.T) {
	p, err := NewPipeline(context.Background(), &errorSource{n: 130}, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	n, derr := p.Drain(sink)
	if derr == nil {
		t.Fatal("want decoder error")
	}
	if n != 130 || !slices.Equal(sink.got, edges(130)) {
		t.Fatalf("sink absorbed %d/%d edges, want all 130 pre-error edges in order", len(sink.got), n)
	}
}

// Next after Close reads io.EOF from every pipeline, the same as after
// the last batch: Close ends the stream for the consumer, and its own
// shutdown is no error.
func TestPipelineNextAfterCloseIsEOF(t *testing.T) {
	base := goroutineBaseline()
	ctx := context.Background()
	single, err := NewPipeline(ctx, &infiniteSource{}, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := NewMergedPipeline(ctx, []Source{&infiniteSource{}, &infiniteSource{i: 1 << 20}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := NewOrderedMultiPipeline(ctx, []TimestampedSource{&tsInfiniteSource{}, &tsInfiniteSource{i: 1 << 20}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]interface {
		Next() ([]graph.Edge, error)
		Close() error
	}{"Pipeline": single, "NewMergedPipeline": merged, "NewOrderedMultiPipeline": ordered} {
		if _, err := p.Next(); err != nil {
			t.Fatalf("%s: first Next = %v", name, err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("%s: Close = %v", name, err)
		}
		for i := 0; i < 2; i++ {
			if b, err := p.Next(); b != nil || err != io.EOF {
				t.Fatalf("%s: Next after Close = %d edges, %v; want io.EOF", name, len(b), err)
			}
		}
	}
	assertNoLeak(t, base)
}

// gatedFiller is a Source whose second Fill blocks until open is
// closed, after signalling entered; every other Fill returns one edge
// at once. fills counts the calls.
type gatedFiller struct {
	fills   atomic.Int32
	entered chan struct{}
	open    chan struct{}
}

func (s *gatedFiller) Next() (graph.Edge, error) { panic("unused: Fill is the bulk path") }

func (s *gatedFiller) Fill(out []graph.Edge) (int, error) {
	if s.fills.Add(1) == 2 {
		close(s.entered)
		<-s.open
	}
	out[0] = graph.Edge{U: 1, V: 2}
	return 1, nil
}

// TestPipelineStopsFillingAfterClose: once Close has begun, the decoder
// starts no further Fill, although the recycle ring holds ready buffers
// when the Fill in flight returns. A select that weighs those buffers
// against the closed quit channel at random fills another batch on
// about one run in four.
func TestPipelineStopsFillingAfterClose(t *testing.T) {
	base := goroutineBaseline()
	for run := 0; run < 64; run++ {
		src := &gatedFiller{entered: make(chan struct{}), open: make(chan struct{})}
		p, err := NewPipeline(context.Background(), src, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		<-src.entered
		p.Recycle(b) // the ring now holds three idle buffers
		closed := make(chan error)
		go func() { closed <- p.Close() }()
		<-p.quit
		close(src.open)
		if err := <-closed; err != nil {
			t.Fatalf("run %d: Close = %v", run, err)
		}
		if n := src.fills.Load(); n != 2 {
			t.Fatalf("run %d: %d Fill calls, want 2: the decoder filled on after Close", run, n)
		}
	}
	assertNoLeak(t, base)
}
