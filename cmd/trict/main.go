// Command trict ("triangle count") estimates the triangle count,
// transitivity coefficient, and optionally uniform triangle samples of a
// graph stream read from one or more edge-list files (or stdin); with
// -window it estimates the triangle count of the most recent N edges
// instead (the paper's Section 5.2 sliding-window estimator).
//
// Usage:
//
//	trict -r 131072 graph.txt
//	trict -r 131072 -format binary -p 8 graph.bin
//	trict -r 131072 -i part1.txt -i part2.txt -i part3.txt
//	trict -r 65536 -window 1000000 temporal.txt
//	trict -r 65536 -window 1000000 -i part1.txt -i part2.txt
//	cat graph.txt | trict -r 65536 -samples 5
//
// The default input format is SNAP-style text: one "u v" pair per line,
// '#'/'%' comments, extra numeric columns (timestamps/weights) ignored;
// -format binary selects the binary family — each input's first bytes
// are sniffed, so the fixed 8-bytes-per-edge plain format, the v1
// timestamped format ("STRTSB01"), and the block-structured v2 format
// ("STRTSB02", checksummed self-describing blocks) all work per input
// without further flags (cmd/graphgen -format binary and -format
// binary2 emit them).
//
// Ingestion is pipelined and constant-memory: each input's decoder runs
// on its own goroutine, filling fixed-size batch buffers from a shared
// recycle ring, while the estimators absorb batches on a sharded worker
// pool — so files larger than RAM stream fine, and I/O+decode time
// overlaps processing. With several -i inputs the decoders also overlap
// each other (parallel ingestion); edges from one file keep their order,
// but the interleaving across files is scheduler-dependent, which the
// arbitrary-order stream model tolerates. The report prices I/O+decode
// separately from wall time, in the style of the paper's Table 3 (for
// multiple inputs the decode figure aggregates all decoders and can
// exceed wall time, and a per-source breakdown shows skewed shards).
//
// Windowed runs (-window N) use the sliding-window estimator. A single
// input streams as-is (the window is defined by arrival order). Several
// inputs require temporal data — text files carrying the SNAP-style
// "u v ts" timestamp column, or the versioned timestamped binary format
// (graphgen -timestamps emits both) — because the files are merged by a
// deterministic k-way timestamp merge (ties break by input order) before
// the window sees any edge; unlike the first-come whole-stream merge,
// windowed multi-file runs are bit-for-bit reproducible. That merge
// holds a fixed few blocks per input, so -depth, which sizes the batch
// ring, is rejected on windowed runs that go through it (several
// inputs, or -lateness).
//
// Dirty input: -max-bad-records N skips up to N malformed records per
// input (unparseable lines, truncated binary tails) instead of failing
// on the first, reporting how many were skipped. Out-of-order temporal
// input: -lateness L (windowed runs only) buffers and re-sequences each
// input so edges arriving up to L timestamp units late are still merged
// in order; edges later than that are handled by -on-late
// (count|drop|print).
//
// Exceptions that buffer the stream in memory: -exact
// (the offline ground truth needs the whole graph) and -dedup (duplicate
// detection is inherently linear-memory). Without -dedup the stream must
// already be simple (no duplicate edges, the counters' precondition) —
// across all inputs combined; self loops are always dropped by the
// decoders.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"streamtri"
)

// multiFlag collects repeated -i values.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	r := flag.Int("r", 1<<17, "number of estimators (accuracy grows with r)")
	p := flag.Int("p", 0, "shard count for parallel processing (0 = one per CPU, capped at 8)")
	w := flag.Int("w", 0, "batch size (0 = the paper's w = 8r)")
	depth := flag.Int("depth", 0, "pipeline buffers in flight (0 = default)")
	format := flag.String("format", "text", "input format: text|binary (applies to every input; binary flavors — plain, timestamped v1, block v2 — are sniffed per input)")
	seed := flag.Uint64("seed", 1, "random seed")
	samples := flag.Int("samples", 0, "also draw this many uniform triangle samples")
	exactFlag := flag.Bool("exact", false, "also compute the exact count (buffers the whole stream)")
	dedup := flag.Bool("dedup", false, "drop duplicate edges first (buffers the whole stream)")
	windowSize := flag.Uint64("window", 0, "sliding-window size in edges (0 = whole stream); multi-input windowed runs need timestamped data")
	lateness := flag.Int64("lateness", -1, "bounded-lateness watermark for -window runs: tolerate edges arriving up to this many timestamp units out of order (-1 = off, requires sorted input; needs timestamped data)")
	onLate := flag.String("on-late", "count", "late-edge policy with -lateness: count|drop|print (print sends the first few to stderr)")
	maxBad := flag.Int("max-bad-records", 0, "skip up to this many malformed records per input instead of failing on the first (streaming modes; 0 = fail fast)")
	var inputs multiFlag
	flag.Var(&inputs, "i", "input file; repeat for parallel multi-file ingestion (positional args are appended)")
	flag.Parse()

	inputs = append(inputs, flag.Args()...)
	// explicitly set flags, so dead combinations of flags whose defaults
	// are meaningful (e.g. -on-late count) are rejected rather than
	// silently ignored.
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *format != "text" && *format != "binary" {
		fatal(fmt.Errorf("unknown -format %q (want text or binary)", *format))
	}
	if *windowSize > 0 && (*exactFlag || *dedup || *samples > 0) {
		fatal(fmt.Errorf("-window is incompatible with -exact, -dedup, and -samples (the window estimator streams in constant memory)"))
	}
	if *windowSize > 0 && *p > 0 {
		fatal(fmt.Errorf("-p has no effect with -window (the sliding-window estimator is single-threaded); drop one of the flags"))
	}
	if *lateness >= 0 && *windowSize == 0 {
		fatal(fmt.Errorf("-lateness only applies to -window runs (the whole-stream counters are order-insensitive, so out-of-order input needs no repair there)"))
	}
	if *onLate != "count" && *onLate != "drop" && *onLate != "print" {
		fatal(fmt.Errorf("unknown -on-late %q (want count, drop, or print)", *onLate))
	}
	if set["depth"] && *windowSize > 0 && (len(inputs) > 1 || *lateness >= 0) {
		fatal(fmt.Errorf("-depth has no effect on a -window run over several inputs or with -lateness (the timestamp merge holds a fixed few blocks per input, not a ring of batch buffers); drop the flag"))
	}
	if set["on-late"] && *lateness < 0 {
		fatal(fmt.Errorf("-on-late only applies together with -lateness (without a watermark no edge is ever late); drop the flag or add -lateness"))
	}
	if set["max-bad-records"] && (*exactFlag || *dedup) {
		fatal(fmt.Errorf("-max-bad-records applies to the streaming decoders and is incompatible with the buffered -exact/-dedup modes"))
	}

	// Open every input (stdin when none named).
	var readers []io.Reader
	name := "stdin"
	if len(inputs) == 0 {
		readers = []io.Reader{os.Stdin}
	} else {
		readers = make([]io.Reader, len(inputs))
		for i, path := range inputs {
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			readers[i] = f
		}
		name = inputs[0]
		if len(inputs) > 1 {
			name = fmt.Sprintf("%s (+%d more)", inputs[0], len(inputs)-1)
		}
	}

	opts := []streamtri.Option{streamtri.WithSeed(*seed)}
	if *w > 0 {
		opts = append(opts, streamtri.WithBatchSize(*w))
	}
	if *depth > 0 {
		opts = append(opts, streamtri.WithPipelineDepth(*depth))
	}
	if *maxBad > 0 {
		opts = append(opts, streamtri.WithDecodeErrorPolicy(*maxBad))
	}
	ctx := context.Background()

	// Windowed runs dispatch before any decoder is built: runWindowed
	// wraps the raw readers itself (it sniffs binary flavors with a Peek,
	// so a source constructed here first could steal those bytes).
	if *windowSize > 0 {
		runWindowed(ctx, readers, inputs, name, *format, *r, *windowSize, *lateness, *onLate, *maxBad, opts)
		return
	}

	// The buffered paths (-exact, -dedup) slurp every input once and
	// replay the concatenation through the same pipeline via a slice
	// source; everything downstream is identical to the streaming path.
	var buffered []streamtri.Edge
	var srcs []streamtri.Source
	if *exactFlag || *dedup {
		ioStart := time.Now()
		var err error
		buffered, err = slurpAll(readers, *format, *dedup)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("buffered:     %d edges in %.2fs (-exact/-dedup hold the stream in memory)\n",
			len(buffered), time.Since(ioStart).Seconds())
		srcs = []streamtri.Source{streamtri.NewSliceSource(buffered)}
	} else {
		srcs = make([]streamtri.Source, len(readers))
		for i, rd := range readers {
			srcs[i] = makeSource(rd, *format)
		}
	}

	if *p <= 0 {
		*p = runtime.NumCPU()
		if *p > 8 {
			*p = 8
		}
	}
	if *p > *r {
		*p = *r
	}

	start := time.Now()
	var (
		st      streamtri.StreamStats
		est     float64
		kappa   float64
		sampled []streamtri.Triangle
		err     error
	)
	if *samples > 0 {
		s := streamtri.NewTriangleSampler(*r, opts...)
		st, err = s.CountStreams(ctx, srcs...)
		if err != nil {
			fatal(err)
		}
		est = s.EstimateTriangles()
		var ok bool
		sampled, ok = s.Sample(*samples)
		if !ok {
			fmt.Fprintf(os.Stderr, "trict: only %d of %d samples accepted; increase -r\n", len(sampled), *samples)
		}
	} else {
		tc := streamtri.NewParallelTriangleCounter(*r, *p, opts...)
		defer tc.Close()
		st, err = tc.CountStreams(ctx, srcs...)
		if err != nil {
			fatal(err)
		}
		est = tc.EstimateTriangles()
		kappa = tc.EstimateTransitivity()
	}
	wallSecs := time.Since(start).Seconds()

	fmt.Printf("input:        %s (%s, %d edges in %d batches)\n", name, *format, st.Edges, st.Batches)
	if !*dedup {
		// Earlier trict versions always deduplicated (which buffers the
		// stream); the streaming default requires simple input, so say so.
		fmt.Printf("dedup:        off — input must be a simple stream (use -dedup for raw data)\n")
	}
	fmt.Printf("estimators:   %d across %d shards\n", *r, *p)
	decodeNote := "overlapped with processing"
	if len(srcs) > 1 {
		decodeNote = fmt.Sprintf("summed over %d parallel decoders, overlapped with processing", len(srcs))
	}
	fmt.Printf("io+decode:    %.2fs (%s)\n", st.DecodeSeconds, decodeNote)
	if *maxBad > 0 {
		fmt.Printf("bad records:  %d skipped (budget %d per input)\n", st.BadRecords, *maxBad)
	}
	printPerSource(inputs, st)
	fmt.Printf("processing:   %.2fs wall (%.2f Medges/s)\n", wallSecs, float64(st.Edges)/wallSecs/1e6)
	fmt.Printf("triangles ≈   %.0f\n", est)
	if *samples == 0 {
		fmt.Printf("transitivity ≈ %.4f\n", kappa)
	}
	for i, t := range sampled {
		fmt.Printf("sample %d:     {%d, %d, %d}\n", i+1, t.A, t.B, t.C)
	}
	if *exactFlag {
		start = time.Now()
		exact, err := streamtri.ExactTriangles(buffered)
		if err != nil {
			fatal(err)
		}
		rel := 0.0
		if exact > 0 {
			rel = 100 * abs(est-float64(exact)) / float64(exact)
		}
		fmt.Printf("exact:        %d (%.2fs); relative error %.2f%%\n",
			exact, time.Since(start).Seconds(), rel)
	}
}

// sniffBinary wraps in for peeking and classifies its binary flavor
// through the shared streamtri.SniffFormat — the one sniff every binary
// path in this command dispatches on.
func sniffBinary(in io.Reader) (*bufio.Reader, streamtri.StreamFormat) {
	br := bufio.NewReader(in)
	prefix, _ := br.Peek(8)
	return br, streamtri.SniffFormat(prefix)
}

// makeSource builds the streaming decoder for the chosen format. Binary
// inputs are sniffed per file: versioned flavors (timestamped v1, block
// v2) stream through their decoder with timestamps stripped, so a
// temporal export counts like any other stream.
func makeSource(in io.Reader, format string) streamtri.Source {
	if format == "binary" {
		br, f := sniffBinary(in)
		switch f {
		case streamtri.FormatTimestampedBinary:
			return streamtri.StripTimestamps(streamtri.NewTimestampedBinaryEdgeSource(br))
		case streamtri.FormatBlockBinary:
			return streamtri.StripTimestamps(streamtri.NewBlockBinaryEdgeSource(br))
		}
		return streamtri.NewBinaryEdgeSource(br)
	}
	return streamtri.NewEdgeListSource(in)
}

// makeTimestampedSource builds the temporal decoder for the chosen
// format (text: "u v ts" lines; binary: the timestamped v1 or block v2
// format, sniffed per input). Unrecognized binary input falls to the v1
// decoder, whose header check names what it got.
func makeTimestampedSource(in io.Reader, format string) streamtri.TimestampedSource {
	if format == "binary" {
		br, f := sniffBinary(in)
		if f == streamtri.FormatBlockBinary {
			return streamtri.NewBlockBinaryEdgeSource(br)
		}
		return streamtri.NewTimestampedBinaryEdgeSource(br)
	}
	return streamtri.NewTimestampedEdgeListSource(in)
}

// runWindowed is the -window mode: the sliding-window estimator over one
// plain input, or over several timestamped inputs merged in timestamp
// order (deterministic, unlike the first-come whole-stream merge). With
// -lateness every input — including a single one — goes through the
// timestamped decoder and the bounded-lateness watermark stage, so
// out-of-order temporal data is re-sequenced instead of silently
// corrupting the window.
func runWindowed(ctx context.Context, readers []io.Reader, inputs []string, name, format string, r int, w uint64, lateness int64, onLate string, maxBad int, opts []streamtri.Option) {
	var latePrinted atomic.Uint64
	if lateness >= 0 {
		opts = append(opts, streamtri.WithLateness(lateness))
		switch onLate {
		case "drop":
			opts = append(opts, streamtri.WithLatePolicy(streamtri.LateDrop))
		case "count":
			opts = append(opts, streamtri.WithLatePolicy(streamtri.LateCount))
		case "print":
			opts = append(opts, streamtri.WithLateSideChannel(func(e streamtri.TimestampedEdge) {
				const maxPrinted = 8
				if n := latePrinted.Add(1); n <= maxPrinted {
					fmt.Fprintf(os.Stderr, "trict: late edge dropped: %d %d ts=%d\n", e.E.U, e.E.V, e.TS)
				} else if n == maxPrinted+1 {
					fmt.Fprintf(os.Stderr, "trict: further late edges suppressed\n")
				}
			}))
		}
	}
	sw := streamtri.NewSlidingWindowCounter(r, w, opts...)
	start := time.Now()
	var (
		st  streamtri.StreamStats
		err error
	)
	if len(readers) == 1 && lateness < 0 {
		// A single temporal file streams through the window as-is (its
		// file order is its arrival order) — makeSource's sniff keeps a
		// timestamped or block header from being rejected.
		st, err = sw.CountStream(ctx, makeSource(readers[0], format))
	} else {
		// The watermark needs timestamps even for a single input: a plain
		// binary stream has nothing to order by.
		if lateness >= 0 && format == "binary" && len(readers) == 1 {
			br, f := sniffBinary(readers[0])
			if f == streamtri.FormatUnknown {
				fatal(fmt.Errorf("-lateness needs timestamped input; %s is plain binary (graphgen -timestamps emits the timestamped format)", name))
			}
			readers[0] = br
		}
		srcs := make([]streamtri.TimestampedSource, len(readers))
		for i, rd := range readers {
			srcs[i] = makeTimestampedSource(rd, format)
		}
		st, err = sw.CountStreams(ctx, srcs...)
	}
	if err != nil {
		fatal(err)
	}
	wallSecs := time.Since(start).Seconds()

	fmt.Printf("input:        %s (%s, %d edges in %d batches)\n", name, format, st.Edges, st.Batches)
	merge := "single input, arrival order"
	if len(readers) > 1 {
		merge = fmt.Sprintf("%d inputs, timestamp-ordered merge (deterministic)", len(readers))
	}
	fmt.Printf("window:       last %d of %d edges (%s)\n", sw.WindowEdges(), sw.StreamLength(), merge)
	fmt.Printf("estimators:   %d (mean chain length %.1f)\n", r, sw.MeanChainLength())
	fmt.Printf("io+decode:    %.2fs (overlapped with processing)\n", st.DecodeSeconds)
	if lateness >= 0 {
		note := ""
		if onLate == "drop" {
			note = " — not counted under -on-late drop"
		}
		fmt.Printf("late edges:   %d dropped (lateness %d, policy %s)%s\n", st.LateEdges, lateness, onLate, note)
	}
	if maxBad > 0 {
		fmt.Printf("bad records:  %d skipped (budget %d per input)\n", st.BadRecords, maxBad)
	}
	printPerSource(inputs, st)
	fmt.Printf("processing:   %.2fs wall (%.2f Medges/s)\n", wallSecs, float64(st.Edges)/wallSecs/1e6)
	fmt.Printf("triangles ≈   %.0f (in window)\n", sw.EstimateTriangles())
}

// printPerSource renders the per-input skew breakdown of a multi-source
// run: each input's edge count, share, and decode time.
func printPerSource(inputs []string, st streamtri.StreamStats) {
	if len(st.PerSource) < 2 {
		return
	}
	for i, s := range st.PerSource {
		name := fmt.Sprintf("input %d", i)
		if i < len(inputs) {
			name = inputs[i]
		}
		share := 0.0
		if st.Edges > 0 {
			share = 100 * float64(s.Edges) / float64(st.Edges)
		}
		fmt.Printf("  source %d:   %s — %d edges (%.1f%%), %.2fs decode\n", i, name, s.Edges, share, s.DecodeSeconds)
	}
}

// slurpAll reads every input into one edge slice (inputs concatenate in
// order) for the buffered modes, deduplicating across files when asked —
// a duplicate is a duplicate no matter which file it arrived in.
func slurpAll(readers []io.Reader, format string, dedup bool) ([]streamtri.Edge, error) {
	var all []streamtri.Edge
	for _, rd := range readers {
		edges, err := slurp(rd, format)
		if err != nil {
			return nil, err
		}
		all = append(all, edges...)
	}
	if !dedup {
		return all, nil
	}
	seen := make(map[streamtri.Edge]struct{}, len(all))
	out := all[:0]
	for _, e := range all {
		c := e.Canonical()
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		out = append(out, e)
	}
	return out, nil
}

// slurp reads one whole stream into memory, sniffing binary flavors so
// the buffered modes accept temporal exports too (timestamps dropped).
func slurp(in io.Reader, format string) ([]streamtri.Edge, error) {
	if format == "binary" {
		br, f := sniffBinary(in)
		switch f {
		case streamtri.FormatTimestampedBinary:
			return stripTimestampSlice(streamtri.ReadTimestampedBinaryEdges(br))
		case streamtri.FormatBlockBinary:
			return stripTimestampSlice(streamtri.ReadBlockBinaryEdges(br))
		}
		return streamtri.ReadBinaryEdges(br)
	}
	return streamtri.ReadEdgeList(in, false)
}

// stripTimestampSlice drops the timestamps off a slurped temporal slice.
func stripTimestampSlice(ts []streamtri.TimestampedEdge, err error) ([]streamtri.Edge, error) {
	if err != nil {
		return nil, err
	}
	out := make([]streamtri.Edge, len(ts))
	for i, e := range ts {
		out[i] = e.E
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trict:", err)
	os.Exit(1)
}
