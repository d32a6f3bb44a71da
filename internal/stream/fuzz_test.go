package stream

import (
	"bytes"
	"context"
	"io"
	"math"
	"testing"

	"streamtri/internal/graph"
)

// Native Go fuzz targets for the text decoders. Two invariants matter:
// no input of any shape may panic a decoder, and the bulk window-scanner
// paths (Fill / FillTimestamped) must stay bit-identical to the per-edge
// Next paths — same edges, same error — because the pipeline picks
// whichever is available and the estimate must not depend on that
// choice. The seed corpus reproduces the table-test inputs (comments,
// blanks, tabs, self loops, numeric and garbage trailing columns, the
// timestamp column, missing final newline, CRLF, overflowing ids).

// fuzzSeeds is the shared corpus for both targets.
var fuzzSeeds = []string{
	"",
	"\n",
	"# header\n1 2\n\n% c\n3\t4\n5 5\n  6   7  \n",
	"1 2 1234567890\n10 11 3.5\n12 13 -2e9\n14 15",
	"1 2 100\n3 4 -7\n5 6 300 0.5\n7 8 9223372036854775807\n",
	"1 2 garbage\n",
	"1 2 3 garbage\n",
	"a b\n",
	"4294967296 1\n",
	"1 2 9223372036854775808\n",
	"1 2\r\n3 4\r\n",
	"1\n",
	"0 1 0\n0 1 00\n",
	"+1 2 +3\n",
	"1 2 --3\n",
	"999999999999999999999999 2 3\n",
	"1 2 3.5.6\n",
	"1 2 1e\n",
	"# only a comment",
	"5 5 1\n5 5\n",
	// Shapes aimed at the fused timestamped scanner's fast path and its
	// deviation edges: the 18-digit fast-path digit cap and 19-digit
	// slow-path handoff (both fitting int64 and overflowing it), signed
	// timestamps incl. MinInt64, CRLF and weight columns right after the
	// timestamp, ties, self loops, and an unterminated final line.
	"1 2 999999999999999999\n3 4 999999999999999999\n",
	"1 2 1234567890123456789\n",
	"1 2 -9223372036854775808\n1 2 -9223372036854775809\n",
	"1 2 -5\n3 4 -5\n5 6 -\n",
	"1 2 5\r\n3 4 5\r\n",
	"1 2 5 6\n3 4 5 6.5\n",
	"1 2 5\n1 2 5\n2 1 5\n",
	"7 7 9\n# c\n1\t2\t3\n% d\n8 8 -0\n1 2 3",
}

// drainNext decodes data edge by edge through TextSource.Next, stopping
// at the first error; a clean end returns a nil error.
func drainNext(data []byte) ([]graph.Edge, error) {
	src := NewTextSource(bytes.NewReader(data))
	var out []graph.Edge
	for {
		e, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// drainFill decodes data through TextSource.Fill in chunks of w edges,
// stopping at the first error; a clean end returns a nil error.
func drainFill(data []byte, w int) ([]graph.Edge, error) {
	src := NewTextSource(bytes.NewReader(data))
	var out []graph.Edge
	buf := make([]graph.Edge, w)
	for {
		n, err := src.Fill(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// FuzzTextSourceNext asserts the per-edge decoders — plain and
// timestamped — never panic on arbitrary bytes and always terminate in
// either a clean end or a descriptive error.
func FuzzTextSourceNext(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := drainNext(data); err == io.EOF {
			t.Fatal("Next leaked raw io.EOF through the error path")
		}
		src := NewTimestampedTextSource(bytes.NewReader(data))
		for {
			if _, err := src.NextTimestamped(); err != nil {
				break
			}
		}
	})
}

// FuzzScanWindowEquivalence asserts the bulk scanWindow path (Fill) and
// the per-edge Next path decode arbitrary bytes bit-identically — the
// same edge sequence and the same terminal error, across batch sizes
// (batch boundaries are where window-scanner bugs live).
func FuzzScanWindowEquivalence(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		viaNext, nextErr := drainNext(data)
		for _, w := range []int{1, 3, 64} {
			viaFill, fillErr := drainFill(data, w)
			if (fillErr == nil) != (nextErr == nil) {
				t.Fatalf("w=%d: Fill err %v, Next err %v", w, fillErr, nextErr)
			}
			if fillErr != nil && fillErr.Error() != nextErr.Error() {
				t.Fatalf("w=%d: Fill err %q != Next err %q", w, fillErr, nextErr)
			}
			if len(viaFill) != len(viaNext) {
				t.Fatalf("w=%d: Fill decoded %d edges, Next %d", w, len(viaFill), len(viaNext))
			}
			for i := range viaFill {
				if viaFill[i] != viaNext[i] {
					t.Fatalf("w=%d: edge %d: Fill %v != Next %v", w, i, viaFill[i], viaNext[i])
				}
			}
		}
	})
}

// binaryFuzzSeeds builds the corpus for the binary-decoder targets:
// valid streams, truncations at every interesting offset, the magic in
// wrong places, bad versions, and timestamp pathologies (late,
// duplicate, and equal-timestamp records) — the record shapes the
// watermark and merge layers must digest without the decoders
// flinching first.
func binaryFuzzSeeds() [][]byte {
	enc := func(edges []graph.Edge) []byte {
		var buf bytes.Buffer
		if err := WriteBinaryEdges(&buf, edges); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	encTS := func(edges []TimestampedEdge) []byte {
		var buf bytes.Buffer
		if err := WriteTimestampedBinaryEdges(&buf, edges); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	plain := enc([]graph.Edge{{U: 1, V: 2}, {U: 7, V: 7}, {U: 3, V: 4}, {U: 0, V: 4294967295}})
	ts := encTS([]TimestampedEdge{
		{E: graph.Edge{U: 1, V: 2}, TS: 100},
		{E: graph.Edge{U: 3, V: 4}, TS: 100},                   // duplicate timestamp
		{E: graph.Edge{U: 5, V: 6}, TS: 50},                    // late (regresses)
		{E: graph.Edge{U: 5, V: 6}, TS: 50},                    // duplicate record
		{E: graph.Edge{U: 8, V: 8}, TS: 60},                    // self loop
		{E: graph.Edge{U: 9, V: 10}, TS: -9223372036854775808}, // MinInt64
		{E: graph.Edge{U: 11, V: 12}, TS: 9223372036854775807}, // MaxInt64
	})
	badVersion := append([]byte("STRTSB99"), ts[8:]...)
	return [][]byte{
		nil,
		plain,
		plain[:len(plain)-3],              // truncated tail
		plain[:5],                         // single partial record
		tsBinaryMagic[:],                  // bare timestamped header
		append(tsBinaryMagic[:], 1, 2, 3), // header + partial record
		ts,
		ts[:len(ts)-7], // truncated timestamped tail
		ts[:11],        // truncated inside the first record
		badVersion,
		[]byte("not binary at all\n1 2\n"),
		bytes.Repeat([]byte{0}, 24),
	}
}

// drainBinNext decodes data edge by edge through BinarySource.Next,
// stopping at the first error; a clean end returns a nil error.
func drainBinNext(data []byte) ([]graph.Edge, error) {
	src := NewBinarySource(bytes.NewReader(data))
	var out []graph.Edge
	for {
		e, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// drainBinFill decodes data through BinarySource.Fill in chunks of w.
func drainBinFill(data []byte, w int) ([]graph.Edge, error) {
	src := NewBinarySource(bytes.NewReader(data))
	var out []graph.Edge
	buf := make([]graph.Edge, w)
	for {
		n, err := src.Fill(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// FuzzBinarySourceFill asserts the plain binary decoder's bulk
// Peek/Discard path (Fill) stays bit-identical to the per-record Next
// path on arbitrary bytes — same edges, same terminal error message —
// across batch sizes, and that neither ever panics.
func FuzzBinarySourceFill(f *testing.F) {
	for _, s := range binaryFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		viaNext, nextErr := drainBinNext(data)
		if nextErr == io.EOF {
			t.Fatal("Next leaked raw io.EOF through the error path")
		}
		for _, w := range []int{1, 3, 64} {
			viaFill, fillErr := drainBinFill(data, w)
			if (fillErr == nil) != (nextErr == nil) {
				t.Fatalf("w=%d: Fill err %v, Next err %v", w, fillErr, nextErr)
			}
			if fillErr != nil && fillErr.Error() != nextErr.Error() {
				t.Fatalf("w=%d: Fill err %q != Next err %q", w, fillErr, nextErr)
			}
			if len(viaFill) != len(viaNext) {
				t.Fatalf("w=%d: Fill decoded %d edges, Next %d", w, len(viaFill), len(viaNext))
			}
			for i := range viaFill {
				if viaFill[i] != viaNext[i] {
					t.Fatalf("w=%d: edge %d: Fill %v != Next %v", w, i, viaFill[i], viaNext[i])
				}
			}
		}
	})
}

// FuzzTimestampedBinarySourceFill holds the timestamped binary decoder
// pair to the same standard — and additionally asserts that whatever
// the decoders produce survives the watermark stage without panicking,
// whatever the timestamps do.
func FuzzTimestampedBinarySourceFill(f *testing.F) {
	for _, s := range binaryFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tsNext, tsNextErr := tsCollect(NewTimestampedBinarySource(bytes.NewReader(data)))
		for _, w := range []int{1, 3, 64} {
			tsFill, tsFillErr := tsFillAll(NewTimestampedBinarySource(bytes.NewReader(data)), w)
			if (tsFillErr == nil) != (tsNextErr == nil) {
				t.Fatalf("w=%d: Fill err %v, Next err %v", w, tsFillErr, tsNextErr)
			}
			if tsFillErr != nil && tsFillErr.Error() != tsNextErr.Error() {
				t.Fatalf("w=%d: Fill err %q != Next err %q", w, tsFillErr, tsNextErr)
			}
			if len(tsFill) != len(tsNext) {
				t.Fatalf("w=%d: Fill decoded %d records, Next %d", w, len(tsFill), len(tsNext))
			}
			for i := range tsFill {
				if tsFill[i] != tsNext[i] {
					t.Fatalf("w=%d: record %d: Fill %+v != Next %+v", w, i, tsFill[i], tsNext[i])
				}
			}
		}
		for _, lateness := range []int64{0, 10} {
			wm := NewWatermarkSource(NewTimestampedBinarySource(bytes.NewReader(data)), lateness, LateCount, nil)
			emitted, _ := tsFillAll(wm, 16)
			for i := 1; i < len(emitted); i++ {
				if emitted[i].TS < emitted[i-1].TS {
					t.Fatalf("lateness %d: watermark emitted out of order at %d: %d after %d",
						lateness, i, emitted[i].TS, emitted[i-1].TS)
				}
			}
		}
	})
}

// blockFuzzSeeds builds the corpus for the v2 block-format target:
// valid streams across block sizes with and without delta compression,
// every corruption class the taxonomy distinguishes (damaged checksum,
// truncated header and payload, header/record-count mismatch, min/max
// inversion, out-of-bounds timestamps, unknown flags), wrong magics,
// and the bare header.
func blockFuzzSeeds() [][]byte {
	encBlock := func(edges []TimestampedEdge, opts ...BlockOption) []byte {
		var buf bytes.Buffer
		if err := WriteBlockBinaryEdges(&buf, edges, opts...); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	edges := []TimestampedEdge{
		{E: graph.Edge{U: 1, V: 2}, TS: 100},
		{E: graph.Edge{U: 3, V: 4}, TS: 100},
		{E: graph.Edge{U: 5, V: 6}, TS: 50},
		{E: graph.Edge{U: 8, V: 8}, TS: 60},
		{E: graph.Edge{U: 9, V: 10}, TS: -9223372036854775808},
		{E: graph.Edge{U: 11, V: 12}, TS: 9223372036854775807},
		{E: graph.Edge{U: 0, V: 4294967295}, TS: 0},
	}
	v2 := encBlock(edges, WithBlockRecords(3))
	v2delta := encBlock(edges[:4], WithBlockRecords(2), WithBlockDeltaTimestamps())
	mut := func(base []byte, off int, b byte) []byte {
		d := append([]byte(nil), base...)
		d[off] ^= b
		return d
	}
	return [][]byte{
		nil,
		blockBinaryMagic[:], // bare header: a clean empty stream
		v2,
		v2delta,
		v2[:len(v2)-5],                      // truncated trailing payload
		v2[:8+10],                           // truncated block header
		mut(v2, 8+blockHeaderSize+4, 0xff),  // corrupt checksum (payload flip)
		mut(v2, 8+0, 0x06),                  // count flip: header/record-count mismatch
		mut(v2, 8+16+7, 0x80),               // minTS sign flip: min/max inversion
		mut(v2, 8+4, 0x80),                  // unknown flag bit
		mut(v2, 8+blockHeaderSize+12, 0xff), // record ts flip: outside declared bounds
		append([]byte("STRTSB01"), v2[8:]...),
		append([]byte("STRTSB99"), v2[8:]...),
		bytes.Repeat([]byte{0}, 48),
	}
}

// FuzzBlockBinarySourceFill holds the v2 block decoder pair to the
// binary targets' standard: FillTimestamped bit-identical to
// NextTimestamped on arbitrary bytes — same records, same terminal
// error message — across batch sizes, no panics, corruption either
// cleanly skippable or cleanly terminal.
func FuzzBlockBinarySourceFill(f *testing.F) {
	for _, s := range blockFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tsNext, tsNextErr := tsCollect(NewBlockBinarySource(bytes.NewReader(data)))
		if tsNextErr == io.EOF {
			t.Fatal("NextTimestamped leaked raw io.EOF through the error path")
		}
		for _, w := range []int{1, 3, 64} {
			tsFill, tsFillErr := tsFillAll(NewBlockBinarySource(bytes.NewReader(data)), w)
			if (tsFillErr == nil) != (tsNextErr == nil) {
				t.Fatalf("w=%d: Fill err %v, Next err %v", w, tsFillErr, tsNextErr)
			}
			if tsFillErr != nil && tsFillErr.Error() != tsNextErr.Error() {
				t.Fatalf("w=%d: Fill err %q != Next err %q", w, tsFillErr, tsNextErr)
			}
			if len(tsFill) != len(tsNext) {
				t.Fatalf("w=%d: Fill decoded %d records, Next %d", w, len(tsFill), len(tsNext))
			}
			for i := range tsFill {
				if tsFill[i] != tsNext[i] {
					t.Fatalf("w=%d: record %d: Fill %+v != Next %+v", w, i, tsFill[i], tsNext[i])
				}
			}
		}
	})
}

// FuzzTimestampedScanWindowEquivalence holds the timestamped decoder
// pair to the same standard: the fused scanTimestampedWindow path
// (FillTimestamped) must stay bit-identical to NextTimestamped on
// arbitrary bytes — same edges, same timestamps, same terminal error —
// across batch sizes. A dedicated target (rather than a branch of
// FuzzScanWindowEquivalence) gives the three-column fast path its own
// mutation budget.
func FuzzTimestampedScanWindowEquivalence(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tsNext, tsNextErr := tsCollect(NewTimestampedTextSource(bytes.NewReader(data)))
		for _, w := range []int{1, 3, 64} {
			tsFill, tsFillErr := tsFillAll(NewTimestampedTextSource(bytes.NewReader(data)), w)
			if (tsFillErr == nil) != (tsNextErr == nil) {
				t.Fatalf("ts w=%d: Fill err %v, Next err %v", w, tsFillErr, tsNextErr)
			}
			if tsFillErr != nil && tsFillErr.Error() != tsNextErr.Error() {
				t.Fatalf("ts w=%d: Fill err %q != Next err %q", w, tsFillErr, tsNextErr)
			}
			if len(tsFill) != len(tsNext) {
				t.Fatalf("ts w=%d: Fill decoded %d edges, Next %d", w, len(tsFill), len(tsNext))
			}
			for i := range tsFill {
				if tsFill[i] != tsNext[i] {
					t.Fatalf("ts w=%d: edge %d: Fill %+v != Next %+v", w, i, tsFill[i], tsNext[i])
				}
			}
		}
	})
}

// fuzzMergeTS maps one fuzz byte to a timestamp: mostly a narrow signed
// range — ties and unsorted runs everywhere — with the int64 extremes
// and their neighbours reserved to the edge bytes.
func fuzzMergeTS(b byte) int64 {
	switch b {
	case 0:
		return math.MinInt64
	case 1:
		return math.MinInt64 + 1
	case 254:
		return math.MaxInt64 - 1
	case 255:
		return math.MaxInt64
	}
	return int64(b%16) - 8
}

// FuzzOrderedMergeMatchesReference holds the ordered merge to the naive
// reference merge on arbitrary source sets. The fuzz bytes pick the
// output batch size and up to 8 sources, each a v2 block stream (random
// block size, delta timestamps on or off), a slice, or a timestamped
// text stream. A source's timestamps are either one byte per edge (ties,
// unsorted runs, MinInt64 and MaxInt64) or a run counting up from a
// fuzzed base — which wraps past MaxInt64 — so the gallop engages too.
func FuzzOrderedMergeMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 2, 0, 3, 0, 20, 0, 1, 1, 5, 1, 30, 1, 100})
	f.Add([]byte{63, 7, 0, 0, 1, 9, 0, 255, 0, 255, 1, 0, 1, 0, 2, 4, 1, 9, 1, 254,
		1, 31, 0, 12, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 2, 15, 0, 4, 1, 253})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		w := 1 + int(next()%64)
		k := 1 + int(next()%8)
		shards := make([][]TimestampedEdge, k)
		srcs := make([]TimestampedSource, k)
		for s := range shards {
			kind := [...]mergeSourceKind{kindBlock, kindSlice, kindText}[next()%3]
			opts := []BlockOption{WithBlockRecords(1 + int(next()%32))}
			if next()&1 == 1 {
				opts = append(opts, WithBlockDeltaTimestamps())
			}
			n := int(next() % 64)
			if next()&1 == 1 {
				base := fuzzMergeTS(next())
				shards[s] = tsShard(s, n, func(i int) int64 { return base + int64(i) })
			} else {
				shards[s] = tsShard(s, n, func(int) int64 { return fuzzMergeTS(next()) })
			}
			srcs[s] = mergeSource(t, kind, shards[s], opts...)
		}
		p, err := NewOrderedMultiPipeline(context.Background(), srcs, w)
		if err != nil {
			t.Fatal(err)
		}
		assertMergeEqual(t, drainMerged(t, p), referenceMerge(shards), "fuzzed merge")
	})
}
