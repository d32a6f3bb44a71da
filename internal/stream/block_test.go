package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"streamtri/internal/graph"
)

// encodeBlockStream encodes edges with the given writer options and
// returns the raw bytes.
func encodeBlockStream(t *testing.T, edges []TimestampedEdge, opts ...BlockOption) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBlockBinaryEdges(&buf, edges, opts...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randTsEdges builds n edges with timestamps drawn from [0, tsRange)
// (ties and disorder included when tsRange < n).
func randTsEdges(rng *rand.Rand, n int, tsRange int64) []TimestampedEdge {
	out := make([]TimestampedEdge, n)
	for i := range out {
		u := uint32(rng.Intn(1000))
		v := uint32(rng.Intn(1000))
		if u == v {
			v++
		}
		out[i] = TimestampedEdge{E: graph.Edge{U: u, V: v}, TS: rng.Int63n(tsRange)}
	}
	return out
}

func TestBlockBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, n := range []int{0, 1, 5, 100, 1000} {
		for _, bs := range []int{1, 3, 64, DefaultBlockRecords} {
			for _, delta := range []bool{false, true} {
				edges := randTsEdges(rng, n, 50)
				opts := []BlockOption{WithBlockRecords(bs)}
				if delta {
					opts = append(opts, WithBlockDeltaTimestamps())
				}
				data := encodeBlockStream(t, edges, opts...)
				got, err := ReadBlockBinaryEdges(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("n=%d bs=%d delta=%v: %v", n, bs, delta, err)
				}
				if len(got) != len(edges) {
					t.Fatalf("n=%d bs=%d delta=%v: got %d edges, want %d", n, bs, delta, len(got), len(edges))
				}
				for i := range got {
					if got[i] != edges[i] {
						t.Fatalf("n=%d bs=%d delta=%v: edge %d = %+v, want %+v", n, bs, delta, i, got[i], edges[i])
					}
				}
			}
		}
	}
}

func TestBlockBinaryNegativeAndExtremeTimestamps(t *testing.T) {
	edges := []TimestampedEdge{
		{E: graph.Edge{U: 1, V: 2}, TS: math.MinInt64},
		{E: graph.Edge{U: 3, V: 4}, TS: -1},
		{E: graph.Edge{U: 5, V: 6}, TS: math.MaxInt64},
		{E: graph.Edge{U: 7, V: 8}, TS: 0},
	}
	for _, delta := range []bool{false, true} {
		opts := []BlockOption{WithBlockRecords(2)}
		if delta {
			opts = append(opts, WithBlockDeltaTimestamps())
		}
		got, err := ReadBlockBinaryEdges(bytes.NewReader(encodeBlockStream(t, edges, opts...)))
		if err != nil {
			t.Fatalf("delta=%v: %v", delta, err)
		}
		if len(got) != len(edges) {
			t.Fatalf("delta=%v: got %d edges, want %d", delta, len(got), len(edges))
		}
		for i := range got {
			if got[i] != edges[i] {
				t.Fatalf("delta=%v: edge %d = %+v, want %+v", delta, i, got[i], edges[i])
			}
		}
	}
}

func TestBlockBinaryDropsSelfLoopsOnWriteAndRead(t *testing.T) {
	edges := []TimestampedEdge{
		{E: graph.Edge{U: 1, V: 1}, TS: 1},
		{E: graph.Edge{U: 1, V: 2}, TS: 2},
		{E: graph.Edge{U: 3, V: 3}, TS: 3},
	}
	got, err := ReadBlockBinaryEdges(bytes.NewReader(encodeBlockStream(t, edges)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != edges[1] {
		t.Fatalf("got %+v, want exactly the non-loop edge", got)
	}

	// A foreign writer might not drop self loops: craft a block that
	// contains some (including an all-loops block) and check the reader
	// compacts them, skipping emptied blocks entirely.
	var buf bytes.Buffer
	buf.Write(blockBinaryMagic[:])
	writeRawBlock(&buf, []TimestampedEdge{
		{E: graph.Edge{U: 9, V: 9}, TS: 1},
		{E: graph.Edge{U: 9, V: 9}, TS: 2},
	}, 1, 2)
	writeRawBlock(&buf, []TimestampedEdge{
		{E: graph.Edge{U: 4, V: 4}, TS: 5},
		{E: graph.Edge{U: 4, V: 5}, TS: 6},
	}, 5, 6)
	got, err = ReadBlockBinaryEdges(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := TimestampedEdge{E: graph.Edge{U: 4, V: 5}, TS: 6}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("got %+v, want [%+v]", got, want)
	}

	// The same for compressed blocks (flags bit 0), whose decoder drops
	// loops as it expands the deltas: an all-loops block, then a loop
	// before an edge.
	buf.Reset()
	buf.Write(blockBinaryMagic[:])
	for _, blk := range []struct {
		payload      []byte
		count        int
		minTS, maxTS int64
	}{
		{[]byte{9, 0, 0, 0, 9, 0, 0, 0, 0}, 1, 3, 3},
		{[]byte{
			7, 0, 0, 0, 7, 0, 0, 0, 0, // (7, 7) at min_ts
			7, 0, 0, 0, 8, 0, 0, 0, 2, // (7, 8), delta +1
		}, 2, 7, 8},
	} {
		var hdr [blockHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(blk.count))
		binary.LittleEndian.PutUint32(hdr[4:8], blockFlagDeltaTS)
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(blk.payload)))
		binary.LittleEndian.PutUint32(hdr[12:16], crc32Checksum(blk.payload))
		binary.LittleEndian.PutUint64(hdr[16:24], uint64(blk.minTS))
		binary.LittleEndian.PutUint64(hdr[24:32], uint64(blk.maxTS))
		buf.Write(hdr[:])
		buf.Write(blk.payload)
	}
	got, err = ReadBlockBinaryEdges(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want = TimestampedEdge{E: graph.Edge{U: 7, V: 8}, TS: 8}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("compressed: got %+v, want [%+v]", got, want)
	}
}

// writeRawBlock emits one uncompressed block with explicit bounds —
// the hand-rolled writer corruption tests build on.
func writeRawBlock(buf *bytes.Buffer, recs []TimestampedEdge, minTS, maxTS int64) {
	payload := make([]byte, 0, 16*len(recs))
	for _, e := range recs {
		payload = binary.LittleEndian.AppendUint32(payload, e.E.U)
		payload = binary.LittleEndian.AppendUint32(payload, e.E.V)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(e.TS))
	}
	var hdr [blockHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(recs)))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32Checksum(payload))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(minTS))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(maxTS))
	buf.Write(hdr[:])
	buf.Write(payload)
}

func crc32Checksum(b []byte) uint32 {
	return crc32.Checksum(b, crcBlockTable)
}

func TestBlockBinaryBulkMatchesPerRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	edges := randTsEdges(rng, 500, 40)
	data := encodeBlockStream(t, edges, WithBlockRecords(17), WithBlockDeltaTimestamps())
	wantEdges, wantErr := tsCollect(NewBlockBinarySource(bytes.NewReader(data)))
	for _, w := range []int{1, 3, 64} {
		gotEdges, gotErr := tsFillAll(NewBlockBinarySource(bytes.NewReader(data)), w)
		if !errors.Is(gotErr, wantErr) && fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("w=%d: error %v, want %v", w, gotErr, wantErr)
		}
		if len(gotEdges) != len(wantEdges) {
			t.Fatalf("w=%d: %d edges, want %d", w, len(gotEdges), len(wantEdges))
		}
		for i := range gotEdges {
			if gotEdges[i] != wantEdges[i] {
				t.Fatalf("w=%d: edge %d differs", w, i)
			}
		}
	}
}

func TestBlockBinaryHeaderErrors(t *testing.T) {
	good := encodeBlockStream(t, tsEdges(10, 100), WithBlockRecords(4))
	cases := []struct {
		name    string
		data    []byte
		errPart string
	}{
		{"empty", nil, "missing block binary header"},
		{"short magic", []byte("STRT"), "missing block binary header"},
		{"v1 magic", append([]byte("STRTSB01"), good[8:]...), "decode it with the v1 timestamped reader"},
		{"future version", append([]byte("STRTSB99"), good[8:]...), `unsupported timestamped binary version "99"`},
		{"garbage", append([]byte("garbage!"), good[8:]...), "not a block binary edge stream"},
	}
	for _, tc := range cases {
		_, err := ReadBlockBinaryEdges(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s: error %v, want containing %q", tc.name, err, tc.errPart)
		}
		var rec *RecordError
		if errors.As(err, &rec) {
			t.Errorf("%s: header error must be terminal, got skippable RecordError", tc.name)
		}
		// Terminal means sticky: a second read replays the verdict.
		src := NewBlockBinarySource(bytes.NewReader(tc.data))
		_, err1 := src.NextTimestamped()
		_, err2 := src.NextTimestamped()
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Errorf("%s: verdict not sticky: %v then %v", tc.name, err1, err2)
		}
	}
}

// corruptBlockCases builds one stream per corruption, each derived from
// a clean two-block stream (8 records, 4 per block).
func corruptBlockCases(t *testing.T) map[string][]byte {
	t.Helper()
	base := encodeBlockStream(t, tsEdges(8, 100), WithBlockRecords(4))
	clone := func() []byte { return append([]byte(nil), base...) }
	cases := map[string][]byte{}

	d := clone() // flip a payload byte in block 1: checksum mismatch
	d[8+blockHeaderSize+5] ^= 0xff
	cases["crc"] = d

	d = clone() // cut the stream inside block 2's payload
	cases["truncated payload"] = d[:len(d)-7]

	d = clone() // cut the stream inside block 2's header
	cases["truncated header"] = d[:8+blockHeaderSize+4*16+10]

	d = clone() // header says 5 records, payload holds 4
	binary.LittleEndian.PutUint32(d[8:12], 5)
	cases["count mismatch"] = d

	d = clone() // swap min/max
	minb := append([]byte(nil), d[8+16:8+24]...)
	copy(d[8+16:8+24], d[8+24:8+32])
	copy(d[8+24:8+32], minb)
	cases["minmax inversion"] = d

	d = clone() // zero record count
	binary.LittleEndian.PutUint32(d[8:12], 0)
	cases["zero count"] = d

	d = clone() // unknown flag bit
	binary.LittleEndian.PutUint32(d[12:16], 0x80)
	cases["unknown flags"] = d

	d = clone() // record 2's ts pushed outside the declared bounds, crc fixed up
	binary.LittleEndian.PutUint64(d[8+blockHeaderSize+2*16+8:8+blockHeaderSize+3*16], uint64(999999))
	payload := d[8+blockHeaderSize : 8+blockHeaderSize+4*16]
	binary.LittleEndian.PutUint32(d[8+12:8+16], crc32Checksum(payload))
	cases["ts out of bounds"] = d

	return cases
}

func TestBlockBinaryCorruptionTaxonomy(t *testing.T) {
	// Which corruptions are block-confined (skippable RecordErrors) vs
	// terminal. A lying header — structural inconsistency or a bound the
	// records escape — must be terminal: the merge trusts bounds to copy
	// whole blocks through.
	skippable := map[string]bool{
		"crc":               true,
		"truncated payload": true,
		"truncated header":  true,
	}
	for name, data := range corruptBlockCases(t) {
		_, err := ReadBlockBinaryEdges(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: decoded without error", name)
			continue
		}
		var rec *RecordError
		if got := errors.As(err, &rec); got != skippable[name] {
			t.Errorf("%s: skippable=%v, want %v (err: %v)", name, got, skippable[name], err)
		}
	}
}

func TestBlockBinaryChecksumSkipResumesAtNextBlock(t *testing.T) {
	// Three 2-record blocks; damage the middle one's payload. Retrying
	// after the RecordError must resume at block 3 — corruption is
	// block-confined.
	edges := tsEdges(6, 100)
	data := encodeBlockStream(t, edges, WithBlockRecords(2))
	block2 := 8 + blockHeaderSize + 2*16 // past the magic and block 1
	data[block2+blockHeaderSize+3] ^= 0x01
	src := NewBlockBinarySource(bytes.NewReader(data))
	var got []TimestampedEdge
	var sawRecordErr bool
	for {
		e, err := src.NextTimestamped()
		if err == io.EOF {
			break
		}
		if err != nil {
			var rec *RecordError
			if !errors.As(err, &rec) {
				t.Fatalf("terminal error: %v", err)
			}
			sawRecordErr = true
			continue
		}
		got = append(got, e)
	}
	if !sawRecordErr {
		t.Fatal("expected a checksum RecordError")
	}
	want := append(append([]TimestampedEdge(nil), edges[:2]...), edges[4:]...)
	if len(got) != len(want) {
		t.Fatalf("got %d edges, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBlockBinaryCompressedStructuralErrors(t *testing.T) {
	// A compressed block whose payload is structurally wrong but
	// checksums fine: terminal, never skippable.
	mk := func(mutate func(payload []byte) []byte, count int) []byte {
		var buf bytes.Buffer
		buf.Write(blockBinaryMagic[:])
		// count records of (u, v, varint delta).
		payload := []byte{}
		for i := 0; i < count; i++ {
			payload = binary.LittleEndian.AppendUint32(payload, uint32(i))
			payload = binary.LittleEndian.AppendUint32(payload, uint32(i+1))
			payload = append(payload, 2) // delta +1 zigzagged
		}
		payload = mutate(payload)
		var hdr [blockHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(count))
		binary.LittleEndian.PutUint32(hdr[4:8], blockFlagDeltaTS)
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[12:16], crc32Checksum(payload))
		binary.LittleEndian.PutUint64(hdr[16:24], 0)
		binary.LittleEndian.PutUint64(hdr[24:32], uint64(count))
		buf.Write(hdr[:])
		buf.Write(payload)
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"trailing bytes": mk(func(p []byte) []byte { return append(p, 0, 0) }, 4),
		// The last record's delta is a dangling continuation byte: the
		// varint runs off the end of the payload.
		"malformed varint": mk(func(p []byte) []byte { p[len(p)-1] = 0x80; return p }, 4),
		// The last record's delta is +2, not +1: its timestamp lands one
		// past max_ts, and the checksum still matches.
		"timestamp outside declared bounds": mk(func(p []byte) []byte { p[len(p)-1] = 4; return p }, 4),
	}
	for name, data := range cases {
		_, err := ReadBlockBinaryEdges(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: decoded without error", name)
			continue
		}
		var rec *RecordError
		if errors.As(err, &rec) {
			t.Errorf("%s: structural error must be terminal, got skippable: %v", name, err)
		}
	}
}

func TestSniffFormat(t *testing.T) {
	cases := []struct {
		prefix []byte
		want   StreamFormat
	}{
		{[]byte("STRTSB01extra"), FormatTimestampedBinary},
		{[]byte("STRTSB02"), FormatBlockBinary},
		{[]byte("STRTSB03"), FormatUnknown},
		{[]byte("STRTSB0"), FormatUnknown},
		{[]byte("1 2 3\n"), FormatUnknown},
		{nil, FormatUnknown},
	}
	for _, tc := range cases {
		if got := SniffFormat(tc.prefix); got != tc.want {
			t.Errorf("SniffFormat(%q) = %v, want %v", tc.prefix, got, tc.want)
		}
	}
}

func TestPlainBinarySourceRejectsBlockStream(t *testing.T) {
	data := encodeBlockStream(t, tsEdges(4, 10))
	_, err := NewBinarySource(bytes.NewReader(data)).Next()
	if err == nil || !strings.Contains(err.Error(), "decode it with the block reader") {
		t.Fatalf("plain decoder accepted a v2 stream: %v", err)
	}
}

func TestV1TimestampedSourceRejectsBlockStream(t *testing.T) {
	data := encodeBlockStream(t, tsEdges(4, 10))
	_, err := NewTimestampedBinarySource(bytes.NewReader(data)).NextTimestamped()
	if err == nil || !strings.Contains(err.Error(), "decode it with the block reader") {
		t.Fatalf("v1 decoder accepted a v2 stream: %v", err)
	}
}

// TestBlockBinarySourceCloseHandsBackItsBlock drops a source after one
// record, mid-block, alone and under StripTimestamps: closing it must
// list the block's buffer again, so the list holds as many idle
// buffers as before the read, and a second Close must change nothing.
func TestBlockBinarySourceCloseHandsBackItsBlock(t *testing.T) {
	recs := make([]TimestampedEdge, 12)
	for i := range recs {
		recs[i] = TimestampedEdge{E: graph.Edge{U: uint32(i), V: uint32(i + 1)}, TS: int64(i)}
	}
	for _, opts := range [][]BlockOption{{WithBlockRecords(4)}, {WithBlockRecords(4), WithBlockDeltaTimestamps()}} {
		data := encodeBlockStream(t, recs, opts...)
		if _, err := tsCollect(NewBlockBinarySource(bytes.NewReader(data))); err != nil {
			t.Fatal(err) // leaves the buffers one block read needs listed
		}
		sources := map[string]BatchFiller{
			"source":          NewBlockBinarySource(bytes.NewReader(data)),
			"StripTimestamps": StripTimestamps(NewBlockBinarySource(bytes.NewReader(data))).(BatchFiller),
		}
		for name, src := range sources {
			idle := BlockBufs.Idle()
			if n, err := src.Fill(make([]graph.Edge, 1)); n != 1 || err != nil {
				t.Fatalf("%s: Fill read %d records: %v", name, n, err)
			}
			if BlockBufs.Idle() != idle-1 {
				t.Fatalf("%s: %d idle buffers mid-block, want %d", name, BlockBufs.Idle(), idle-1)
			}
			for range 2 {
				if err := src.(io.Closer).Close(); err != nil {
					t.Fatal(err)
				}
				if BlockBufs.Idle() != idle {
					t.Fatalf("%s: %d idle buffers after Close, want %d", name, BlockBufs.Idle(), idle)
				}
			}
		}
	}
}

// BenchmarkBlockBodyFill decodes one 1024-edge v2 body per iteration in
// 512-edge fills: trictd's path for window-reads' bodies, one
// uncompressed block through StripTimestamps over a BlockBinarySource
// on a reused 64 KiB reader.
func BenchmarkBlockBodyFill(b *testing.B) {
	batch := walBenchBatch(1024)
	recs := make([]TimestampedEdge, len(batch))
	for i, e := range batch {
		recs[i] = TimestampedEdge{E: e, TS: int64(i)}
	}
	var body bytes.Buffer
	if err := WriteBlockBinaryEdges(&body, recs); err != nil {
		b.Fatal(err)
	}
	br := bufio.NewReaderSize(nil, 1<<16)
	out := make([]graph.Edge, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(bytes.NewReader(body.Bytes()))
		src := StripTimestamps(NewBlockBinarySource(br)).(BatchFiller)
		for {
			if _, err := src.Fill(out); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/edge")
}
