package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"streamtri/internal/graph"
)

// Block-structured timestamped binary format (v2, "STRTSB02"): after the
// 8-byte magic the file is a sequence of self-describing blocks, each a
// 32-byte header followed by a record payload. The header carries the
// record count, the min/max timestamp over the block's records, and a
// CRC-32C checksum of the payload, so a reader validates a whole block
// once — checksum, declared bounds, structural consistency — and can
// then hand the raw bytes downstream as a zero-copy view instead of
// materializing one TimestampedEdge per record. The embedded bounds are
// what the ordered merge gallops on at block granularity: a block whose
// max_ts merges before every rival's head key is copied through whole,
// with no per-edge tournament (see blockmerge.go). The checksum makes
// corruption block-confined: a damaged block is skippable under a
// decode-error budget, and the reader resumes at the next header.
//
// Block header layout (little-endian):
//
//	offset  size  field
//	0       4     u32 record count (> 0)
//	4       4     u32 flags (bit 0: varint-delta timestamp compression)
//	8       4     u32 payload length in bytes
//	12      4     u32 CRC-32C (Castagnoli) of the payload
//	16      8     i64 min timestamp over the block's records
//	24      8     i64 max timestamp over the block's records
//
// The uncompressed payload is count × 16-byte records identical to the
// v1 record (u32 U, u32 V, i64 TS). With flags bit 0 set, each record is
// u32 U, u32 V, then the zigzag varint delta of its timestamp against
// the previous record's (the first against min_ts) — zigzag because
// blocks are not required to be sorted, only bounded, so deltas may be
// negative. Records within a block keep stream order; min/max are
// bounds, not a sortedness claim.

// blockBinaryMagic is the v2 stream header; the trailing "02" is the
// format version (v1, "STRTSB01", is the record-per-record format).
var blockBinaryMagic = [8]byte{'S', 'T', 'R', 'T', 'S', 'B', '0', '2'}

const (
	blockHeaderSize = 32

	// blockFlagDeltaTS marks varint-delta-compressed timestamps.
	blockFlagDeltaTS = 1 << 0
	blockKnownFlags  = blockFlagDeltaTS

	// DefaultBlockRecords is the writer's default records-per-block: a
	// 64 KiB uncompressed payload, small enough that a k-way merge
	// holding a few blocks per source stays cache-friendly, large
	// enough that header and checksum overhead is negligible.
	DefaultBlockRecords = 4096

	// maxBlockRecords bounds the per-block record count a reader will
	// accept — a corrupt or adversarial header must not demand an
	// unbounded allocation before the checksum can reject it.
	maxBlockRecords = 1 << 21

	// Compressed record size bounds: 8 bytes of vertex ids plus a
	// 1..10-byte varint delta.
	minCompressedRecord = 9
	maxCompressedRecord = 18
)

// crcBlockTable is the Castagnoli polynomial table; CRC-32C has hardware
// support on amd64/arm64, so checksumming costs well under 1 ns/record.
var crcBlockTable = crc32.MakeTable(crc32.Castagnoli)

// StreamFormat identifies a binary edge-stream flavor from its first
// bytes — the shared sniff behind cmd/trict, the trictd ingest body
// dispatch, and the public wrapper.
type StreamFormat uint8

const (
	// FormatUnknown: no recognized magic. Headerless plain binary and
	// text streams both land here — the caller's format flag decides.
	FormatUnknown StreamFormat = iota
	// FormatTimestampedBinary is the v1 timestamped format: "STRTSB01",
	// then bare 16-byte records.
	FormatTimestampedBinary
	// FormatBlockBinary is the v2 block-structured format: "STRTSB02",
	// then self-describing blocks.
	FormatBlockBinary
)

// SniffFormat classifies a stream from its first bytes (8 suffice).
// Every tool that dispatches on a binary flavor — cmd/trict, the trictd
// HTTP ingest path — sniffs through here, so the format set has exactly
// one definition.
func SniffFormat(prefix []byte) StreamFormat {
	if len(prefix) < 8 {
		return FormatUnknown
	}
	switch {
	case bytes.Equal(prefix[:8], tsBinaryMagic[:]):
		return FormatTimestampedBinary
	case bytes.Equal(prefix[:8], blockBinaryMagic[:]):
		return FormatBlockBinary
	}
	return FormatUnknown
}

// blockConfig carries the writer knobs.
type blockConfig struct {
	records int
	deltaTS bool
}

// BlockOption configures the v2 block writer.
type BlockOption func(*blockConfig)

// WithBlockRecords sets the records-per-block target (default
// DefaultBlockRecords). Larger blocks amortize headers further and give
// the block-granular merge longer gallops; smaller blocks bound the
// damage radius of a corrupt checksum. n is clamped to
// [1, maxBlockRecords].
func WithBlockRecords(n int) BlockOption {
	return func(c *blockConfig) { c.records = n }
}

// WithBlockDeltaTimestamps enables varint-delta timestamp compression
// (flags bit 0): sorted or near-sorted streams with small gaps shrink
// from 16 to ~9-10 bytes per record. Readers handle both layouts
// transparently.
func WithBlockDeltaTimestamps() BlockOption {
	return func(c *blockConfig) { c.deltaTS = true }
}

func buildBlockConfig(opts []BlockOption) blockConfig {
	c := blockConfig{records: DefaultBlockRecords}
	for _, o := range opts {
		o(&c)
	}
	if c.records < 1 {
		c.records = 1
	}
	if c.records > maxBlockRecords {
		c.records = maxBlockRecords
	}
	return c
}

// BlockWriter streams timestamped edges into the v2 block format,
// buffering up to the configured records-per-block and emitting each
// block with its computed bounds and checksum. Self loops are dropped
// at write time, matching every other encoder. Close flushes the final
// (possibly partial) block; it does not close the underlying writer.
type BlockWriter struct {
	bw      *bufio.Writer
	cfg     blockConfig
	pending []TimestampedEdge
	hdrDone bool
	scratch []byte
}

// NewBlockWriter returns a BlockWriter over w.
func NewBlockWriter(w io.Writer, opts ...BlockOption) *BlockWriter {
	return &BlockWriter{bw: bufio.NewWriterSize(w, 1<<16), cfg: buildBlockConfig(opts)}
}

// Write buffers one edge, emitting a block when the target is reached.
func (w *BlockWriter) Write(e TimestampedEdge) error {
	if e.E.U == e.E.V {
		return nil // drop self loops
	}
	w.pending = append(w.pending, e)
	if len(w.pending) >= w.cfg.records {
		return w.flushBlock()
	}
	return nil
}

// WriteBatch buffers a slice of edges.
func (w *BlockWriter) WriteBatch(edges []TimestampedEdge) error {
	for _, e := range edges {
		if err := w.Write(e); err != nil {
			return err
		}
	}
	return nil
}

// Close emits the trailing partial block (if any) and flushes the
// buffered writer. A stream with no edges is the bare magic.
func (w *BlockWriter) Close() error {
	if err := w.writeHeaderOnce(); err != nil {
		return err
	}
	if len(w.pending) > 0 {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

func (w *BlockWriter) writeHeaderOnce() error {
	if w.hdrDone {
		return nil
	}
	w.hdrDone = true
	_, err := w.bw.Write(blockBinaryMagic[:])
	return err
}

// flushBlock encodes and emits the pending records as one block.
func (w *BlockWriter) flushBlock() error {
	if err := w.writeHeaderOnce(); err != nil {
		return err
	}
	recs := w.pending
	minTS, maxTS := recs[0].TS, recs[0].TS
	for _, e := range recs[1:] {
		if e.TS < minTS {
			minTS = e.TS
		}
		if e.TS > maxTS {
			maxTS = e.TS
		}
	}
	payload := w.scratch[:0]
	if w.cfg.deltaTS {
		prev := minTS
		var v [binary.MaxVarintLen64]byte
		for _, e := range recs {
			payload = binary.LittleEndian.AppendUint32(payload, e.E.U)
			payload = binary.LittleEndian.AppendUint32(payload, e.E.V)
			n := binary.PutVarint(v[:], e.TS-prev)
			payload = append(payload, v[:n]...)
			prev = e.TS
		}
	} else {
		for _, e := range recs {
			payload = binary.LittleEndian.AppendUint32(payload, e.E.U)
			payload = binary.LittleEndian.AppendUint32(payload, e.E.V)
			payload = binary.LittleEndian.AppendUint64(payload, uint64(e.TS))
		}
	}
	w.scratch = payload[:0]

	var hdr [blockHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(recs)))
	flags := uint32(0)
	if w.cfg.deltaTS {
		flags |= blockFlagDeltaTS
	}
	binary.LittleEndian.PutUint32(hdr[4:8], flags)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, crcBlockTable))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(minTS))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(maxTS))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.pending = w.pending[:0]
	return nil
}

// WriteBlockBinaryEdges writes edges in the v2 block format read by
// BlockBinarySource.
func WriteBlockBinaryEdges(w io.Writer, edges []TimestampedEdge, opts ...BlockOption) error {
	bw := NewBlockWriter(w, opts...)
	if err := bw.WriteBatch(edges); err != nil {
		return err
	}
	return bw.Close()
}

// ReadBlockBinaryEdges reads a whole v2 block stream into memory.
func ReadBlockBinaryEdges(r io.Reader) ([]TimestampedEdge, error) {
	var out []TimestampedEdge
	src := NewBlockBinarySource(r)
	for {
		e, err := src.NextTimestamped()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

// blockBufPool recycles block payload buffers across views: with the
// per-source credit budget bounding views in flight, a k-way merge's
// steady state circulates ~3 buffers per source through this pool,
// whatever the source's format.
var blockBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 16*DefaultBlockRecords); return &b }}

func getBlockBuf(n int) []byte {
	bp := blockBufPool.Get().(*[]byte)
	b := *bp
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

func putBlockBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	blockBufPool.Put(&b)
}

// blockView is one validated block's records as raw bytes: count
// 16-byte records (compressed payloads are expanded at validation time,
// so views always index fixed-width records), plus maxTS, an upper
// bound on their timestamps that the merge's block gallop relies on.
// It is the unit the ordered merge works in —
// handed from decoder to merger by reference, never re-materialized as
// []TimestampedEdge. Views are refcounted: release returns the backing
// buffer to the shared pool once the last holder lets go, after which
// the view's contents are undefined. Allocation contract: a view's
// bytes are owned by the pipeline; a consumer that needs records past
// release must copy them out (FillTimestamped does exactly that).
type blockView struct {
	data  []byte // 16 * count bytes of raw v1-layout records
	buf   []byte // the pooled allocation backing data (data may be a trimmed tail)
	count int
	maxTS int64
	refs  atomic.Int32
}

func (v *blockView) retain() { v.refs.Add(1) }

func (v *blockView) release() {
	if v.refs.Add(-1) == 0 {
		putBlockBuf(v.buf)
		v.buf, v.data = nil, nil
	}
}

// ts returns record i's timestamp.
func (v *blockView) ts(i int) int64 {
	return int64(binary.LittleEndian.Uint64(v.data[16*i+8 : 16*i+16]))
}

// edge returns record i's edge.
func (v *blockView) edge(i int) graph.Edge {
	return graph.Edge{
		U: binary.LittleEndian.Uint32(v.data[16*i : 16*i+4]),
		V: binary.LittleEndian.Uint32(v.data[16*i+4 : 16*i+8]),
	}
}

// record returns record i as a TimestampedEdge.
func (v *blockView) record(i int) TimestampedEdge {
	return TimestampedEdge{E: v.edge(i), TS: v.ts(i)}
}

// tail returns the view from record i on, transferring ownership of the
// backing buffer to the returned view.
func (v *blockView) tail(i int) *blockView {
	if i == 0 {
		return v
	}
	t := &blockView{data: v.data[16*i:], buf: v.buf, count: v.count - i, maxTS: v.maxTS}
	t.refs.Store(v.refs.Load())
	return t
}

// BlockBinarySource streams timestamped edges from the v2 block format.
// It implements TimestampedSource and TimestampedBatchFiller — both
// paths are bit-identical, built on the same block validator — and
// additionally exposes whole validated blocks to the ordered merge
// through nextBlockView, the zero-copy fast path that skips per-edge
// materialization entirely.
type BlockBinarySource struct {
	br       *bufio.Reader
	hdrDone  bool
	hdrError error

	view *blockView // current block, partially consumed by the record paths
	pos  int

	compScratch []byte // reusable buffer for compressed payloads
}

// NewBlockBinarySource returns a TimestampedSource reading the v2 block
// format from r. The magic is validated on first use; a missing or
// wrong-version header is a terminal decode error.
func NewBlockBinarySource(r io.Reader) *BlockBinarySource {
	return &BlockBinarySource{br: bufio.NewReaderSize(r, 1<<16)}
}

// checkHeader consumes and validates the magic once; a bad header is
// terminal and replayed on every subsequent call.
func (s *BlockBinarySource) checkHeader() error {
	if s.hdrDone {
		return s.hdrError
	}
	s.hdrDone = true
	var hdr [8]byte
	if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
		s.hdrError = fmt.Errorf("stream: missing block binary header: %w", err)
		return s.hdrError
	}
	if hdr != blockBinaryMagic {
		switch {
		case hdr == tsBinaryMagic:
			s.hdrError = fmt.Errorf("stream: timestamped binary v1 stream (header %q); decode it with the v1 timestamped reader", hdr[:])
		case bytes.Equal(hdr[:6], blockBinaryMagic[:6]):
			s.hdrError = fmt.Errorf("stream: unsupported timestamped binary version %q (want %q)", hdr[6:], blockBinaryMagic[6:])
		default:
			s.hdrError = fmt.Errorf("stream: not a block binary edge stream (header %q)", hdr[:])
		}
	}
	return s.hdrError
}

// nextBlock reads, validates, and (if compressed) expands the next
// block, returning it as a view. Errors are either skippable
// RecordErrors — a checksum mismatch (the whole block is damaged but
// delimited; the reader has already advanced past it) or a truncated
// trailing block/header (io.ErrUnexpectedEOF, the stream simply ends) —
// or terminal: structural header lies (zero or absurd counts, unknown
// flags, payload length inconsistent with the record count, inverted
// min/max bounds) and records whose timestamps escape the declared
// bounds, which would break the merge's gallop contract and mean the
// writer, not the wire, was wrong. Self loops are compacted out of the
// returned view, matching every other decoder; a block left empty by
// compaction is skipped. io.EOF is returned exactly at a clean end.
func (s *BlockBinarySource) nextBlock() (*blockView, error) {
	if err := s.checkHeader(); err != nil {
		return nil, err
	}
	for {
		var hdr [blockHeaderSize]byte
		n, err := io.ReadFull(s.br, hdr[:])
		if err == io.EOF {
			return nil, io.EOF
		}
		if err != nil {
			werr := fmt.Errorf("stream: truncated block header (%d bytes): %w", n, err)
			if err == io.ErrUnexpectedEOF {
				return nil, &RecordError{Err: werr}
			}
			return nil, werr
		}
		count := int(binary.LittleEndian.Uint32(hdr[0:4]))
		flags := binary.LittleEndian.Uint32(hdr[4:8])
		payloadLen := int(binary.LittleEndian.Uint32(hdr[8:12]))
		wantCRC := binary.LittleEndian.Uint32(hdr[12:16])
		minTS := int64(binary.LittleEndian.Uint64(hdr[16:24]))
		maxTS := int64(binary.LittleEndian.Uint64(hdr[24:32]))

		if count == 0 {
			return nil, fmt.Errorf("stream: block with zero records")
		}
		if count > maxBlockRecords {
			return nil, fmt.Errorf("stream: block record count %d exceeds the %d limit", count, maxBlockRecords)
		}
		if flags&^uint32(blockKnownFlags) != 0 {
			return nil, fmt.Errorf("stream: unknown block flags %#x", flags)
		}
		if minTS > maxTS {
			return nil, fmt.Errorf("stream: block timestamp bounds inverted (min %d > max %d)", minTS, maxTS)
		}
		compressed := flags&blockFlagDeltaTS != 0
		if compressed {
			if payloadLen < minCompressedRecord*count || payloadLen > maxCompressedRecord*count {
				return nil, fmt.Errorf("stream: block payload length %d inconsistent with %d compressed records", payloadLen, count)
			}
		} else if payloadLen != 16*count {
			return nil, fmt.Errorf("stream: block payload length %d does not match %d records (want %d)", payloadLen, count, 16*count)
		}

		var raw []byte // destination: 16*count raw record bytes
		var payload []byte
		if compressed {
			if cap(s.compScratch) < payloadLen {
				s.compScratch = make([]byte, payloadLen)
			}
			payload = s.compScratch[:payloadLen]
		} else {
			raw = getBlockBuf(16 * count)
			payload = raw
		}
		if n, err := io.ReadFull(s.br, payload); err != nil {
			if !compressed {
				putBlockBuf(raw)
			}
			werr := fmt.Errorf("stream: truncated block payload (%d of %d bytes): %w", n, payloadLen, err)
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				return nil, &RecordError{Err: werr}
			}
			return nil, werr
		}
		if got := crc32.Checksum(payload, crcBlockTable); got != wantCRC {
			if !compressed {
				putBlockBuf(raw)
			}
			// The block's bytes are fully consumed, so the reader is
			// positioned at the next header: corruption is confined to
			// this block and skippable under a decode-error budget.
			return nil, recordErrorf("stream: block checksum mismatch (got %#08x, want %#08x; %d records lost)", got, wantCRC, count)
		}
		if compressed {
			var err error
			raw, err = expandDeltaBlock(payload, count, minTS)
			if err != nil {
				return nil, err
			}
		}

		// Validate every record against the declared bounds — the merge
		// copies whole blocks through on the strength of maxTS, so a lying
		// bound is terminal, not skippable — and compact self loops.
		out := 0
		for i := 0; i < count; i++ {
			ts := int64(binary.LittleEndian.Uint64(raw[16*i+8 : 16*i+16]))
			if ts < minTS || ts > maxTS {
				putBlockBuf(raw)
				return nil, fmt.Errorf("stream: block record %d timestamp %d outside declared bounds [%d, %d]", i, ts, minTS, maxTS)
			}
			u := binary.LittleEndian.Uint32(raw[16*i : 16*i+4])
			v := binary.LittleEndian.Uint32(raw[16*i+4 : 16*i+8])
			if u == v {
				continue // drop self loops, matching the other decoders
			}
			if out != i {
				copy(raw[16*out:16*out+16], raw[16*i:16*i+16])
			}
			out++
		}
		if out == 0 {
			putBlockBuf(raw)
			continue // every record was a self loop; try the next block
		}
		v := &blockView{data: raw[:16*out], buf: raw, count: out, maxTS: maxTS}
		v.refs.Store(1)
		return v, nil
	}
}

// expandDeltaBlock decodes a varint-delta payload into a pooled raw
// record buffer. The payload has already passed its checksum, so any
// inconsistency here means the block was written wrong — terminal.
func expandDeltaBlock(payload []byte, count int, minTS int64) ([]byte, error) {
	raw := getBlockBuf(16 * count)
	prev := minTS
	p := 0
	for i := 0; i < count; i++ {
		if p+8 > len(payload) {
			putBlockBuf(raw)
			return nil, fmt.Errorf("stream: compressed block record %d overruns the payload", i)
		}
		copy(raw[16*i:16*i+8], payload[p:p+8])
		p += 8
		delta, n := binary.Varint(payload[p:])
		if n <= 0 {
			putBlockBuf(raw)
			return nil, fmt.Errorf("stream: compressed block record %d has a malformed timestamp delta", i)
		}
		p += n
		ts := prev + delta
		binary.LittleEndian.PutUint64(raw[16*i+8:16*i+16], uint64(ts))
		prev = ts
	}
	if p != len(payload) {
		putBlockBuf(raw)
		return nil, fmt.Errorf("stream: compressed block has %d trailing payload bytes after %d records", len(payload)-p, count)
	}
	return raw, nil
}

// nextBlockView hands the merge layer the next validated block,
// including the unconsumed tail of a block the record paths started on.
// Ownership of the view transfers to the caller, which must release it.
func (s *BlockBinarySource) nextBlockView() (*blockView, error) {
	if s.view != nil {
		v, pos := s.view, s.pos
		s.view, s.pos = nil, 0
		if pos < v.count {
			return v.tail(pos), nil
		}
		v.release()
	}
	return s.nextBlock()
}

// NextTimestamped implements TimestampedSource. It is bit-identical to
// FillTimestamped — both consume the same validated blocks in order.
func (s *BlockBinarySource) NextTimestamped() (TimestampedEdge, error) {
	if s.view == nil || s.pos >= s.view.count {
		if s.view != nil {
			s.view.release()
			s.view = nil
		}
		v, err := s.nextBlock()
		if err != nil {
			return TimestampedEdge{}, err
		}
		s.view, s.pos = v, 0
	}
	e := s.view.record(s.pos)
	s.pos++
	return e, nil
}

// FillTimestamped implements TimestampedBatchFiller: records are copied
// out of validated block views into out. n may be positive alongside a
// non-nil err (the records decoded before a damaged or truncated
// block).
func (s *BlockBinarySource) FillTimestamped(out []TimestampedEdge) (int, error) {
	total := 0
	for total < len(out) {
		if s.view == nil || s.pos >= s.view.count {
			if s.view != nil {
				s.view.release()
				s.view = nil
			}
			v, err := s.nextBlock()
			if err != nil {
				if err == io.EOF && total > 0 {
					return total, nil
				}
				return total, err
			}
			s.view, s.pos = v, 0
		}
		for total < len(out) && s.pos < s.view.count {
			out[total] = s.view.record(s.pos)
			total++
			s.pos++
		}
	}
	return total, nil
}

// blockSource is what the ordered merge consumes: a source of
// refcounted block views whose maxTS bounds every record. io.EOF ends
// the source; a *RecordError is skippable under a decode-error budget.
// BlockBinarySource implements it with its validated zero-copy blocks;
// every other TimestampedSource — wrappers like the watermark stage
// included — is adapted by filledBlockSource (blockmerge.go).
type blockSource interface {
	nextBlockView() (*blockView, error)
}

// boundsBeat reports whether a block whose records are all ≤ maxTS from
// source src merges entirely before the (limitTS, limitRank) rival key:
// every record beats the limit, so the whole block can be copied through
// with no per-edge comparisons. It is the tournament's (timestamp,
// source) order, the tie broken by source index.
func boundsBeat(maxTS int64, src int, limitTS int64, limitRank int) bool {
	return maxTS < limitTS || (maxTS == limitTS && src < limitRank)
}

// maxTSAgainst converts a (limitTS, limitRank) runner-up key into the
// largest timestamp a record from source src may carry and still win its
// tournament — the bound of the gallop's edge-level prefix walk. On a
// timestamp tie the lower source index wins, so a source with
// src < limitRank may still carry exactly limitTS. math.MinInt64
// underflow yields a sentinel no record beats.
func maxTSAgainst(limitTS int64, limitRank, src int) (int64, bool) {
	if src > limitRank {
		if limitTS == math.MinInt64 {
			return 0, false
		}
		return limitTS - 1, true
	}
	return limitTS, true
}
