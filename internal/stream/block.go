package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"streamtri/internal/freelist"
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
// at write time, matching every other encoder. Each block reaches the
// underlying writer in one Write call, the stream magic ahead of the
// first, so the writer holds no byte buffer of its own. Close emits
// the final (possibly partial) block; it does not close the underlying
// writer. Reset starts a new stream over another writer.
type BlockWriter struct {
	dst     io.Writer
	cfg     blockConfig
	pending []TimestampedEdge
	hdrDone bool
	scratch []byte
}

// NewBlockWriter returns a BlockWriter over w.
func NewBlockWriter(w io.Writer, opts ...BlockOption) *BlockWriter {
	return &BlockWriter{dst: w, cfg: buildBlockConfig(opts)}
}

// Reset rebinds the writer to dst as the start of a new stream: records
// buffered by Write are discarded, and the next block is preceded by
// the stream magic again. One BlockWriter can so serve a sequence of
// files (the serving layer's WAL segments).
func (w *BlockWriter) Reset(dst io.Writer) {
	w.dst = dst
	w.pending = w.pending[:0]
	w.hdrDone = false
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

// Close emits the trailing partial block (if any). A stream with no
// edges is the bare magic.
func (w *BlockWriter) Close() error {
	if len(w.pending) > 0 {
		return w.flushBlock()
	}
	if w.hdrDone {
		return nil
	}
	_, err := w.dst.Write(w.appendMagic(nil))
	return err
}

// appendMagic appends the stream magic to buf if no block has been
// started since the stream began.
func (w *BlockWriter) appendMagic(buf []byte) []byte {
	if w.hdrDone {
		return buf
	}
	w.hdrDone = true
	return append(buf, blockBinaryMagic[:]...)
}

// flushBlock encodes the pending records as one block, after the magic
// if it is the stream's first, and writes it.
func (w *BlockWriter) flushBlock() error {
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
	buf := w.appendMagic(w.scratch[:0])
	hdr := len(buf)
	buf = append(buf, make([]byte, blockHeaderSize)...)
	if w.cfg.deltaTS {
		prev := minTS
		for _, e := range recs {
			buf = binary.LittleEndian.AppendUint32(buf, e.E.U)
			buf = binary.LittleEndian.AppendUint32(buf, e.E.V)
			buf = binary.AppendVarint(buf, e.TS-prev)
			prev = e.TS
		}
	} else {
		for _, e := range recs {
			buf = binary.LittleEndian.AppendUint32(buf, e.E.U)
			buf = binary.LittleEndian.AppendUint32(buf, e.E.V)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(e.TS))
		}
	}
	w.scratch = buf[:0]

	flags := uint32(0)
	if w.cfg.deltaTS {
		flags |= blockFlagDeltaTS
	}
	putBlockHeader(buf[hdr:], len(recs), flags, buf[hdr+blockHeaderSize:], minTS, maxTS)
	if _, err := w.dst.Write(buf); err != nil {
		return err
	}
	w.pending = w.pending[:0]
	return nil
}

// putBlockHeader fills hdr, at least blockHeaderSize bytes, with the
// header of a block of count records carrying payload: the one place
// the header layout is written.
func putBlockHeader(hdr []byte, count int, flags uint32, payload []byte, minTS, maxTS int64) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(count))
	binary.LittleEndian.PutUint32(hdr[4:8], flags)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, crcBlockTable))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(minTS))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(maxTS))
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

// BlockBufs lists the idle block buffers of views and WAL appends, for
// any goroutine to borrow: with each source's one-view hand-off channel
// bounding views in flight, a k-way merge's steady state circulates ~3
// buffers per source through it, whatever the source's format, and
// AppendEdgeBlock borrows one per append. The serving layer builds its
// checkpoint blobs in one too, so a daemon keeps one list of such
// buffers, not one per use. A new buffer has room for a default
// block's 16-byte records, and blockBufSlack bytes past the request.
// Items are listed with length 0.
var BlockBufs = freelist.List[[]byte]{
	New:  func(n int) []byte { return make([]byte, 0, max(n+blockBufSlack, 16*DefaultBlockRecords)) },
	Size: func(b []byte) int { return cap(b) },
}

// blockBufSlack is the stream magic and one block header: a buffer a
// block's payload was read into then also fits AppendEdgeBlock's
// magic, header and records for a batch of as many edges.
const blockBufSlack = len(blockBinaryMagic) + blockHeaderSize

func getBlockBuf(n int) []byte { return BlockBufs.Get(n)[:n] }

func putBlockBuf(b []byte) {
	if cap(b) > 0 {
		BlockBufs.Put(b[:0])
	}
}

// blockView is one validated block's records as raw bytes: count
// 16-byte records (compressed payloads are expanded at validation time,
// so views always index fixed-width records), plus maxTS, an upper
// bound on their timestamps that the merge's block gallop relies on.
// It is the unit the ordered merge works in —
// handed from decoder to merger by reference, never re-materialized as
// []TimestampedEdge. A view has one owner at a time: release returns
// the backing buffer to the shared free list, after which the view's
// contents are undefined, and a second release is a no-op. Allocation
// contract: a view's bytes are owned by the pipeline; a consumer that
// needs records past release must copy them out (FillTimestamped does
// exactly that).
type blockView struct {
	data  []byte // 16 * count bytes of raw v1-layout records
	buf   []byte // the listed allocation backing data (data may be a trimmed tail)
	count int
	maxTS int64
}

func (v *blockView) release() {
	putBlockBuf(v.buf)
	v.buf, v.data = nil, nil
}

// ts returns record i's timestamp.
func (v *blockView) ts(i int) int64 {
	return int64(binary.LittleEndian.Uint64(v.data[16*i+8 : 16*i+16]))
}

// edge returns record i's edge.
func (v *blockView) edge(i int) graph.Edge {
	rec := (*[8]byte)(v.data[16*i:])
	return graph.Edge{U: binary.LittleEndian.Uint32(rec[0:4]), V: binary.LittleEndian.Uint32(rec[4:8])}
}

// record returns record i as a TimestampedEdge.
func (v *blockView) record(i int) TimestampedEdge {
	return TimestampedEdge{E: v.edge(i), TS: v.ts(i)}
}

// appendEdges appends the edges of records i and on to dst.
func (v *blockView) appendEdges(dst []graph.Edge, i int) []graph.Edge {
	for ; i < v.count; i++ {
		dst = append(dst, v.edge(i))
	}
	return dst
}

// tail returns the view from record i on, transferring ownership of the
// backing buffer to the returned view.
func (v *blockView) tail(i int) *blockView {
	if i == 0 {
		return v
	}
	return &blockView{data: v.data[16*i:], buf: v.buf, count: v.count - i, maxTS: v.maxTS}
}

// BlockBinarySource streams timestamped edges from the v2 block format.
// It implements TimestampedSource and TimestampedBatchFiller — both
// paths are bit-identical, built on the same block validator — and
// additionally exposes whole validated blocks to the ordered merge
// through nextBlockView, the zero-copy fast path that skips per-edge
// materialization entirely. Fill and NextEdgeBlock are the edges-only
// paths; NextEdgeBlock decodes a checked block straight into edges.
type BlockBinarySource struct {
	br       *bufio.Reader
	hdrDone  bool
	hdrError error

	view *blockView // current block, partially consumed by the record paths
	pos  int
}

// NewBlockBinarySource returns a TimestampedSource reading the v2 block
// format from r. The magic is validated on first use; a missing or
// wrong-version header is a terminal decode error. A *bufio.Reader is
// used as is, whatever its size: the source reads whole headers and
// payloads with io.ReadFull, which reads a payload larger than the
// buffer straight into its destination.
func NewBlockBinarySource(r io.Reader) *BlockBinarySource {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	return &BlockBinarySource{br: br}
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

// rawBlock is one block whose header structure and checksum have been
// checked, but not yet its records. Its payload comes from BlockBufs;
// the decoder that consumes the block returns it or hands it on.
type rawBlock struct {
	payload      []byte
	count        int
	compressed   bool
	minTS, maxTS int64
}

// readBlock reads the next block and checks it as a whole. Errors are
// either skippable RecordErrors — a checksum mismatch (the whole block
// is damaged but delimited; the reader has already advanced past it) or
// a truncated trailing block/header (io.ErrUnexpectedEOF, the stream
// simply ends) — or terminal: structural header lies (zero or absurd
// counts, unknown flags, payload length inconsistent with the record
// count, inverted min/max bounds). io.EOF is returned exactly at a clean
// end. The records are checked by the decoder that consumes the block:
// view for the record paths, Fill and the merge, appendEdges for
// NextEdgeBlock.
func (s *BlockBinarySource) readBlock() (rawBlock, error) {
	if err := s.checkHeader(); err != nil {
		return rawBlock{}, err
	}
	var hdr [blockHeaderSize]byte
	n, err := io.ReadFull(s.br, hdr[:])
	if err == io.EOF {
		return rawBlock{}, io.EOF
	}
	if err != nil {
		werr := fmt.Errorf("stream: truncated block header (%d bytes): %w", n, err)
		if err == io.ErrUnexpectedEOF {
			return rawBlock{}, &RecordError{Err: werr}
		}
		return rawBlock{}, werr
	}
	count := int(binary.LittleEndian.Uint32(hdr[0:4]))
	flags := binary.LittleEndian.Uint32(hdr[4:8])
	payloadLen := int(binary.LittleEndian.Uint32(hdr[8:12]))
	wantCRC := binary.LittleEndian.Uint32(hdr[12:16])
	minTS := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	maxTS := int64(binary.LittleEndian.Uint64(hdr[24:32]))

	if count == 0 {
		return rawBlock{}, fmt.Errorf("stream: block with zero records")
	}
	if count > maxBlockRecords {
		return rawBlock{}, fmt.Errorf("stream: block record count %d exceeds the %d limit", count, maxBlockRecords)
	}
	if flags&^uint32(blockKnownFlags) != 0 {
		return rawBlock{}, fmt.Errorf("stream: unknown block flags %#x", flags)
	}
	if minTS > maxTS {
		return rawBlock{}, fmt.Errorf("stream: block timestamp bounds inverted (min %d > max %d)", minTS, maxTS)
	}
	compressed := flags&blockFlagDeltaTS != 0
	if compressed {
		if payloadLen < minCompressedRecord*count || payloadLen > maxCompressedRecord*count {
			return rawBlock{}, fmt.Errorf("stream: block payload length %d inconsistent with %d compressed records", payloadLen, count)
		}
	} else if payloadLen != 16*count {
		return rawBlock{}, fmt.Errorf("stream: block payload length %d does not match %d records (want %d)", payloadLen, count, 16*count)
	}

	payload := getBlockBuf(payloadLen)
	if n, err := io.ReadFull(s.br, payload); err != nil {
		putBlockBuf(payload)
		werr := fmt.Errorf("stream: truncated block payload (%d of %d bytes): %w", n, payloadLen, err)
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return rawBlock{}, &RecordError{Err: werr}
		}
		return rawBlock{}, werr
	}
	if got := crc32.Checksum(payload, crcBlockTable); got != wantCRC {
		putBlockBuf(payload)
		// The block's bytes are fully consumed, so the reader is
		// positioned at the next header: corruption is confined to this
		// block and skippable under a decode-error budget.
		return rawBlock{}, recordErrorf("stream: block checksum mismatch (got %#08x, want %#08x; %d records lost)", got, wantCRC, count)
	}
	return rawBlock{payload: payload, count: count, compressed: compressed, minTS: minTS, maxTS: maxTS}, nil
}

// nextBlock reads, validates, and (if compressed) expands the next
// block, returning it as a view. Its errors are readBlock's and view's.
// A block left empty by the self-loop drop is skipped.
func (s *BlockBinarySource) nextBlock() (*blockView, error) {
	for {
		b, err := s.readBlock()
		if err != nil {
			return nil, err
		}
		if v, err := b.view(); v != nil || err != nil {
			return v, err
		}
	}
}

// view validates every record against the declared bounds — the merge
// copies whole blocks through on the strength of maxTS, so a lying
// bound is terminal, not skippable — compacts self loops out, matching
// every other decoder, and returns the records as a view of 16-byte
// records (nil if none is left). An uncompressed payload becomes the
// view's buffer; a compressed one is expanded into a new buffer and
// returned to the free list.
func (b rawBlock) view() (*blockView, error) {
	raw, out := b.payload, 0
	if b.compressed {
		var err error
		raw, out, err = expandDeltaBlock(b.payload, b.count, b.minTS, b.maxTS)
		putBlockBuf(b.payload)
		if err != nil {
			return nil, err
		}
	} else {
		span := uint64(b.maxTS - b.minTS) // ts is in bounds iff uint64(ts-minTS) <= span
		for i := 0; i < b.count; i++ {
			rec := (*[16]byte)(raw[16*i:])
			ts := int64(binary.LittleEndian.Uint64(rec[8:16]))
			if uint64(ts-b.minTS) > span {
				putBlockBuf(raw)
				return nil, boundsError(i, ts, b.minTS, b.maxTS)
			}
			if binary.LittleEndian.Uint32(rec[0:4]) == binary.LittleEndian.Uint32(rec[4:8]) {
				continue // drop self loops, matching the other decoders
			}
			if out != i {
				*(*[16]byte)(raw[16*out:]) = *rec
			}
			out++
		}
	}
	if out == 0 {
		putBlockBuf(raw)
		return nil, nil
	}
	return &blockView{data: raw[:16*out], buf: raw, count: out, maxTS: b.maxTS}, nil
}

// expandDeltaBlock decodes a varint-delta payload into a listed raw
// record buffer, checking each timestamp against [minTS, maxTS] and
// dropping self loops as it goes; it returns the buffer and how many
// records it kept. The payload has already passed its checksum, so any
// inconsistency here means the block was written wrong — terminal. A
// block with several defects reports the first in record order.
func expandDeltaBlock(payload []byte, count int, minTS, maxTS int64) ([]byte, int, error) {
	raw := getBlockBuf(16 * count)
	span := uint64(maxTS - minTS) // ts is in bounds iff uint64(ts-minTS) <= span
	prev := minTS
	p, out := 0, 0
	for i := 0; i < count; i++ {
		rec := payload[p:]
		var uv uint64 // U | V<<32
		if len(rec) > 8 && rec[8] < 0x80 {
			// One-byte varint, the common case: zigzag-decode inline.
			uv, prev, p = binary.LittleEndian.Uint64(rec), prev+(int64(rec[8]>>1)^-int64(rec[8]&1)), p+9
		} else {
			var delta int64
			var n int
			if uv, delta, n = deltaRecord(rec); n <= 0 {
				putBlockBuf(raw)
				return nil, 0, deltaError(i, n)
			}
			prev, p = prev+delta, p+n
		}
		if uint64(prev-minTS) > span {
			putBlockBuf(raw)
			return nil, 0, boundsError(i, prev, minTS, maxTS)
		}
		if uint32(uv) == uint32(uv>>32) {
			continue // drop self loops, matching the other decoders
		}
		dst := (*[16]byte)(raw[16*out:])
		binary.LittleEndian.PutUint64(dst[0:8], uv)
		binary.LittleEndian.PutUint64(dst[8:16], uint64(prev))
		out++
	}
	if p != len(payload) {
		putBlockBuf(raw)
		return nil, 0, trailingError(len(payload)-p, count)
	}
	return raw, out, nil
}

// appendEdges appends the block's edges to dst with the record checks
// view makes — every timestamp within the declared bounds, self loops
// dropped — and the same errors, and returns the payload to the free
// list.
//
// WAL replay reads two layouts, and each takes one tight loop without
// a second pass. AppendEdgeBlock's — delta-compressed, min_ts =
// max_ts, and 9 bytes per record — must then hold 8 bytes of ids and a
// zero delta byte in every record; the uncompressed 16-byte records
// that earlier builds logged need only be within the bounds. At the
// first record that is not, and for any other layout, the block goes
// through view instead, so its edges and errors are view's.
func (b rawBlock) appendEdges(dst []graph.Edge) ([]graph.Edge, error) {
	if b.compressed && b.minTS == b.maxTS && len(b.payload) == minCompressedRecord*b.count {
		base := len(dst)
		out := slices.Grow(dst, b.count)[:base+b.count]
		n := base
		for p := 0; p < len(b.payload); p += minCompressedRecord {
			rec := (*[minCompressedRecord]byte)(b.payload[p:])
			if rec[8] != 0 {
				return b.appendViewEdges(out[:base])
			}
			u, v := binary.LittleEndian.Uint32(rec[0:4]), binary.LittleEndian.Uint32(rec[4:8])
			out[n] = graph.Edge{U: u, V: v}
			if u != v {
				n++
			}
		}
		putBlockBuf(b.payload)
		return out[:n], nil
	}
	if !b.compressed {
		span := uint64(b.maxTS - b.minTS) // ts is in bounds iff uint64(ts-minTS) <= span
		base := len(dst)
		out := slices.Grow(dst, b.count)[:base+b.count]
		n := base
		for p := 0; p < len(b.payload); p += 16 {
			rec := (*[16]byte)(b.payload[p:])
			if uint64(int64(binary.LittleEndian.Uint64(rec[8:16]))-b.minTS) > span {
				return b.appendViewEdges(out[:base])
			}
			u, v := binary.LittleEndian.Uint32(rec[0:4]), binary.LittleEndian.Uint32(rec[4:8])
			out[n] = graph.Edge{U: u, V: v}
			if u != v {
				n++
			}
		}
		putBlockBuf(b.payload)
		return out[:n], nil
	}
	return b.appendViewEdges(dst)
}

// appendViewEdges is appendEdges for any layout: view checks the records
// and takes the payload, and the view's edges are copied out.
func (b rawBlock) appendViewEdges(dst []graph.Edge) ([]graph.Edge, error) {
	v, err := b.view()
	if v == nil {
		return dst, err
	}
	dst = v.appendEdges(dst, 0)
	v.release()
	return dst, nil
}

// deltaRecord decodes the compressed record at the front of rec: it
// returns U | V<<32, the record's timestamp delta and its length n, which
// is 0 if the record overruns rec and negative if its varint is
// malformed. The decoders zigzag-decode a one-byte varint, the common
// case, inline and call it for the rest.
func deltaRecord(rec []byte) (uv uint64, delta int64, n int) {
	if len(rec) < 8 {
		return 0, 0, 0
	}
	if delta, n = binary.Varint(rec[8:]); n <= 0 {
		return 0, 0, -1
	}
	return binary.LittleEndian.Uint64(rec), delta, 8 + n
}

// deltaError reports compressed record i, which deltaRecord found
// overrunning the payload (n = 0) or with a malformed varint (n < 0).
func deltaError(i, n int) error {
	if n == 0 {
		return fmt.Errorf("stream: compressed block record %d overruns the payload", i)
	}
	return fmt.Errorf("stream: compressed block record %d has a malformed timestamp delta", i)
}

// trailingError reports a compressed payload with bytes left after its
// count records.
func trailingError(extra, count int) error {
	return fmt.Errorf("stream: compressed block has %d trailing payload bytes after %d records", extra, count)
}

// boundsError reports record i of a block whose timestamp ts escapes
// the header's declared bounds.
func boundsError(i int, ts, minTS, maxTS int64) error {
	return fmt.Errorf("stream: block record %d timestamp %d outside declared bounds [%d, %d]", i, ts, minTS, maxTS)
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
		if err := s.advance(); err != nil {
			if err == io.EOF && total > 0 {
				return total, nil
			}
			return total, err
		}
		for total < len(out) && s.pos < s.view.count {
			out[total] = s.view.record(s.pos)
			total++
			s.pos++
		}
	}
	return total, nil
}

// Fill implements BatchFiller, the edges-only path: FillTimestamped with
// the timestamps dropped, so the same edges as NextTimestamped and the
// same errors, and n may likewise be positive alongside a non-nil err.
func (s *BlockBinarySource) Fill(out []graph.Edge) (int, error) {
	total := 0
	for total < len(out) {
		if err := s.advance(); err != nil {
			if err == io.EOF && total > 0 {
				return total, nil
			}
			return total, err
		}
		for total < len(out) && s.pos < s.view.count {
			out[total] = s.view.edge(s.pos)
			total++
			s.pos++
		}
	}
	return total, nil
}

// advance leaves s.view holding records not yet read, releasing a used
// up view and reading the next block if need be. Its errors are
// nextBlock's.
func (s *BlockBinarySource) advance() error {
	if s.view != nil {
		if s.pos < s.view.count {
			return nil
		}
		s.view.release()
		s.view = nil
	}
	v, err := s.nextBlock()
	if err != nil {
		return err
	}
	s.view, s.pos = v, 0
	return nil
}

// Close hands the block the record paths left partly read back to the
// free list it came from; its unread records are dropped. A source
// abandoned mid-block keeps that buffer from the list until it is
// collected, so a caller that stops reading early closes it. The
// source stays usable and reads on from the next block. Close never
// fails, and a second Close is a no-op.
func (s *BlockBinarySource) Close() error {
	if s.view != nil {
		s.view.release()
		s.view, s.pos = nil, 0
	}
	return nil
}

// blockSource is what the ordered merge consumes: a source of
// single-owner block views whose maxTS bounds every record. io.EOF ends
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
