package stream

import (
	"encoding/binary"
	"fmt"

	"streamtri/internal/graph"
)

// Block-granular access for write-ahead logging. The serving layer's
// ingest handler (internal/serve) logs each batch it decodes from a
// request body as exactly one v2 block and then hands the same batch to
// the counter, so the log's block boundaries ARE the counter's AddBatch
// boundaries — the property that makes replay bit-identical to the
// original ingest. The per-block
// CRC-32C gives torn-tail detection for free: a segment cut mid-block
// by a crash decodes as a clean prefix of whole blocks followed by one
// skippable RecordError.

// MaxBlockRecords is the largest record count a single v2 block may
// carry (and the largest batch AppendEdgeBlock accepts). Callers that
// map one batch to one block must bound their batch size by it.
const MaxBlockRecords = maxBlockRecords

// EdgeBlockRecordBytes is the size of one record in a block written by
// AppendEdgeBlock: u32 U, u32 V, and the one-byte zigzag varint of a
// zero timestamp delta.
const EdgeBlockRecordBytes = minCompressedRecord

// AppendEdgeBlock encodes batch as exactly one v2 block — bypassing the
// writer's records-per-block target — and writes it to the underlying
// writer in one call, preceded by the stream magic if it is the
// stream's first, so after a nil return the block's bytes have left the
// process (durability is the caller's fsync). The block uses the
// format's existing varint-delta layout (flags bit 0) with every
// timestamp zero and min_ts = max_ts = 0, so a record takes
// EdgeBlockRecordBytes instead of 16; every v2 reader decodes it. Self
// loops are dropped, matching every other encoder (callers feeding
// decoded batches never contain any, so the block's record count equals
// len(batch)); a batch of self loops alone writes no block. Must not be
// interleaved with Write/WriteBatch: those buffer toward the block
// target, and mixing the two would tear a buffered block in half.
//
// The bytes are built in a buffer borrowed from BlockBufs, the list the
// block readers draw their payloads from (a buffer a replayed block was
// read into fits the append of a batch of its size), and handed back
// before AppendEdgeBlock returns, so between appends the writer holds
// nothing that scales with the batch.
func (w *BlockWriter) AppendEdgeBlock(batch []graph.Edge) error {
	if len(w.pending) > 0 {
		return fmt.Errorf("stream: AppendEdgeBlock with %d records buffered by Write", len(w.pending))
	}
	if len(batch) > maxBlockRecords {
		return fmt.Errorf("stream: batch of %d records exceeds the %d per-block limit", len(batch), maxBlockRecords)
	}
	buf := getBlockBuf(blockBufSlack + EdgeBlockRecordBytes*len(batch))
	defer putBlockBuf(buf)
	hdr := len(w.appendMagic(buf[:0]))
	// The header is filled last, since its checksum covers the records.
	p := hdr + blockHeaderSize
	for _, e := range batch {
		if e.U == e.V {
			continue
		}
		rec := buf[p : p+EdgeBlockRecordBytes]
		binary.LittleEndian.PutUint32(rec[0:4], e.U)
		binary.LittleEndian.PutUint32(rec[4:8], e.V)
		rec[8] = 0 // zigzag varint of the zero delta
		p += EdgeBlockRecordBytes
	}
	if n := (p - hdr - blockHeaderSize) / EdgeBlockRecordBytes; n > 0 {
		putBlockHeader(buf[hdr:], n, blockFlagDeltaTS, buf[hdr+blockHeaderSize:p], 0, 0)
	} else {
		p = hdr
	}
	if p == 0 {
		return nil
	}
	_, err := w.dst.Write(buf[:p])
	return err
}

// NextEdgeBlock returns the next whole block's edges with timestamps
// dropped, appended to buf[:0] (pass the previous return value to
// reuse its capacity). It decodes a block straight into buf, and
// returns the unconsumed tail of a block the record paths started
// first. Errors follow readBlock's and view's taxonomy: io.EOF
// at a clean end, a skippable *RecordError for a torn tail or a
// checksum mismatch, terminal errors for structural corruption.
func (s *BlockBinarySource) NextEdgeBlock(buf []graph.Edge) ([]graph.Edge, error) {
	buf = buf[:0]
	if v := s.view; v != nil {
		buf = v.appendEdges(buf, s.pos)
		v.release()
		s.view, s.pos = nil, 0
		if len(buf) > 0 {
			return buf, nil
		}
	}
	for len(buf) == 0 {
		b, err := s.readBlock()
		if err != nil {
			return buf, err
		}
		if buf, err = b.appendEdges(buf); err != nil {
			return buf[:0], err
		}
	}
	return buf, nil
}
