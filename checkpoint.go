package streamtri

import (
	"encoding/binary"
	"fmt"
	"io"

	"streamtri/internal/core"
	"streamtri/internal/window"
)

// WriteTo checkpoints the counter's full state (estimators, stream
// position, random-generator state) so processing can resume later —
// possibly in another process — bit-identically. Buffered edges are
// flushed first. It implements io.WriterTo.
func (t *wholeStream[E]) WriteTo(w io.Writer) (int64, error) {
	t.Flush()
	return writeCheckpoint(w, t.w, t.eng)
}

// writeCheckpoint writes the header every public checkpoint starts
// with, the batch size w as 8 little-endian bytes, and then state.
func writeCheckpoint(w io.Writer, batch int, state io.WriterTo) (int64, error) {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(batch))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := state.WriteTo(w)
	return n + 8, err
}

// readCheckpointHeader reads the header writeCheckpoint writes and
// returns the restored counter's configuration: opts, with the batch
// size from the header, which must lie in (0, 2^32].
func readCheckpointHeader(r io.Reader, opts []Option) (config, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return config{}, fmt.Errorf("streamtri: reading checkpoint header: %w", err)
	}
	w := binary.LittleEndian.Uint64(hdr[:])
	if w == 0 || w > 1<<32 {
		return config{}, fmt.Errorf("streamtri: implausible checkpoint batch size %d", w)
	}
	cfg := buildConfig(0, opts)
	cfg.batchSize = int(w)
	return cfg, nil
}

// RestoreTriangleCounter reads a checkpoint written by
// TriangleCounter.WriteTo and returns a counter that continues exactly
// where the original left off. The ingest options are not checkpointed,
// so pass them again in opts; WithSeed and WithBatchSize do not apply,
// as the checkpoint carries the random-generator state and w. It also
// reads ParallelTriangleCounter checkpoints (see
// RestoreParallelTriangleCounter).
func RestoreTriangleCounter(r io.Reader, opts ...Option) (*TriangleCounter, error) {
	cfg, err := readCheckpointHeader(r, opts)
	if err != nil {
		return nil, err
	}
	c, err := core.ReadCounterFrom(r)
	if err != nil {
		return nil, err
	}
	return &TriangleCounter{newWholeStream(c, cfg)}, nil
}

// RestoreParallelTriangleCounter reads a checkpoint written by
// ParallelTriangleCounter.WriteTo, TriangleCounter.WriteTo, or an
// earlier build's ParallelTriangleCounter, whose checkpoints held p
// shards in an envelope. The restored counter answers Snapshot and
// Estimate queries immediately, bit-identically to the checkpointed
// state, and continues exactly where the original left off, except
// after a checkpoint of p > 1 shards: it holds their estimators in
// shard order and continues on shard 0's random generator, so its later
// estimates have the law the sharded counter's had, but not its values.
// opts are as for RestoreTriangleCounter.
//
// Deprecated: Use RestoreTriangleCounter.
func RestoreParallelTriangleCounter(r io.Reader, opts ...Option) (*ParallelTriangleCounter, error) {
	cfg, err := readCheckpointHeader(r, opts)
	if err != nil {
		return nil, err
	}
	c, err := core.ReadCounterFrom(r)
	if err != nil {
		return nil, err
	}
	return &ParallelTriangleCounter{newWholeStream(c, cfg)}, nil
}

// WriteTo checkpoints the sliding-window counter's full state — every
// estimator's candidate chain with its level-2 reservoir, the stream
// position, the window size, and the random-generator state (the NSTW
// envelope) — so processing can resume later, possibly in another
// process, bit-identically: the resumed run's estimates, window fill,
// and stream position are those of an uninterrupted run over the same
// stream. The windowed counter absorbs edges synchronously (it has no
// intake buffer), so the checkpoint always reflects every edge Added so
// far. It implements io.WriterTo.
func (s *SlidingWindowCounter) WriteTo(w io.Writer) (int64, error) {
	return writeCheckpoint(w, s.w, s.c)
}

// RestoreSlidingWindowCounter reads a checkpoint written by
// SlidingWindowCounter.WriteTo and returns a counter that continues
// exactly where the original left off. Checkpoints written before the
// windowed estimator moved to chain sampling convert exactly on restore.
// Corrupt or truncated checkpoints are rejected with an error naming the
// damage — never restored into undefined estimator state. opts are as
// for RestoreTriangleCounter.
func RestoreSlidingWindowCounter(r io.Reader, opts ...Option) (*SlidingWindowCounter, error) {
	cfg, err := readCheckpointHeader(r, opts)
	if err != nil {
		return nil, err
	}
	c, err := window.ReadCounterFrom(r)
	if err != nil {
		return nil, err
	}
	return newSlidingWindow(c, cfg), nil
}
