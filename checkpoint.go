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
func (t *TriangleCounter) WriteTo(w io.Writer) (int64, error) {
	t.Flush()
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(t.w))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := t.c.WriteTo(w)
	return n + 8, err
}

// RestoreTriangleCounter reads a checkpoint written by
// TriangleCounter.WriteTo and returns a counter that continues exactly
// where the original left off.
func RestoreTriangleCounter(r io.Reader) (*TriangleCounter, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("streamtri: reading checkpoint header: %w", err)
	}
	w := binary.LittleEndian.Uint64(hdr[:])
	if w == 0 || w > 1<<32 {
		return nil, fmt.Errorf("streamtri: implausible checkpoint batch size %d", w)
	}
	c, err := core.ReadCounterFrom(r)
	if err != nil {
		return nil, err
	}
	return &TriangleCounter{c: c, w: int(w), added: c.Edges()}, nil
}

// WriteTo checkpoints the parallel counter: buffered edges are flushed,
// and the full sharded state (per-shard estimators, stream position,
// random-generator states) is written so a restore resumes
// bit-identically. It implements io.WriterTo.
func (t *ParallelTriangleCounter) WriteTo(w io.Writer) (int64, error) {
	t.Flush()
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(t.w))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := t.c.WriteTo(w)
	return n + 8, err
}

// RestoreParallelTriangleCounter reads a checkpoint written by
// ParallelTriangleCounter.WriteTo and returns a counter that continues
// exactly where the original left off. The restored counter answers
// Snapshot and Estimate queries immediately, bit-identically to the
// checkpointed state.
func RestoreParallelTriangleCounter(r io.Reader) (*ParallelTriangleCounter, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("streamtri: reading checkpoint header: %w", err)
	}
	w := binary.LittleEndian.Uint64(hdr[:])
	if w == 0 || w > 1<<32 {
		return nil, fmt.Errorf("streamtri: implausible checkpoint batch size %d", w)
	}
	c, err := core.ReadShardedCounterFrom(r)
	if err != nil {
		return nil, err
	}
	return &ParallelTriangleCounter{c: c, w: int(w), added: c.Edges()}, nil
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
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(s.w))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := s.c.WriteTo(w)
	return n + 8, err
}

// RestoreSlidingWindowCounter reads a checkpoint written by
// SlidingWindowCounter.WriteTo and returns a counter that continues
// exactly where the original left off. Checkpoints written before the
// windowed estimator moved to chain sampling convert exactly on restore.
// Corrupt or truncated checkpoints are rejected with an error naming the
// damage — never restored into undefined estimator state.
func RestoreSlidingWindowCounter(r io.Reader) (*SlidingWindowCounter, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("streamtri: reading checkpoint header: %w", err)
	}
	w := binary.LittleEndian.Uint64(hdr[:])
	if w == 0 || w > 1<<32 {
		return nil, fmt.Errorf("streamtri: implausible checkpoint batch size %d", w)
	}
	c, err := window.ReadCounterFrom(r)
	if err != nil {
		return nil, err
	}
	return &SlidingWindowCounter{c: c, w: int(w)}, nil
}
