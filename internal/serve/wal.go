package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"streamtri/internal/graph"
	"streamtri/internal/stream"
)

// Per-tenant segmented write-ahead log. The ingest handler fills one
// batch of the tenant's batch size from the request body, appends it to
// the tenant's current segment as exactly one STRTSB02 block, and only
// then hands the same slice to the counter's AddBatch. The log's block
// boundaries are therefore the counter's batch boundaries, which is
// what makes replay bit-identical (batch boundaries feed the
// estimators' randomness), and an acked POST's edges are on disk
// (under FsyncAlways, fsynced) even if the process dies before the next
// checkpoint. The block is stream.BlockWriter.AppendEdgeBlock's: the
// format's varint-delta layout with zero timestamps, 9 bytes per edge.
// Replay reads it and the 16-byte uncompressed blocks earlier builds
// logged alike, so a data dir moves between the two builds in either
// direction. Segment files are named
//
//	<name>.wal.<start>
//
// where <start> is the zero-padded stream position (total edges) of the
// segment's first edge — segments are self-describing and contiguity is
// checkable by name alone: each segment must begin where its
// predecessor's valid blocks end. A checkpoint rotates the log (closes
// the current segment; the next append starts a fresh one at the
// current position), after which segments wholly covered by the oldest
// retained checkpoint generation are deleted.
//
// Torn tails are the block format's problem, already solved: a segment
// cut mid-block by a crash decodes as a clean prefix of whole blocks
// followed by one skippable RecordError, and replay truncates there.

// FsyncPolicy says when WAL appends are flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs a tenant's segment once per ingest POST,
	// before the ack: an acked edge survives kill -9 and power loss.
	// One fsync per POST, not per batch — batches within a request ride
	// the same sync.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs dirty segments on a background timer: an ack
	// means the edges survive process death (they are in the page
	// cache) but up to one interval may be lost to power failure.
	FsyncInterval
	// FsyncNone never fsyncs: acked edges survive process death only,
	// at whatever moment the OS chooses to write them back.
	FsyncNone
)

// ParseFsyncPolicy parses the trictd -wal-sync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("unknown WAL fsync policy %q (want always, interval, or none)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

func walSegPath(dir, name string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.wal.%020d", name, start))
}

// walSegment is one discovered segment file.
type walSegment struct {
	start uint64
	path  string
}

// listWALSegments returns name's segments sorted by starting position.
// Files with a non-numeric suffix are ignored (nothing we write; a
// quarantined segment is renamed under <name>.corrupt. and no longer
// matches the glob).
func listWALSegments(dir, name string) ([]walSegment, error) {
	matches, err := filepath.Glob(filepath.Join(dir, name+".wal.*"))
	if err != nil {
		return nil, err
	}
	segs := make([]walSegment, 0, len(matches))
	for _, p := range matches {
		suffix := strings.TrimPrefix(filepath.Base(p), name+".wal.")
		start, err := strconv.ParseUint(suffix, 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, walSegment{start: start, path: p})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

// countingWriter tracks the segment's byte size (where a failed append
// cuts back to) and models process death: once the fault injector is
// down, no byte reaches the file.
type countingWriter struct {
	f      *os.File
	n      int64
	faults *faultInjector
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if err := cw.faults.failed(); err != nil {
		return 0, err
	}
	n, err := cw.f.Write(p)
	cw.n += int64(n)
	return n, err
}

// walWriter is one tenant's log. Appends and rotation run under the
// tenant's ingest lock; mu additionally serializes them against the
// background interval-sync loop, which must not wait on an in-flight
// POST. The handler appends each batch just before the counter absorbs
// it and absorbs nothing the log refused, so between requests the log's
// position is the counter's; only a crash between the two leaves the
// log ahead, the superset case recovery replays.
type walWriter struct {
	dir    string
	name   string
	policy FsyncPolicy
	faults *faultInjector

	mu sync.Mutex
	f  *os.File // the current segment; nil until the next append opens one
	cw countingWriter
	// bw lives as long as the tenant and is reset onto each new
	// segment; it holds no byte buffer, and borrows each block's buffer
	// only for the append.
	bw       *stream.BlockWriter
	segStart uint64 // stream position of the current segment's first edge
	pos      uint64 // stream position after the last appended block
	dirty    bool   // unsynced appends
}

func newWALWriter(dir, name string, start uint64, policy FsyncPolicy, faults *faultInjector) *walWriter {
	w := &walWriter{dir: dir, name: name, policy: policy, faults: faults, segStart: start, pos: start}
	w.bw = stream.NewBlockWriter(&w.cw)
	return w
}

// openSegment starts the segment whose first edge is the current
// position. O_TRUNC makes reopening a position idempotent (a dead
// predecessor at the same position held only unacked or torn bytes);
// O_APPEND keeps writes at EOF across truncations. The directory is
// fsynced so the new name survives power loss before anything in the
// segment is acked.
func (w *walWriter) openSegment() error {
	f, err := os.OpenFile(walSegPath(w.dir, w.name, w.pos), os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if w.policy != FsyncNone {
		if err := syncDir(w.dir); err != nil {
			f.Close()
			return err
		}
	}
	w.f = f
	w.cw = countingWriter{f: f, faults: w.faults}
	w.bw.Reset(&w.cw)
	w.segStart = w.pos
	return nil
}

// append logs one decoded batch as exactly one block. The position
// advances only when the block is fully written, so the WAL and the
// counter stay in lockstep at block granularity; on a write failure the
// torn bytes are cut back off and the segment retired (the next append
// starts a fresh segment at the unchanged position), leaving every
// segment a clean prefix.
func (w *walWriter) append(batch []graph.Edge) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.faults.at("wal-append"); err != nil {
		return err
	}
	if w.f == nil {
		if err := w.openSegment(); err != nil {
			return err
		}
	}
	size := w.cw.n
	if err := w.bw.AppendEdgeBlock(batch); err != nil {
		w.retireLocked(size)
		return err
	}
	// Crash site between the block hitting the OS and the position
	// advancing: the block is durable-in-page-cache but unacked, the
	// superset case recovery's replay handles.
	if err := w.faults.at("wal-appended"); err != nil {
		return err
	}
	w.pos += uint64(len(batch))
	w.dirty = true
	return nil
}

// retireLocked cuts the current segment back to size bytes, its length
// before a failed append, and closes it; the next append starts a fresh
// segment, and resetting the block writer onto it writes the stream
// magic again. (Truncating alone is not enough: cutting back to zero
// bytes would desynchronize the block writer's already-written stream
// header.) Best-effort by design — if the truncate fails the segment
// keeps bytes past the position, exactly the tail recovery already
// truncates.
func (w *walWriter) retireLocked(size int64) {
	if w.faults.failed() == nil {
		w.f.Truncate(size)
	}
	w.f.Close()
	w.f = nil
	w.dirty = false
}

// sync flushes unsynced appends to stable storage.
func (w *walWriter) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *walWriter) syncLocked() error {
	if !w.dirty || w.f == nil {
		return nil
	}
	if err := w.faults.at("wal-sync"); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	return nil
}

// rotate closes the current segment after a successful checkpoint: the
// next append starts a fresh segment at the current position, making
// the closed prefix deletable once retention allows. The closing
// segment is synced first (unless FsyncNone) so generation fallback can
// rely on replaying it.
func (w *walWriter) rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if w.policy != FsyncNone {
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	if err := w.faults.at("wal-rotate"); err != nil {
		return err
	}
	err := w.f.Close()
	w.f = nil
	w.segStart = w.pos
	w.dirty = false
	return err
}

// close shuts the writer down (tenant delete, server close).
func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if w.policy != FsyncNone {
		err = w.syncLocked()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
