package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"streamtri"
	"streamtri/internal/graph"
	"streamtri/internal/stream"
)

// Recovery: for each tenant (keyed by its metadata sidecar), restore
// the newest checkpoint generation that actually validates — falling
// back generation by generation instead of aborting on a corrupt newest
// one — then replay the WAL tail from the restored position, truncating
// at the first invalid block. Because the WAL holds the exact AddBatch
// boundaries of the original ingest, the recovered counter is
// bit-identical to a process that absorbed the same prefix and never
// crashed. A tenant that fails every candidate (and a full-replay
// attempt from an empty counter) is quarantined — its files renamed to
// <name>.corrupt.* and logged loudly — rather than failing the whole
// server start: one damaged tenant must not take down its neighbors.

// recover restores every tenant found in the data directory (creating
// it on first run).
func (s *Server) recover() error {
	if s.dataDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.dataDir, 0o755); err != nil {
		return err
	}
	metas, err := filepath.Glob(filepath.Join(s.dataDir, "*.json"))
	if err != nil {
		return err
	}
	for _, metaPath := range metas {
		name := strings.TrimSuffix(filepath.Base(metaPath), ".json")
		if !validName(name) {
			continue // not one of ours (quarantined metas have a dot in the stem)
		}
		t, err := s.recoverTenant(name)
		if err != nil {
			s.logf("serve: tenant %q is unrecoverable: %v; quarantining its files", name, err)
			if qerr := s.quarantineTenant(name); qerr != nil {
				return fmt.Errorf("quarantining %q: %w", name, qerr)
			}
			continue
		}
		s.tenants[name] = t
	}
	return nil
}

// recoverTenant tries checkpoint candidates newest-first, then a fresh
// counter with a full WAL replay as the last resort.
func (s *Server) recoverTenant(name string) (*tenant, error) {
	metaBytes, err := os.ReadFile(s.metaPath(name))
	if err != nil {
		return nil, err
	}
	var meta tenantMeta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, fmt.Errorf("bad metadata: %w", err)
	}
	if meta.Name != name {
		return nil, fmt.Errorf("metadata names %q", meta.Name)
	}
	cfg := meta.Config
	if err := cfg.normalize(); err != nil {
		return nil, fmt.Errorf("bad metadata config: %w", err)
	}

	gens, err := s.listGenerations(name)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i := range gens {
		t, err := s.restoreAndReplay(name, cfg, &gens[i])
		if err == nil {
			if i > 0 {
				s.logf("serve: tenant %q recovered from fallback generation %s (newest failed: %v)",
					name, filepath.Base(gens[i].path), lastErr)
			}
			return t, nil
		}
		s.logf("serve: tenant %q: generation %s unusable: %v", name, filepath.Base(gens[i].path), err)
		lastErr = err
	}
	// No usable generation. If the WAL reaches back to position zero
	// (tenant never checkpointed, or every generation was damaged but
	// the log survived), a fresh counter replays the whole stream. But
	// when generations existed and the log does not reach zero, an
	// "empty" recovery would silently drop acked edges — quarantine.
	if lastErr != nil {
		segs, serr := listWALSegments(s.dataDir, name)
		if serr != nil {
			return nil, serr
		}
		if len(segs) == 0 || segs[0].start != 0 {
			return nil, fmt.Errorf("no usable checkpoint generation and the wal does not reach position 0 (newest generation failed with: %v)", lastErr)
		}
	}
	t, err := s.restoreAndReplay(name, cfg, nil)
	if err != nil && lastErr != nil {
		err = fmt.Errorf("%w (newest generation failed with: %v)", err, lastErr)
	}
	return t, err
}

// restoreAndReplay builds the tenant from one checkpoint candidate (nil
// = fresh counter at position zero) plus the WAL tail.
func (s *Server) restoreAndReplay(name string, cfg CounterConfig, gen *generation) (*tenant, error) {
	var c counter
	if gen == nil {
		c = newCounter(cfg)
	} else {
		f, err := os.Open(gen.path)
		if err != nil {
			return nil, err
		}
		// The config's Window field decides which checkpoint envelope the
		// blob holds; both decoders reject the other's magic by name, so a
		// meta/blob mismatch fails this candidate loudly.
		if cfg.Window > 0 {
			c, err = streamtri.RestoreSlidingWindowCounter(f)
		} else {
			c, err = streamtri.RestoreParallelTriangleCounter(f)
		}
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	t := newTenant(name, cfg, c)
	base := t.edges()
	if gen != nil && !gen.legacy && base != gen.pos {
		return nil, fmt.Errorf("generation file claims position %d but blob holds %d edges", gen.pos, base)
	}
	if err := s.replayWAL(t, base); err != nil {
		return nil, fmt.Errorf("replaying wal past position %d: %w", base, err)
	}
	t.ckptEdges = base
	if s.dataDir != "" {
		t.wal = newWALWriter(s.dataDir, name, t.edges(), s.policy, s.faults)
	}
	return t, nil
}

// replayWAL feeds the logged batches past base into the tenant's
// counter, one AddBatch per block — the same boundaries the original
// ingest used — decoding each block into a batch buffer borrowed as an
// ingest POST borrows its own. A torn tail (truncated or
// checksum-failed block) ends a segment's valid prefix; it is
// acceptable exactly when a later segment picks up at that position
// (the writer retired the segment after a failed append) or when it is
// the newest segment (the crash tore the end of the log).
// Anything else — a gap between segments, a segment starting past the
// checkpoint with nothing bridging to it, structural corruption mid-log
// — fails the candidate.
func (s *Server) replayWAL(t *tenant, base uint64) error {
	segs, err := listWALSegments(s.dataDir, t.name)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return nil
	}
	// Start at the last segment beginning at or before base; earlier
	// segments are wholly covered by the checkpoint and stale segments
	// below the floor may legitimately be gone.
	k := -1
	for i, seg := range segs {
		if seg.start <= base {
			k = i
		}
	}
	if k == -1 {
		return fmt.Errorf("first segment starts at %d, past checkpoint position %d", segs[0].start, base)
	}
	segs = segs[k:]
	pos := segs[0].start
	buf := edgeBufs.Get(t.cfg.effectiveBatchSize())
	defer func() { edgeBufs.Put(buf) }()
	for i, seg := range segs {
		if seg.start != pos {
			return fmt.Errorf("segment %s does not continue from position %d", filepath.Base(seg.path), pos)
		}
		end, torn, err := s.replaySegment(t, seg.path, pos, base, &buf)
		if err != nil {
			return err
		}
		pos = end
		if torn && i+1 < len(segs) && segs[i+1].start != pos {
			return fmt.Errorf("segment %s torn at position %d with no successor picking up there", filepath.Base(seg.path), pos)
		}
	}
	return nil
}

// replaySegment replays one segment's valid block prefix, feeding the
// portion past base into the counter. It returns the stream position
// after the prefix and whether the segment ended in a torn tail rather
// than a clean EOF.
func (s *Server) replaySegment(t *tenant, path string, pos, base uint64, bufp *[]graph.Edge) (uint64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return pos, false, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil {
		return pos, false, err
	} else if fi.Size() < 8 {
		// The segment died before its stream magic hit disk: an empty
		// valid prefix, the extreme torn tail.
		return pos, true, nil
	}
	src := stream.NewBlockBinarySource(f)
	buf := *bufp
	defer func() { *bufp = buf }()
	for {
		edges, err := src.NextEdgeBlock(buf)
		buf = edges[:0]
		if err == io.EOF {
			return pos, false, nil
		}
		var re *stream.RecordError
		if errors.As(err, &re) {
			return pos, true, nil
		}
		if err != nil {
			return pos, false, err
		}
		next := pos + uint64(len(edges))
		if next > base {
			feed := edges
			if pos < base {
				// A block straddling the checkpoint position cannot happen
				// with logs we wrote (checkpoints land on block boundaries),
				// but feed the uncovered tail rather than double-counting.
				feed = edges[base-pos:]
			}
			t.absorb(feed)
		}
		pos = next
	}
}

// quarantineTenant renames every file belonging to name to
// <name>.corrupt.<original suffix>, keeping the evidence while getting
// it out of recovery's way (quarantined names no longer match the
// metadata glob or the tenant name pattern).
func (s *Server) quarantineTenant(name string) error {
	matches, err := filepath.Glob(filepath.Join(s.dataDir, name+".*"))
	if err != nil {
		return err
	}
	for _, p := range matches {
		suffix := strings.TrimPrefix(filepath.Base(p), name+".")
		if strings.HasPrefix(suffix, "corrupt.") {
			continue // already quarantined by an earlier start
		}
		dst := filepath.Join(s.dataDir, name+".corrupt."+suffix)
		if err := os.Rename(p, dst); err != nil {
			return err
		}
		s.logf("serve: quarantined %s -> %s", filepath.Base(p), filepath.Base(dst))
	}
	return syncDir(s.dataDir)
}
