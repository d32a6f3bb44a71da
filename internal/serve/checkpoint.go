package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"streamtri/internal/stream"
)

// Durability: each tenant's on-disk state is
//
//	<name>.json         tenant metadata (name + CounterConfig), written
//	                    durably at creation time — a created tenant
//	                    exists after a crash even before its first edge
//	<name>.ckpt.<pos>   checkpoint generations: the counter blob (NSTC
//	                    for whole-stream tenants, which also restore the
//	                    NSTS sharded envelope earlier builds wrote, NSTW
//	                    for windowed ones) at stream position <pos>; the
//	                    newest retain generations are kept as fallbacks
//	<name>.wal.<start>  write-ahead log segments (see wal.go)
//	<name>.ckpt         a legacy pre-generation checkpoint, still
//	                    restorable as the oldest candidate
//
// Every file write is tmp+fsync+rename+dirsync (atomicWriteSync), so a
// crash anywhere leaves whole old files or whole new files, never torn
// ones — rename-only "atomicity" without the syncs is not crash-safe on
// most filesystems. Serialization happens into memory under the
// tenant's ingest lock (a short pause at a batch boundary); file writes
// happen outside it, so ingestion resumes while bytes hit disk.
//
// Because checkpoints run between POSTs (they need the ingest lock),
// the checkpointed position always lands on a WAL block boundary; after
// the generation is durable the WAL rotates, and segments wholly
// covered by the oldest retained generation are deleted. Recovery
// (recover.go) restores the newest generation that actually validates
// and replays the WAL tail from its position.

// tenantMeta is the sidecar JSON describing one tenant.
type tenantMeta struct {
	Name   string        `json:"name"`
	Config CounterConfig `json:"config"`
}

func (s *Server) metaPath(name string) string {
	return filepath.Join(s.dataDir, name+".json")
}

// legacyBlobPath is the pre-generation single-checkpoint filename.
func (s *Server) legacyBlobPath(name string) string {
	return filepath.Join(s.dataDir, name+".ckpt")
}

func (s *Server) genPath(name string, pos uint64) string {
	return filepath.Join(s.dataDir, fmt.Sprintf("%s.ckpt.%020d", name, pos))
}

// generation is one discovered checkpoint generation file.
type generation struct {
	pos    uint64
	path   string
	legacy bool // the un-numbered pre-generation file; pos is unknown (0)
}

// listGenerations returns name's checkpoint generations sorted newest
// first, with the legacy un-numbered blob (if any) as the final, oldest
// candidate. Non-numeric suffixes (.tmp leftovers) are ignored.
func (s *Server) listGenerations(name string) ([]generation, error) {
	matches, err := filepath.Glob(filepath.Join(s.dataDir, name+".ckpt.*"))
	if err != nil {
		return nil, err
	}
	gens := make([]generation, 0, len(matches)+1)
	for _, p := range matches {
		suffix := strings.TrimPrefix(filepath.Base(p), name+".ckpt.")
		pos, err := strconv.ParseUint(suffix, 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, generation{pos: pos, path: p})
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].pos > gens[j].pos })
	if legacy := s.legacyBlobPath(name); fileExists(legacy) {
		gens = append(gens, generation{path: legacy, legacy: true})
	}
	return gens, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// CheckpointAll checkpoints every durable tenant whose stream advanced
// since its last checkpoint. It returns how many generations it wrote
// and its failures joined, each naming its tenant: a tenant whose
// checkpoint fails does not stop the ones after it, and is tried again
// at the next call. Calls run one at a time, so two never write one
// generation twice. Tenants are checkpointed one at a time; each holds
// its ingest lock only while serializing to memory and while rotating
// its WAL.
func (s *Server) CheckpointAll() (int, error) {
	if s.dataDir == "" {
		return 0, nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	// Deterministic order: reproducible file activity (and reproducible
	// crash points under the fault-injection tests).
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })

	n := 0
	var errs []error
	for _, t := range tenants {
		wrote, err := s.checkpointTenant(t)
		if wrote {
			n++
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("checkpointing %q: %w", t.name, err))
		}
	}
	return n, errors.Join(errs...)
}

// checkpointTenant writes a generation of t if its stream advanced
// since the last one, and reports whether it did. t.ckptEdges advances
// only once the generation is durable, so a failed write is retried.
// The caller holds s.ckptMu.
//
// The blob is built in a buffer borrowed from stream.BlockBufs, the
// list the WAL's appends and replayed blocks share, and handed back
// once it is on disk. A counter's WriteTo builds its blob in the
// buffer's spare capacity, so when an idle block buffer holds it,
// checkpointing allocates nothing that scales with r. When it does not
// fit, WriteTo builds it in a buffer of its own, and the grown buffer
// is listed in place of the one borrowed.
func (s *Server) checkpointTenant(t *tenant) (bool, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false, nil
	}
	edges := t.edges()
	if edges == t.ckptEdges {
		t.mu.Unlock()
		return false, nil
	}
	blob := bytes.NewBuffer(stream.BlockBufs.Get(0))
	_, err := t.c.WriteTo(blob)
	t.mu.Unlock()
	if err == nil {
		err = s.atomicWriteSync(s.genPath(t.name, edges), blob.Bytes(), "ckpt")
	}
	stream.BlockBufs.Put(blob.Bytes()[:0])
	if err != nil {
		return false, err
	}
	// The generation is durable; retire the current WAL segment so its
	// prefix becomes deletable, then prune old generations and the
	// segments they were covering. Rotation re-takes the ingest lock —
	// it must not race an in-flight POST's appends.
	t.mu.Lock()
	t.ckptEdges = edges
	if t.wal != nil && !t.closed {
		err = t.wal.rotate()
	}
	t.mu.Unlock()
	if err != nil {
		return true, err
	}
	if err := s.cleanupTenant(t.name); err != nil {
		return true, err
	}
	return true, nil
}

// cleanupTenant enforces generation retention and deletes WAL segments
// wholly covered by the oldest retained generation. Deletion order is
// oldest-first in both families, so a crash mid-cleanup leaves extra
// old files (more fallbacks), never a gap in what recovery needs.
func (s *Server) cleanupTenant(name string) error {
	gens, err := s.listGenerations(name)
	if err != nil {
		return err
	}
	keep := s.retain
	if keep < 1 {
		keep = 1
	}
	numbered := 0
	for _, g := range gens {
		if !g.legacy {
			numbered++
		}
	}
	// Prune numbered generations beyond the retention count, and the
	// legacy blob once enough numbered generations cover for it.
	// Deletion runs newest-to-oldest in list order, which is fine: any
	// partial prune leaves only extra fallbacks behind.
	seen := 0
	legacyRetained := numbered < keep
	oldest := uint64(0)
	for _, g := range gens {
		prune := false
		if g.legacy {
			prune = !legacyRetained
		} else {
			seen++
			if seen <= keep {
				oldest = g.pos // oldest retained so far (list is newest-first)
			}
			prune = seen > keep
		}
		if !prune {
			continue
		}
		if err := s.faults.at("gen-prune"); err != nil {
			return err
		}
		if err := os.Remove(g.path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}

	// WAL pruning needs a known floor: the oldest retained generation's
	// position. While the legacy blob (position unknown) remains a
	// fallback candidate, no segment is deleted.
	if numbered == 0 || legacyRetained {
		return nil
	}
	segs, err := listWALSegments(s.dataDir, name)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		if i+1 >= len(segs) {
			break // the newest segment is never deleted
		}
		if segs[i+1].start > oldest {
			break // this segment still covers edges past the floor
		}
		if err := s.faults.at("wal-prune"); err != nil {
			return err
		}
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// removeTenantFiles deletes every file belonging to name: metadata
// first (recovery keys off it, so a crash mid-delete leaves ignorable
// strays, not a half-alive tenant), then generations, WAL segments,
// quarantined copies, and tmp leftovers.
func (s *Server) removeTenantFiles(name string) error {
	if s.dataDir == "" {
		return nil
	}
	if err := os.Remove(s.metaPath(name)); err != nil && !os.IsNotExist(err) {
		return err
	}
	matches, err := filepath.Glob(filepath.Join(s.dataDir, name+".*"))
	if err != nil {
		return err
	}
	for _, p := range matches {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return syncDir(s.dataDir)
}

// Run drives the periodic checkpoint loop until ctx is cancelled, then
// takes one final checkpoint so a graceful shutdown never loses acked
// edges. Under FsyncInterval it also drives the background WAL sync
// timer. Failures are reported through onErr (may be nil) and do not
// stop the loop — a full disk now shouldn't kill a server that might
// checkpoint fine next tick.
func (s *Server) Run(ctx context.Context, interval time.Duration, onErr func(error)) {
	if s.dataDir == "" {
		<-ctx.Done()
		return
	}
	report := func(err error) {
		if err != nil && onErr != nil {
			onErr(err)
		}
	}
	var ckptC, syncC <-chan time.Time
	if interval > 0 {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		ckptC = ticker.C
	}
	if s.policy == FsyncInterval && s.syncEvery > 0 {
		ticker := time.NewTicker(s.syncEvery)
		defer ticker.Stop()
		syncC = ticker.C
	}
	for {
		select {
		case <-ckptC:
			_, err := s.CheckpointAll()
			report(err)
		case <-syncC:
			report(s.syncWALs())
		case <-ctx.Done():
			_, err := s.CheckpointAll()
			report(err)
			return
		}
	}
}

// syncWALs flushes every tenant's unsynced WAL appends, returning the
// first error. It takes only each WAL's own lock, never the ingest
// lock, so a slow POST cannot stall the sync timer.
func (s *Server) syncWALs() error {
	s.mu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	var first error
	for _, t := range tenants {
		if t.wal == nil {
			continue
		}
		if err := t.wal.sync(); err != nil && first == nil {
			first = fmt.Errorf("syncing %q wal: %w", t.name, err)
		}
	}
	return first
}

// Close closes every tenant's WAL (after a final CheckpointAll if
// durable). The server is not usable afterwards.
func (s *Server) Close() error {
	_, err := s.CheckpointAll()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tenants {
		t.mu.Lock()
		t.closed = true
		if t.wal != nil {
			if cerr := t.wal.close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing %q wal: %w", t.name, cerr)
			}
		}
		t.mu.Unlock()
	}
	s.tenants = make(map[string]*tenant)
	return err
}

// marshalMeta serializes the metadata sidecar.
func marshalMeta(name string, cfg CounterConfig) ([]byte, error) {
	return json.Marshal(tenantMeta{Name: name, Config: cfg})
}
