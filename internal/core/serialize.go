package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"streamtri/internal/randx"
)

// Serialization lets a long-running stream processor checkpoint its
// estimator states and resume later, bit-identically — a production
// concern the paper's prototype did not need but a library does. The
// format is a little-endian fixed layout:
//
//	magic "NSTC" | version u32 | r u64 | m u64 | flags u8 |
//	rngLen u32 | rng bytes | r × estimator records
//
// where an estimator record is
//
//	r1.U r1.V r2.U r2.V (u32) | r1Pos r2Pos c (u64) | state u8
//
// and state packs hasR1/hasR2/hasT into bits 0..2. The decoder rejects
// a record that no stream of m edges can produce and that a later
// AddBatch could not absorb (see checkRecord).
//
// A ShardedCounter checkpoint is a thin envelope over p counter blocks:
//
//	magic "NSTS" | version u32 | p u32 | m u64 | p × counter blobs
//
// where each blob is exactly the NSTC layout above, written in shard
// order. Restoring replays the blobs into fresh shards and republishes
// the combined snapshot, so a restored counter's estimates are
// bit-identical to the checkpointed ones.

var (
	serMagic        = [4]byte{'N', 'S', 'T', 'C'}
	serShardedMagic = [4]byte{'N', 'S', 'T', 'S'}
)

const (
	serVersion        = 1
	serShardedVersion = 1
)

const (
	flagUseSkip = 1 << 0
	// Flag bit 1 was flagMapScratch, the removed map-based bulk path; it
	// is no longer written and is ignored on read (the surviving flat
	// path is bit-identical, so old checkpoints restore unchanged).

	stHasR1 = 1 << 0
	stHasR2 = 1 << 1
	stHasT  = 1 << 2
)

// WriteTo serializes the counter. It implements io.WriterTo.
func (c *Counter) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n, err := c.writeTo(bw)
	if err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// writeTo emits the NSTC block onto an existing buffered writer without
// flushing, so several counters can share one writer (the sharded
// envelope below).
func (c *Counter) writeTo(bw *bufio.Writer) (int64, error) {
	n := int64(0)
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(serMagic); err != nil {
		return n, err
	}
	if err := write(uint32(serVersion)); err != nil {
		return n, err
	}
	if err := write(uint64(len(c.ests))); err != nil {
		return n, err
	}
	if err := write(c.m); err != nil {
		return n, err
	}
	var flags uint8
	if c.useSkip {
		flags |= flagUseSkip
	}
	if err := write(flags); err != nil {
		return n, err
	}
	rngBytes, err := c.rng.MarshalBinary()
	if err != nil {
		return n, err
	}
	if err := write(uint32(len(rngBytes))); err != nil {
		return n, err
	}
	if err := write(rngBytes); err != nil {
		return n, err
	}
	for i := range c.ests {
		est := &c.ests[i]
		var st uint8
		if est.hasR1 {
			st |= stHasR1
		}
		if est.hasR2 {
			st |= stHasR2
		}
		if est.hasT {
			st |= stHasT
		}
		rec := []any{
			est.r1.U, est.r1.V, est.r2.U, est.r2.V,
			est.r1Pos, est.r2Pos, est.c, st,
		}
		for _, v := range rec {
			if err := write(v); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// ReadCounterFrom deserializes a counter previously written by WriteTo.
func ReadCounterFrom(r io.Reader) (*Counter, error) {
	return readCounter(bufio.NewReader(r))
}

// readCounter consumes one NSTC block from a shared buffered reader.
// Sequential blocks (the sharded envelope) must come through one
// bufio.Reader — constructing a fresh one per block would lose the
// bytes its read-ahead had already buffered.
func readCounter(br *bufio.Reader) (*Counter, error) {
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var magic [4]byte
	if err := read(&magic); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint header: %w", err)
	}
	if magic != serMagic {
		return nil, fmt.Errorf("core: bad checkpoint magic %q", magic)
	}
	var version uint32
	if err := read(&version); err != nil {
		return nil, err
	}
	if version != serVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d", version)
	}
	var rCount, m uint64
	if err := read(&rCount); err != nil {
		return nil, err
	}
	if err := read(&m); err != nil {
		return nil, err
	}
	const maxEstimators = 1 << 32
	if rCount == 0 || rCount > maxEstimators {
		return nil, fmt.Errorf("core: implausible estimator count %d", rCount)
	}
	if m > maxEdges {
		return nil, fmt.Errorf("core: implausible edge count %d", m)
	}
	var flags uint8
	if err := read(&flags); err != nil {
		return nil, err
	}
	var rngLen uint32
	if err := read(&rngLen); err != nil {
		return nil, err
	}
	if rngLen > 1<<16 {
		return nil, fmt.Errorf("core: implausible rng state size %d", rngLen)
	}
	rngBytes := make([]byte, rngLen)
	if _, err := io.ReadFull(br, rngBytes); err != nil {
		return nil, fmt.Errorf("core: reading rng state: %w", err)
	}
	rng := randx.New(0)
	if err := rng.UnmarshalBinary(rngBytes); err != nil {
		return nil, fmt.Errorf("core: restoring rng state: %w", err)
	}

	// The header's count is not trusted for the allocation: estimators are
	// appended as they are read, so a damaged header claiming billions of
	// them fails at EOF instead of exhausting memory.
	c := &Counter{
		ests:    make([]Estimator, 0, min(rCount, 1<<16)),
		m:       m,
		rng:     rng,
		useSkip: flags&flagUseSkip != 0,
	}
	for i := uint64(0); i < rCount; i++ {
		var est Estimator
		var st uint8
		fields := []any{
			&est.r1.U, &est.r1.V, &est.r2.U, &est.r2.V,
			&est.r1Pos, &est.r2Pos, &est.c, &st,
		}
		for _, f := range fields {
			if err := read(f); err != nil {
				return nil, fmt.Errorf("core: reading estimator %d: %w", i, err)
			}
		}
		est.hasR1 = st&stHasR1 != 0
		est.hasR2 = st&stHasR2 != 0
		est.hasT = st&stHasT != 0
		if err := checkRecord(&est, m); err != nil {
			return nil, fmt.Errorf("core: estimator %d: %w", i, err)
		}
		c.ests = append(c.ests, est)
	}
	c.publish()
	return c, nil
}

// maxEdges bounds a checkpoint's edge count m. With c ≤ 4m it keeps 4m,
// m + w and c⁻ + c⁺ in a later AddBatch far from wrapping.
const maxEdges = 1 << 60

// checkRecord rejects an estimator record that no stream of m ≤ maxEdges
// edges produces, naming the field at fault. Each edge after r1 raises c
// by at most 4, so c ≤ 4m: a self loop raises its vertex's degree twice,
// and when r1 is a loop on the same vertex both of r1's endpoint degrees
// count it. Every rule holds for every state the library writes,
// out-of-contract streams included; r2Pos > r1Pos is not a rule, since
// the bulk path can leave r2Pos = r1Pos when r1 is a self loop.
func checkRecord(est *Estimator, m uint64) error {
	switch {
	case est.hasR2 && !est.hasR1:
		return errors.New("hasR2 set without hasR1")
	case est.hasT && !est.hasR2:
		return errors.New("hasT set without hasR2")
	case est.hasR1 && (est.r1Pos == 0 || est.r1Pos > m):
		return fmt.Errorf("r1Pos %d outside [1, m=%d]", est.r1Pos, m)
	case est.hasR2 && est.r2Pos > m:
		return fmt.Errorf("r2Pos %d beyond m=%d", est.r2Pos, m)
	case est.c > 4*m:
		return fmt.Errorf("c %d beyond 4m=4×%d", est.c, m)
	}
	return nil
}

// WriteTo serializes the sharded counter (the NSTS envelope) at its
// current batch boundary. Owner-only, like the mutating methods.
func (sc *ShardedCounter) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(serShardedMagic); err != nil {
		return n, err
	}
	if err := write(uint32(serShardedVersion)); err != nil {
		return n, err
	}
	if err := write(uint32(len(sc.shards))); err != nil {
		return n, err
	}
	if err := write(sc.m); err != nil {
		return n, err
	}
	for _, s := range sc.shards {
		sn, err := s.writeTo(bw)
		n += sn
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadShardedCounterFrom deserializes a sharded counter previously
// written by ShardedCounter.WriteTo. The restored counter continues
// exactly as the original would have.
func ReadShardedCounterFrom(r io.Reader) (*ShardedCounter, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var magic [4]byte
	if err := read(&magic); err != nil {
		return nil, fmt.Errorf("core: reading sharded checkpoint header: %w", err)
	}
	if magic != serShardedMagic {
		return nil, fmt.Errorf("core: bad sharded checkpoint magic %q", magic)
	}
	var version uint32
	if err := read(&version); err != nil {
		return nil, err
	}
	if version != serShardedVersion {
		return nil, fmt.Errorf("core: unsupported sharded checkpoint version %d", version)
	}
	var p uint32
	if err := read(&p); err != nil {
		return nil, err
	}
	const maxShards = 1 << 16
	if p == 0 || p > maxShards {
		return nil, fmt.Errorf("core: implausible shard count %d", p)
	}
	var m uint64
	if err := read(&m); err != nil {
		return nil, err
	}
	sc := &ShardedCounter{shards: make([]*Counter, p), m: m}
	for i := range sc.shards {
		s, err := readCounter(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading shard %d: %w", i, err)
		}
		if s.m != m {
			return nil, fmt.Errorf("core: shard %d edge count %d disagrees with envelope %d", i, s.m, m)
		}
		sc.shards[i] = s
	}
	sc.publishCombined()
	return sc, nil
}
