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
// AddBatch could not absorb (see checkRecord), and one whose r2Pos is
// above 2^61 − 1, which an Estimator cannot hold beside its flags.
//
// Earlier builds could split a counter's estimators into p shards, each
// with its own RNG, and checkpointed them in an envelope over p blobs:
//
//	magic "NSTS" | version u32 | p u32 | m u64 | p × counter blobs
//
// where each blob is exactly the NSTC layout above, in shard order. The
// decoder still reads it, as one Counter holding the shards' estimators
// in shard order and continuing on shard 0's RNG. A one-shard envelope
// therefore restores as its one counter, exactly. With more shards the
// later draws differ from the sharded counter's, but not their law: each
// estimator's future depends only on its own state and fresh coins.

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

// recordLen is the length of one NSTC estimator record, and headerLen
// that of the NSTC header up to its rng bytes.
const (
	recordLen = 4*4 + 3*8 + 1
	headerLen = 4 + 4 + 8 + 8 + 1 + 4
)

// WriteTo serializes the counter as one NSTC block, built in one buffer
// and written once. The buffer is w's spare capacity when w offers room
// for the whole block through AvailableBuffer (a bytes.Buffer or
// bufio.Writer with room), so the write copies nothing new; otherwise it
// is a fresh one of the block's size. It implements io.WriterTo.
func (c *Counter) WriteTo(w io.Writer) (int64, error) {
	rng, err := c.rng.MarshalBinary()
	if err != nil {
		return 0, err
	}
	le := binary.LittleEndian
	need := headerLen + len(rng) + recordLen*len(c.ests)
	var b []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		b = ab.AvailableBuffer()
	}
	if cap(b) < need {
		b = make([]byte, 0, need)
	}
	b = append(b, serMagic[:]...)
	b = le.AppendUint32(b, serVersion)
	b = le.AppendUint64(b, uint64(len(c.ests)))
	b = le.AppendUint64(b, c.m)
	var flags uint8
	if c.useSkip {
		flags |= flagUseSkip
	}
	b = append(b, flags)
	b = le.AppendUint32(b, uint32(len(rng)))
	b = append(b, rng...)
	for i := range c.ests {
		est := &c.ests[i]
		b = le.AppendUint32(b, est.r1.U)
		b = le.AppendUint32(b, est.r1.V)
		b = le.AppendUint32(b, est.r2.U)
		b = le.AppendUint32(b, est.r2.V)
		b = le.AppendUint64(b, est.r1Pos)
		b = le.AppendUint64(b, est.r2Pos())
		b = le.AppendUint64(b, est.c)
		b = append(b, uint8(est.r2PosFlags>>flagShift))
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadCounterFrom deserializes a counter previously written by WriteTo,
// or the NSTS envelope of a sharded counter (see the top of this file).
func ReadCounterFrom(r io.Reader) (*Counter, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(4); err == nil && [4]byte(magic) == serShardedMagic {
		return readShards(br)
	}
	return readCounter(br)
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
	var rec [recordLen]byte
	le := binary.LittleEndian
	for i := uint64(0); i < rCount; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("core: reading estimator %d: %w", i, err)
		}
		var est Estimator
		est.r1.U, est.r1.V = le.Uint32(rec[0:]), le.Uint32(rec[4:])
		est.r2.U, est.r2.V = le.Uint32(rec[8:]), le.Uint32(rec[12:])
		est.r1Pos, est.r2PosFlags, est.c = le.Uint64(rec[16:]), le.Uint64(rec[24:]), le.Uint64(rec[32:])
		if est.r2PosFlags > r2PosMask {
			// No writer records one: its top bits would hold the flags.
			return nil, fmt.Errorf("core: estimator %d: r2Pos %d beyond 2^61-1", i, est.r2PosFlags)
		}
		est.r2PosFlags |= uint64(rec[40]&(stHasR1|stHasR2|stHasT)) << flagShift
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
	case est.hasR2() && !est.hasR1():
		return errors.New("hasR2 set without hasR1")
	case est.hasT() && !est.hasR2():
		return errors.New("hasT set without hasR2")
	case est.hasR1() && (est.r1Pos == 0 || est.r1Pos > m):
		return fmt.Errorf("r1Pos %d outside [1, m=%d]", est.r1Pos, m)
	case est.hasR2() && est.r2Pos() > m:
		return fmt.Errorf("r2Pos %d beyond m=%d", est.r2Pos(), m)
	case est.c > 4*m:
		return fmt.Errorf("c %d beyond 4m=4×%d", est.c, m)
	}
	return nil
}

// readShards reads an NSTS envelope as one Counter: the shards'
// estimators in shard order, on shard 0's RNG and flags.
func readShards(br *bufio.Reader) (*Counter, error) {
	var hdr struct {
		Magic      [4]byte // checked by ReadCounterFrom
		Version, P uint32
		M          uint64
	}
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("core: reading sharded checkpoint header: %w", err)
	}
	if hdr.Version != serShardedVersion {
		return nil, fmt.Errorf("core: unsupported sharded checkpoint version %d", hdr.Version)
	}
	const maxShards = 1 << 16
	if hdr.P == 0 || hdr.P > maxShards {
		return nil, fmt.Errorf("core: implausible shard count %d", hdr.P)
	}
	var c *Counter
	for i := uint32(0); i < hdr.P; i++ {
		s, err := readCounter(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading shard %d: %w", i, err)
		}
		if s.m != hdr.M {
			return nil, fmt.Errorf("core: shard %d edge count %d disagrees with envelope %d", i, s.m, hdr.M)
		}
		if c == nil {
			c = s
		} else {
			c.ests = append(c.ests, s.ests...)
		}
	}
	c.publish()
	return c, nil
}
