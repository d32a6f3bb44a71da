package window

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"streamtri/internal/graph"
	"streamtri/internal/randx"
)

// Serialization lets a long-running windowed stream processor checkpoint
// its estimator chains and resume later, bit-identically — closing the
// durability gap that made windowed serving tenants volatile while the
// whole-stream counters (NSTC/NSTS, internal/core) already survived
// restarts. The format follows the same discipline: a little-endian
// versioned envelope with a magic tag, length-prefixed variable blocks,
// and strict validation so corrupt or truncated streams are rejected by
// name rather than restored into undefined estimator state.
//
//	magic "NSTW" | version u32 | r u64 | w u64 | t u64 |
//	rngLen u32 | rng bytes | r × estimator blocks
//
// where an estimator block is a length-prefixed chain,
//
//	chainLen u32 | chainLen × chain elements
//
// and each chain element is
//
//	e.U e.V (u32) | pos u64 | rho f64 bits (u64) | c u64 |
//	r2.U r2.V (u32) | state u8
//
// with state packing hasR2/hasT into bits 0..1. The reader enforces
// every structural invariant the estimator maintains — positions
// 1-based, inside the window, strictly increasing along the chain with
// strictly increasing priorities in [0,1), non-empty chains whenever
// t > 0, hasR2 exactly when the level-2 neighborhood count is nonzero,
// hasT only with hasR2, an unset r2 stored as the zero edge — so a
// decoded counter is always in a state the live estimator could have
// reached, and re-encoding it reproduces the input bytes.

var serWindowMagic = [4]byte{'N', 'S', 'T', 'W'}

const serWindowVersion = 1

const (
	wstHasR2 = 1 << 0
	wstHasT  = 1 << 1
)

// WriteTo serializes the windowed counter (the NSTW envelope). It
// implements io.WriterTo.
func (c *Counter) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(serWindowMagic); err != nil {
		return n, err
	}
	if err := write(uint32(serWindowVersion)); err != nil {
		return n, err
	}
	if err := write(uint64(len(c.ests))); err != nil {
		return n, err
	}
	if err := write(c.w); err != nil {
		return n, err
	}
	if err := write(c.t); err != nil {
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
		ch := c.ests[i].chain
		if err := write(uint32(len(ch))); err != nil {
			return n, err
		}
		for j := range ch {
			el := &ch[j]
			var st uint8
			if el.hasR2 {
				st |= wstHasR2
			}
			if el.hasT {
				st |= wstHasT
			}
			rec := []any{
				el.e.U, el.e.V, el.pos, math.Float64bits(el.rho), el.c,
				el.r2.U, el.r2.V, st,
			}
			for _, v := range rec {
				if err := write(v); err != nil {
					return n, err
				}
			}
		}
	}
	return n, bw.Flush()
}

// ReadCounterFrom deserializes a windowed counter previously written by
// WriteTo, validating every chain invariant so a corrupt checkpoint is
// rejected by name instead of restored into undefined state.
func ReadCounterFrom(r io.Reader) (*Counter, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var magic [4]byte
	if err := read(&magic); err != nil {
		return nil, fmt.Errorf("window: reading checkpoint header: %w", err)
	}
	if magic != serWindowMagic {
		return nil, fmt.Errorf("window: bad checkpoint magic %q (want %q)", magic, serWindowMagic)
	}
	var version uint32
	if err := read(&version); err != nil {
		return nil, fmt.Errorf("window: reading checkpoint version: %w", err)
	}
	if version != serWindowVersion {
		return nil, fmt.Errorf("window: unsupported checkpoint version %d", version)
	}
	var rCount, w, t uint64
	if err := read(&rCount); err != nil {
		return nil, fmt.Errorf("window: reading estimator count: %w", err)
	}
	const maxEstimators = 1 << 32
	if rCount == 0 || rCount > maxEstimators {
		return nil, fmt.Errorf("window: implausible estimator count %d", rCount)
	}
	if err := read(&w); err != nil {
		return nil, fmt.Errorf("window: reading window size: %w", err)
	}
	if w == 0 {
		return nil, fmt.Errorf("window: implausible window size 0")
	}
	if err := read(&t); err != nil {
		return nil, fmt.Errorf("window: reading stream position: %w", err)
	}
	// 2^62 edges is decades of ingest at any real rate; beyond that the
	// position is corrupt, and bounding it keeps t++ overflow unreachable.
	const maxStreamPos = 1 << 62
	if t > maxStreamPos {
		return nil, fmt.Errorf("window: implausible stream position %d", t)
	}
	var rngLen uint32
	if err := read(&rngLen); err != nil {
		return nil, fmt.Errorf("window: reading rng state size: %w", err)
	}
	if rngLen > 1<<16 {
		return nil, fmt.Errorf("window: implausible rng state size %d", rngLen)
	}
	rngBytes := make([]byte, rngLen)
	if _, err := io.ReadFull(br, rngBytes); err != nil {
		return nil, fmt.Errorf("window: reading rng state: %w", err)
	}
	rng := randx.New(0)
	if err := rng.UnmarshalBinary(rngBytes); err != nil {
		return nil, fmt.Errorf("window: restoring rng state: %w", err)
	}

	// Append estimator by estimator (capped preallocation), like the
	// chains below, so a lying count on a truncated stream fails at EOF
	// instead of allocating the claimed size up front.
	c := &Counter{w: w, t: t, ests: make([]estimator, 0, min(rCount, 1<<16)), rng: rng}
	for i := uint64(0); i < rCount; i++ {
		var chainLen uint32
		if err := read(&chainLen); err != nil {
			return nil, fmt.Errorf("window: reading estimator %d chain length: %w", i, err)
		}
		if t == 0 && chainLen != 0 {
			return nil, fmt.Errorf("window: estimator %d has a %d-element chain at stream position 0", i, chainLen)
		}
		if t > 0 && chainLen == 0 {
			return nil, fmt.Errorf("window: estimator %d has an empty chain at stream position %d", i, t)
		}
		// Append element by element (capped preallocation) so a lying
		// chain length on a truncated stream fails at EOF instead of
		// allocating the claimed size up front.
		prealloc := chainLen
		if prealloc > 1<<16 {
			prealloc = 1 << 16
		}
		chain := make([]chainElem, 0, prealloc)
		for j := uint32(0); j < chainLen; j++ {
			var (
				el      chainElem
				rhoBits uint64
				st      uint8
			)
			fields := []any{
				&el.e.U, &el.e.V, &el.pos, &rhoBits, &el.c,
				&el.r2.U, &el.r2.V, &st,
			}
			for _, f := range fields {
				if err := read(f); err != nil {
					return nil, fmt.Errorf("window: reading estimator %d chain element %d: %w", i, j, err)
				}
			}
			el.rho = math.Float64frombits(rhoBits)
			if st&^uint8(wstHasR2|wstHasT) != 0 {
				return nil, fmt.Errorf("window: estimator %d chain element %d has unknown state bits %#x", i, j, st)
			}
			el.hasR2 = st&wstHasR2 != 0
			el.hasT = st&wstHasT != 0
			if el.pos == 0 || el.pos > t {
				return nil, fmt.Errorf("window: estimator %d chain element %d position %d outside stream of length %d", i, j, el.pos, t)
			}
			if t-el.pos >= w {
				return nil, fmt.Errorf("window: estimator %d chain element %d expired (pos=%d, t=%d, w=%d)", i, j, el.pos, t, w)
			}
			if !(el.rho >= 0 && el.rho < 1) { // also rejects NaN
				return nil, fmt.Errorf("window: estimator %d chain element %d priority %v outside [0,1)", i, j, el.rho)
			}
			if j > 0 {
				prev := &chain[j-1]
				if prev.pos >= el.pos {
					return nil, fmt.Errorf("window: estimator %d chain positions not increasing at element %d", i, j)
				}
				if prev.rho >= el.rho {
					return nil, fmt.Errorf("window: estimator %d chain priorities not increasing at element %d", i, j)
				}
			}
			if el.hasR2 != (el.c > 0) {
				return nil, fmt.Errorf("window: estimator %d chain element %d level-2 state inconsistent (hasR2=%v, c=%d)", i, j, el.hasR2, el.c)
			}
			if el.hasT && !el.hasR2 {
				return nil, fmt.Errorf("window: estimator %d chain element %d holds a triangle without a level-2 edge", i, j)
			}
			if !el.hasR2 && el.r2 != (graph.Edge{}) {
				return nil, fmt.Errorf("window: estimator %d chain element %d carries a level-2 edge marked unset", i, j)
			}
			chain = append(chain, el)
		}
		c.ests = append(c.ests, estimator{chain: chain})
	}
	if err := c.checkChainInvariant(); err != nil {
		return nil, fmt.Errorf("window: restored state violates chain invariant: %w", err)
	}
	return c, nil
}
