package window

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"streamtri/internal/randx"
)

// Serialization lets a long-running windowed stream processor checkpoint
// its estimator chains and resume later, bit-identically. The format is
// a little-endian versioned envelope with a magic tag, length-prefixed
// variable blocks, and strict validation, so corrupt or truncated streams
// are rejected by name rather than restored into undefined estimator
// state.
//
//	magic "NSTW" | version u32 | r u64 | w u64 | t u64 |
//	rngLen u32 | rng bytes | r × estimator blocks
//
// Version 2 (written) stores chain-sampling estimators:
//
//	chainLen u32 | chainLen × element | next u64 | replace u64
//	element: e.U e.V (u32) | pos u64 | c u64 | r2.U r2.V (u32) | state u8
//
// where next is the arrival position of the tail's successor and replace
// the position of the next chain replacement (MaxUint64: never), and
// state packs hasR2/hasT into bits 0..1. The reader enforces every
// invariant checkChainInvariant states, so a decoded counter is always in
// a state the live estimator could have reached, and re-encoding it
// reproduces the input bytes. The calendar and the vertex index are
// rebuilt, not stored.
//
// Version 1 (read only) stored the priority chains of the engine before
// chain sampling, each element carrying its priority ρ as f64 bits after
// pos. ReadCounterFrom validates a version-1 chain as that engine kept it
// — strictly increasing positions and priorities in [0,1), the newest
// edge last — and converts it exactly (convertV1), so upgrading resets no
// counter.

var serWindowMagic = [4]byte{'N', 'S', 'T', 'W'}

const (
	serWindowV1      = 1
	serWindowVersion = 2
)

const (
	wstHasR2 = 1 << 0
	wstHasT  = 1 << 1
)

func elemState(el *chainElem) uint8 {
	var st uint8
	if el.hasR2 {
		st |= wstHasR2
	}
	if el.hasT {
		st |= wstHasT
	}
	return st
}

// elemLen is the length of one version-2 chain element, and estTrailerLen
// that of an estimator block's chainLen, next and replace fields.
const (
	elemLen       = 4 + 4 + 8 + 8 + 4 + 4 + 1
	estTrailerLen = 4 + 8 + 8
)

// WriteTo serializes the windowed counter (the NSTW envelope, version 2)
// in one buffer, written once: w's spare capacity when w offers room for
// the whole envelope through AvailableBuffer (a bytes.Buffer or
// bufio.Writer with room), so the write copies nothing new, else a fresh
// one of the envelope's size. It implements io.WriterTo.
func (c *Counter) WriteTo(w io.Writer) (int64, error) {
	rngBytes, err := c.rng.MarshalBinary()
	if err != nil {
		return 0, err
	}
	need := 4 + 4 + 8 + 8 + 8 + 4 + len(rngBytes)
	for i := range c.ests {
		need += estTrailerLen + elemLen*len(c.ests[i].chain)
	}
	var buf []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		buf = ab.AvailableBuffer()
	}
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	le := binary.LittleEndian
	buf = append(buf, serWindowMagic[:]...)
	buf = le.AppendUint32(buf, serWindowVersion)
	buf = le.AppendUint64(buf, uint64(len(c.ests)))
	buf = le.AppendUint64(buf, c.w)
	buf = le.AppendUint64(buf, c.t)
	buf = le.AppendUint32(buf, uint32(len(rngBytes)))
	buf = append(buf, rngBytes...)
	for i := range c.ests {
		est := &c.ests[i]
		buf = le.AppendUint32(buf, uint32(len(est.chain)))
		for _, el := range est.chain {
			buf = le.AppendUint32(buf, el.e.U)
			buf = le.AppendUint32(buf, el.e.V)
			buf = le.AppendUint64(buf, el.pos)
			buf = le.AppendUint64(buf, el.c)
			buf = le.AppendUint32(buf, el.r2.U)
			buf = le.AppendUint32(buf, el.r2.V)
			buf = append(buf, elemState(el))
		}
		buf = le.AppendUint64(buf, est.next)
		buf = le.AppendUint64(buf, est.replace)
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadCounterFrom deserializes a windowed counter previously written by
// WriteTo (version 2) or by the priority engine (version 1, converted),
// validating every chain invariant so a corrupt checkpoint is rejected by
// name instead of restored into undefined state.
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
	if version != serWindowV1 && version != serWindowVersion {
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

	// Append estimator by estimator and element by element (capped
	// preallocation), so a lying count on a truncated stream fails at
	// EOF instead of allocating the claimed size up front.
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
		chain := make([]v1Elem, 0, min(chainLen, 1<<16))
		for j := uint32(0); j < chainLen; j++ {
			var (
				el      v1Elem
				rhoBits uint64
				st      uint8
			)
			fields := []any{&el.e.U, &el.e.V, &el.pos, &rhoBits, &el.c, &el.r2.U, &el.r2.V, &st}
			if version == serWindowVersion {
				fields = append(fields[:3], fields[4:]...)
			}
			for _, f := range fields {
				if err := read(f); err != nil {
					return nil, fmt.Errorf("window: reading estimator %d chain element %d: %w", i, j, err)
				}
			}
			if st&^uint8(wstHasR2|wstHasT) != 0 {
				return nil, fmt.Errorf("window: estimator %d chain element %d has unknown state bits %#x", i, j, st)
			}
			el.hasR2 = st&wstHasR2 != 0
			el.hasT = st&wstHasT != 0
			if err := checkElem(&el.chainElem); err != nil {
				return nil, fmt.Errorf("window: estimator %d chain element %d: %w", i, j, err)
			}
			if el.pos > t {
				return nil, fmt.Errorf("window: estimator %d chain element %d position %d outside stream of length %d", i, j, el.pos, t)
			}
			if t-el.pos >= w {
				return nil, fmt.Errorf("window: estimator %d chain element %d expired (pos=%d, t=%d, w=%d)", i, j, el.pos, t, w)
			}
			if j > 0 && chain[j-1].pos >= el.pos {
				return nil, fmt.Errorf("window: estimator %d chain positions not increasing at element %d", i, j)
			}
			if version == serWindowV1 {
				el.rho = math.Float64frombits(rhoBits)
				if !(el.rho >= 0 && el.rho < 1) { // also rejects NaN
					return nil, fmt.Errorf("window: estimator %d chain element %d priority %v outside [0,1)", i, j, el.rho)
				}
				if j > 0 && chain[j-1].rho >= el.rho {
					return nil, fmt.Errorf("window: estimator %d chain priorities not increasing at element %d", i, j)
				}
			}
			chain = append(chain, el)
		}
		var est estimator
		if version == serWindowV1 {
			if chainLen > 0 && chain[chainLen-1].pos != t {
				return nil, fmt.Errorf("window: estimator %d version-1 chain does not end at the newest edge %d", i, t)
			}
			est = c.convertV1(chain)
		} else {
			for j := range chain {
				est.chain = append(est.chain, &chain[j].chainElem)
			}
			if err := read(&est.next); err != nil {
				return nil, fmt.Errorf("window: reading estimator %d scheduled successor: %w", i, err)
			}
			if err := read(&est.replace); err != nil {
				return nil, fmt.Errorf("window: reading estimator %d next replacement: %w", i, err)
			}
		}
		c.ests = append(c.ests, est)
	}
	c.rebuild()
	if err := c.checkChainInvariant(); err != nil {
		return nil, fmt.Errorf("window: restored state violates chain invariant: %w", err)
	}
	return c, nil
}

// v1Elem is a version-1 chain element: a chain element with the random
// priority ρ of the engine before chain sampling.
type v1Elem struct {
	chainElem
	rho float64
}

// convertV1 turns one version-1 priority chain at stream position c.t
// into a chain-sampling estimator with the same distribution (doc.go,
// "Restoring version-1 checkpoints"). Walking from the head, an element s
// keeps the old chain's next element as its successor with probability
// |A|/(w−1), A = (s, t] the positions that have arrived; otherwise its
// successor is scheduled uniformly over (t, s+w−1] and the walk stops.
// Replacement draws start afresh.
func (c *Counter) convertV1(old []v1Elem) estimator {
	if c.t == 0 {
		return estimator{next: never, replace: 1}
	}
	est := estimator{next: never}
	for k := range old {
		el := old[k].chainElem
		est.chain = append(est.chain, &el)
		if c.w == 1 {
			break
		}
		arrived := c.t - el.pos
		if k+1 < len(old) && c.rng.Uint64N(c.w-1) < arrived {
			continue
		}
		est.next = after(c.t, 1+c.rng.Uint64N(c.w-1-arrived))
		break
	}
	est.replace = c.nextReplacement(c.t)
	return est
}
