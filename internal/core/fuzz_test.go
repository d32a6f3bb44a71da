package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// FuzzCounterCheckpointDecode holds the checkpoint decoder, which reads
// NSTC blobs and NSTS envelopes, to the durability contract: no input
// of any shape may panic it or exhaust memory, every input it accepts
// must decode into a state that survives a re-encode, i.e. decode →
// WriteTo → decode gives the same state, and that state must then
// absorb the seed stream in batches without panicking, as trictd's WAL
// replay makes a restored counter do. The seed corpus is real flat and
// sharded checkpoints (the envelope of two shards), truncated
// and header-corrupted variants, headers claiming 2^32−1 estimators
// with no estimator data after them, and checkpoints whose every
// estimator claims c = 2^64−1, one of them with m = 2^64−1 as well.
func FuzzCounterCheckpointDecode(f *testing.F) {
	edges := stream.Shuffle(gen.HolmeKim(randx.New(3), 60, 3, 0.6), randx.New(4))
	encode := func(c io.WriterTo) []byte {
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	flat := NewCounter(5, 1)
	flat.AddBatch(edges)
	sharded := newShardSet(5, 2, 2, WithoutLevel1Skip())
	sharded.AddBatch(edges)
	ckpt, sckpt := encode(flat), encode(sharded)
	for _, b := range [][]byte{ckpt, sckpt, encode(NewCounter(1, 3)), ckpt[:len(ckpt)/2], sckpt[:40], {}} {
		f.Add(b)
	}
	for _, mut := range []struct {
		off int
		b   byte
	}{{0, 'X'}, {4, 99}, {8, 0}, {16, 0xff}, {24, 0xff}, {26, 0xff}} {
		b := append([]byte(nil), ckpt...)
		b[mut.off] = mut.b
		f.Add(b)
	}
	// Headers claiming 2^32−1 estimators and then ending: must be
	// rejected at EOF, not answered with a 200 GB allocation. The NSTC
	// header is magic, version, r, m, flags, rng length and rng bytes.
	rngLen := int(binary.LittleEndian.Uint32(ckpt[25:29]))
	huge := append([]byte(nil), ckpt[:29+rngLen]...)
	binary.LittleEndian.PutUint64(huge[8:16], 1<<32-1)
	f.Add(huge)
	f.Add(append(append([]byte(nil), sckpt[:20]...), huge...))
	// Every estimator of a 40-estimator checkpoint claims c = 2^64−1.
	// A record is r1, r2 (4 × u32), r1Pos, r2Pos, c (3 × u64) and a state
	// byte, so c is bytes 32..40 of it. c⁻ + c⁺ wraps to 0 when a batch
	// touches one of those level-1 edges exactly once.
	const recLen = 41
	wide := NewCounter(40, 1)
	wide.AddBatch(edges)
	wrapC := encode(wide)
	for off := 29 + int(binary.LittleEndian.Uint32(wrapC[25:29])); off+recLen <= len(wrapC); off += recLen {
		binary.LittleEndian.PutUint64(wrapC[off+32:off+40], 1<<64-1)
	}
	f.Add(wrapC)
	// The same with m = 2^64−1 and the level-1 skip off: 4m overflows, so
	// only the bound on m keeps these records from the c⁻ + c⁺ wrap.
	wrapM := append([]byte(nil), wrapC...)
	binary.LittleEndian.PutUint64(wrapM[16:24], 1<<64-1)
	wrapM[24] = 0
	f.Add(wrapM)

	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := ReadCounterFrom(bytes.NewReader(data)); err == nil {
			again, err := ReadCounterFrom(bytes.NewReader(encodeState(t, c)))
			if err != nil {
				t.Fatalf("re-encoded checkpoint rejected: %v", err)
			}
			if !bytes.Equal(encodeState(t, again), encodeState(t, c)) || *again.Snapshot() != *c.Snapshot() {
				t.Fatal("decode → WriteTo → decode changed the counter's state")
			}
			absorbInBatches(c, edges)
		}
	})
}

// absorbInBatches feeds edges to c in batches of 16, so that a restored
// state meets batches that touch its level-1 edges only lightly.
func absorbInBatches(c interface{ AddBatch([]graph.Edge) }, edges []graph.Edge) {
	for lo := 0; lo < len(edges); lo += 16 {
		c.AddBatch(edges[lo:min(lo+16, len(edges))])
	}
}

// encodeState returns c's checkpoint bytes.
func encodeState(t *testing.T, c io.WriterTo) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
