package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// FuzzCounterCheckpointDecode holds the NSTC and NSTS decoders to the
// durability contract: no input of any shape may panic them or exhaust
// memory, and every input one accepts must decode into a state that
// survives a re-encode, i.e. decode → WriteTo → decode gives the same
// state. The seed corpus is real flat and sharded checkpoints, truncated
// and header-corrupted variants, and headers claiming 2^32−1 estimators
// with no estimator data after them.
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
	sharded := NewShardedCounter(5, 2, 2, WithoutLevel1Skip())
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

	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := ReadCounterFrom(bytes.NewReader(data)); err == nil {
			again, err := ReadCounterFrom(bytes.NewReader(encodeState(t, c)))
			if err != nil {
				t.Fatalf("re-encoded checkpoint rejected: %v", err)
			}
			if !bytes.Equal(encodeState(t, again), encodeState(t, c)) || *again.Snapshot() != *c.Snapshot() {
				t.Fatal("decode → WriteTo → decode changed the counter's state")
			}
		}
		if sc, err := ReadShardedCounterFrom(bytes.NewReader(data)); err == nil {
			again, err := ReadShardedCounterFrom(bytes.NewReader(encodeState(t, sc)))
			if err != nil {
				t.Fatalf("re-encoded sharded checkpoint rejected: %v", err)
			}
			if !bytes.Equal(encodeState(t, again), encodeState(t, sc)) || *again.Snapshot() != *sc.Snapshot() {
				t.Fatal("decode → WriteTo → decode changed the sharded counter's state")
			}
		}
	})
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
