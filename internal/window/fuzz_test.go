package window

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/graph"
)

// FuzzWindowCheckpointDecode holds the NSTW decoder to the durability
// contract for both versions: no input of any shape may panic it or make
// it allocate a claimed count up front, and every input it accepts must
// decode into a state the live estimator could have reached — the chain
// invariant holds and the counter keeps working. An accepted version-2
// input re-encodes to exactly its own bytes (one canonical encoding per
// state); an accepted version-1 input converts to a state whose version-2
// encoding decodes back to the same state. The seed corpus holds real
// checkpoints of both versions (mid-stream and empty) plus truncated and
// header-corrupted variants and headers claiming huge counts.
func FuzzWindowCheckpointDecode(f *testing.F) {
	var buf bytes.Buffer
	v2 := func(n int, w uint64) []byte {
		c := NewCounter(4, w, 11)
		for _, e := range gen.Path(n) {
			c.Add(e)
		}
		buf.Reset()
		if _, err := c.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		return bytes.Clone(buf.Bytes())
	}
	v1 := func(n int, w uint64) []byte {
		c := newRefCounter(4, w, 11)
		for _, e := range gen.Path(n) {
			c.Add(e)
		}
		return c.v1Blob()
	}
	for _, ckpt := range [][]byte{v2(60, 32), v1(60, 32)} {
		f.Add(ckpt)
		f.Add(ckpt[:len(ckpt)/2])
		f.Add(ckpt[:5])
		for _, mut := range []struct {
			off int
			b   byte
		}{
			{0, 'X'}, {4, 99}, {8, 0}, {16, 0}, {24, 0xff}, {32, 0xff},
		} {
			b := bytes.Clone(ckpt)
			b[mut.off] = mut.b
			f.Add(b)
		}
		// An estimator block claiming 2^32-1 chain elements, then EOF.
		huge := bytes.Clone(ckpt[:36+int(binary.LittleEndian.Uint32(ckpt[32:]))+4])
		binary.LittleEndian.PutUint32(huge[len(huge)-4:], math.MaxUint32)
		f.Add(huge)
	}
	f.Add(v2(0, 32))
	f.Add(v1(0, 32))
	f.Add(v2(10, 1))
	f.Add(v1(10, 1))
	f.Add(v2(10, math.MaxUint64))
	f.Add([]byte{})
	// Headers claiming 2^32 estimators with no estimator data after them:
	// they must be rejected at EOF, not answered with a 100 GB allocation.
	for _, empty := range [][]byte{v2(0, 32), v1(0, 32)} {
		huge := empty[:36+int(binary.LittleEndian.Uint32(empty[32:]))]
		binary.LittleEndian.PutUint64(huge[8:16], 1<<32)
		f.Add(huge)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCounterFrom(bytes.NewReader(data))
		if err != nil {
			return // rejected by name — the only acceptable failure mode
		}
		if err := c.CheckChainInvariant(); err != nil {
			t.Fatalf("accepted checkpoint violates chain invariant: %v", err)
		}
		var out bytes.Buffer
		if _, err := c.WriteTo(&out); err != nil {
			t.Fatalf("re-encoding accepted checkpoint: %v", err)
		}
		if binary.LittleEndian.Uint32(data[4:]) == serWindowVersion {
			if !bytes.HasPrefix(data, out.Bytes()) {
				t.Fatalf("re-encoded checkpoint (%d bytes) is not a prefix of the accepted input (%d bytes)", out.Len(), len(data))
			}
		} else {
			again, err := ReadCounterFrom(bytes.NewReader(out.Bytes()))
			if err != nil {
				t.Fatalf("version-2 encoding of a converted version-1 checkpoint rejected: %v", err)
			}
			var out2 bytes.Buffer
			if _, err := again.WriteTo(&out2); err != nil || !bytes.Equal(out2.Bytes(), out.Bytes()) {
				t.Fatalf("converted version-1 state does not round-trip through version 2 (err=%v)", err)
			}
		}
		// The restored counter must remain a working estimator.
		c.Add(graph.Edge{U: 1, V: 2})
		c.Add(graph.Edge{U: 2, V: 3})
		_ = c.EstimateTriangles()
		if err := c.CheckChainInvariant(); err != nil {
			t.Fatalf("restored counter broke after further edges: %v", err)
		}
	})
}
