package window

import (
	"bytes"
	"encoding/binary"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/graph"
)

// FuzzWindowCheckpointDecode holds the NSTW decoder to the durability
// contract: no input of any shape may panic it, and every input it
// accepts must decode into a state the live estimator could have reached
// — the chain invariant holds, the counter keeps working, and
// re-encoding reproduces the accepted bytes exactly (the format has one
// canonical encoding per state, so decode∘encode is the identity on
// valid checkpoints). The seed corpus is a pair of real checkpoints
// (mid-stream and empty) plus truncated and header-corrupted variants —
// the damage taxonomy the serialize tests enumerate, here as mutation
// starting points.
func FuzzWindowCheckpointDecode(f *testing.F) {
	valid := func(n int) []byte {
		c := NewCounter(4, 32, 11)
		for _, e := range gen.Path(n) {
			c.Add(e)
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	ckpt := valid(60)
	f.Add(ckpt)
	f.Add(valid(0))
	f.Add(ckpt[:len(ckpt)/2])
	f.Add(ckpt[:5])
	f.Add([]byte{})
	for _, mut := range []struct {
		off int
		b   byte
	}{
		{0, 'X'}, {4, 99}, {8, 0}, {16, 0}, {24, 0xff}, {32, 0xff},
	} {
		b := append([]byte(nil), ckpt...)
		b[mut.off] = mut.b
		f.Add(b)
	}
	// A header claiming 2^32 estimators with no estimator data after it:
	// must be rejected at EOF, not answered with a 100 GB allocation.
	huge := valid(0)
	huge = huge[:len(huge)-4*4] // drop the four empty chains
	binary.LittleEndian.PutUint64(huge[8:16], 1<<32)
	f.Add(huge)

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
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("re-encoded checkpoint (%d bytes) is not a prefix of the accepted input (%d bytes)", out.Len(), len(data))
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
