package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// shardSet stands in for the sharded counter of earlier builds, which
// split r estimators into p shards, the first r mod p of them one
// estimator larger, seeded shard i with randx.Split(seed, i), and
// checkpointed them in an NSTS envelope. Estimators are independent and
// each shard drew only from its own RNG, so p counters fed the same
// edges reach exactly the shards' states, and WriteTo writes the bytes
// the sharded counter wrote. ReadCounterFrom restores them as one
// Counter (convert).
type shardSet []*Counter

func newShardSet(r, p int, seed uint64, opts ...Option) shardSet {
	s := make(shardSet, p)
	for i := range s {
		n := r / p
		if i < r%p {
			n++
		}
		s[i] = NewCounter(n, randx.Split(seed, uint64(i)).Uint64N(1<<62)+1, opts...)
	}
	return s
}

func (s shardSet) Add(e graph.Edge) {
	for _, c := range s {
		c.Add(e)
	}
}

func (s shardSet) AddBatch(batch []graph.Edge) {
	for _, c := range s {
		c.AddBatch(batch)
	}
}

// WriteTo writes the shards' NSTS envelope.
func (s shardSet) WriteTo(w io.Writer) (int64, error) {
	blobs := make([][]byte, len(s))
	for i, c := range s {
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			return 0, err
		}
		blobs[i] = buf.Bytes()
	}
	n, err := w.Write(shardEnvelope(uint32(len(s)), s[0].m, blobs...))
	return int64(n), err
}

// convert returns the Counter that s's checkpoint restores as.
func (s shardSet) convert(t *testing.T) *Counter {
	t.Helper()
	c, err := ReadCounterFrom(bytes.NewReader(encodeState(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// shardEnvelope returns an NSTS envelope: magic, version, the shard
// count p and the edge count m as its 20-byte header, then the blobs.
func shardEnvelope(p uint32, m uint64, blobs ...[]byte) []byte {
	le := binary.LittleEndian
	b := append([]byte(nil), serShardedMagic[:]...)
	b = le.AppendUint32(b, serShardedVersion)
	b = le.AppendUint32(b, p)
	b = le.AppendUint64(b, m)
	for _, blob := range blobs {
		b = append(b, blob...)
	}
	return b
}

// TestShardedEdgesNeverDisagreeWithShardState is the regression test for
// the flush-ordering bug: an old implementation bumped m before the
// shards had processed the batch, so Edges() could run ahead of estimator
// state. A counter restored from a three-shard checkpoint taken a third
// of the way in must keep its edge count, its snapshot's and the edges
// fed in agreement at every observation point, under arbitrary
// interleavings of Add and AddBatch before and after the restore.
func TestShardedEdgesNeverDisagreeWithShardState(t *testing.T) {
	edges := stream.Shuffle(gen.Syn3RegPaper(), randx.New(31))
	var c goldenCounter = newShardSet(200, 3, 33)
	edgesOf := func() uint64 {
		if s, ok := c.(shardSet); ok {
			for i, sh := range s {
				if sh.Edges() != s[0].Edges() {
					t.Fatalf("shard %d saw %d edges, shard 0 %d", i, sh.Edges(), s[0].Edges())
				}
			}
			return s[0].Edges()
		}
		cc := c.(*Counter)
		if cc.Snapshot().Edges() != cc.Edges() {
			t.Fatalf("snapshot reports %d edges, counter %d", cc.Snapshot().Edges(), cc.Edges())
		}
		return cc.Edges()
	}
	check := func(at string, fed int) {
		t.Helper()
		if got := edgesOf(); got != uint64(fed) {
			t.Fatalf("%s: counter reports %d edges, %d were fed", at, got, fed)
		}
	}
	i := 0
	for i < len(edges) {
		switch {
		case i%7 == 0 && i+64 <= len(edges):
			c.AddBatch(edges[i : i+64])
			i += 64
		case i%3 == 0 && i+16 <= len(edges):
			c.AddBatch(edges[i : i+16])
			i += 16
		default:
			c.Add(edges[i])
			i++
		}
		if s, ok := c.(shardSet); ok && i >= len(edges)/3 {
			c = s.convert(t)
			check("after the restore", i)
		}
		if i%5 == 0 {
			check("mid-stream", i)
		}
	}
	check("at the end", len(edges))
	if _, ok := c.(*Counter); !ok {
		t.Fatal("the shards were never restored as one counter")
	}
}

// TestShardedPoolWorkersExitOnClose: a counter runs in the caller's
// goroutine, so feeding shards, checkpointing them, restoring the
// envelope as one counter and feeding that must leave the goroutine
// count unchanged.
func TestShardedPoolWorkersExitOnClose(t *testing.T) {
	edges := stream.Shuffle(gen.Syn3RegPaper(), randx.New(43))
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		s := newShardSet(64, 4, uint64(50+i))
		s.AddBatch(edges[:512])
		restored := s.convert(t)
		restored.AddBatch(edges[512:1024])
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("counter %d: goroutines %d before, %d after", i, before, after)
		}
	}
}
