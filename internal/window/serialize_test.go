package window

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// encode serializes c or fails the test.
func encode(t *testing.T, c *Counter) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSerializeRoundTripBitIdentical(t *testing.T) {
	edges := stream.Shuffle(gen.HolmeKim(randx.New(3), 400, 3, 0.6), randx.New(4))
	half := len(edges) / 2
	c := NewCounter(60, 150, 5)
	for _, e := range edges[:half] {
		c.Add(e)
	}

	blob := encode(t, c)
	restored, err := ReadCounterFrom(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	// Canonical form: re-encoding the decoded state reproduces the bytes.
	if !bytes.Equal(encode(t, restored), blob) {
		t.Fatal("re-encoded restored counter differs from original checkpoint")
	}
	if restored.StreamLength() != c.StreamLength() || restored.WindowEdges() != c.WindowEdges() {
		t.Fatalf("restored position (t=%d, win=%d) != original (t=%d, win=%d)",
			restored.StreamLength(), restored.WindowEdges(), c.StreamLength(), c.WindowEdges())
	}
	if got, want := restored.EstimateTriangles(), c.EstimateTriangles(); got != want {
		t.Fatalf("restored estimate %v != original %v", got, want)
	}

	// The restored counter must continue exactly like the original —
	// chains, reservoirs, and RNG stream all resumed mid-flight.
	for i, e := range edges[half:] {
		c.Add(e)
		restored.Add(e)
		if got, want := restored.EstimateTriangles(), c.EstimateTriangles(); got != want {
			t.Fatalf("estimates diverge %d edges after restore: %v != %v", i+1, got, want)
		}
	}
	if err := restored.CheckChainInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestSerializeIntoSpareCapacity checks that WriteTo builds its envelope
// in the spare capacity of a destination with room for exactly it, after
// the bytes it already holds: the same bytes, and no allocation, so its
// size computation matches what it writes.
func TestSerializeIntoSpareCapacity(t *testing.T) {
	edges := stream.Shuffle(gen.HolmeKim(randx.New(3), 400, 3, 0.6), randx.New(4))
	c := NewCounter(60, 150, 5)
	c.AddBatch(edges[:len(edges)/2])
	want := encode(t, c)
	buf := bytes.NewBuffer(make([]byte, 0, len("head")+len(want)))
	buf.WriteString("head")
	allocs := testing.AllocsPerRun(20, func() {
		buf.Truncate(len("head"))
		if _, err := c.WriteTo(buf); err != nil {
			t.Fatal(err)
		}
	})
	if got := buf.Bytes(); string(got[:4]) != "head" || !bytes.Equal(got[4:], want) {
		t.Fatal("WriteTo into spare capacity wrote different bytes")
	}
	if allocs > 0 {
		t.Errorf("WriteTo into a buffer with room made %v allocations, want none", allocs)
	}
}

func TestSerializeEmptyCounterRoundTrip(t *testing.T) {
	c := NewCounter(5, 32, 9)
	restored, err := ReadCounterFrom(bytes.NewReader(encode(t, c)))
	if err != nil {
		t.Fatal(err)
	}
	c.Add(graph.Edge{U: 1, V: 2})
	restored.Add(graph.Edge{U: 1, V: 2})
	if !bytes.Equal(encode(t, restored), encode(t, c)) {
		t.Fatal("fresh-state restore diverged on the first edge")
	}
}

func TestSerializeRejectsTruncation(t *testing.T) {
	c := NewCounter(8, 40, 2)
	for _, e := range gen.Path(100) {
		c.Add(e)
	}
	blob := encode(t, c)
	for cut := 0; cut < len(blob); cut++ {
		if _, err := ReadCounterFrom(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("restoring a checkpoint truncated to %d of %d bytes succeeded", cut, len(blob))
		}
	}
}

func TestSerializeRejectsHeaderCorruption(t *testing.T) {
	c := NewCounter(4, 16, 7)
	for _, e := range gen.Path(40) {
		c.Add(e)
	}
	blob := encode(t, c)

	corrupt := func(name string, mutate func(b []byte), want string) {
		b := append([]byte(nil), blob...)
		mutate(b)
		_, err := ReadCounterFrom(bytes.NewReader(b))
		if err == nil {
			t.Fatalf("%s: corrupt checkpoint restored silently", name)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not name the damage (want %q)", name, err, want)
		}
	}
	// Header layout: magic(4) version(4) r(8) w(8) t(8) rngLen(4) ...
	corrupt("magic", func(b []byte) { b[0] = 'X' }, "bad checkpoint magic")
	corrupt("version", func(b []byte) { b[4] = 99 }, "unsupported checkpoint version")
	corrupt("zero estimators", func(b []byte) {
		binary.LittleEndian.PutUint64(b[8:], 0)
	}, "implausible estimator count")
	corrupt("zero window", func(b []byte) {
		binary.LittleEndian.PutUint64(b[16:], 0)
	}, "implausible window size")
	corrupt("rewound stream position", func(b []byte) {
		binary.LittleEndian.PutUint64(b[24:], 0)
	}, "chain")
	corrupt("huge rng blob", func(b []byte) {
		binary.LittleEndian.PutUint32(b[32:], 1<<20)
	}, "implausible rng state size")
}

// TestSerializeRejectsInvalidChains encodes counters whose chains violate
// each estimator invariant (the writers do not validate — same-package
// tests can build impossible states) and requires the reader to name the
// violation instead of restoring it. The first group damages version-1
// checkpoints of the reference priority engine, the second version-2
// checkpoints of the chain-sampling engine.
func TestSerializeRejectsInvalidChains(t *testing.T) {
	v1Cases := []struct {
		name   string
		mutate func(ch []v1Elem, c *refCounter)
		want   string
	}{
		{"expired element", func(ch []v1Elem, c *refCounter) { ch[0].pos = 1; c.t = 200 }, "expired"},
		{"position beyond stream", func(ch []v1Elem, c *refCounter) { ch[len(ch)-1].pos = c.t + 1 }, "outside stream"},
		{"zero position", func(ch []v1Elem, c *refCounter) {
			c.ests[0] = []v1Elem{{chainElem: chainElem{e: graph.Edge{U: 1, V: 2}}, rho: 0.5}}
			c.t = 1
		}, "outside stream"},
		{"priority out of range", func(ch []v1Elem, c *refCounter) { ch[0].rho = 1.5 }, "priority"},
		{"positions not increasing", func(ch []v1Elem, c *refCounter) { ch[1].pos = ch[0].pos }, "positions not increasing"},
		{"priorities not increasing", func(ch []v1Elem, c *refCounter) { ch[1].rho = ch[0].rho / 2 }, "priorities not increasing"},
		{"triangle without level-2", func(ch []v1Elem, c *refCounter) {
			ch[0].hasT, ch[0].hasR2, ch[0].c, ch[0].r2 = true, false, 0, graph.Edge{}
		}, "level-2"},
		{"level-2 flag without count", func(ch []v1Elem, c *refCounter) { ch[0].hasR2, ch[0].c = true, 0 }, "inconsistent"},
		{"empty chain mid-stream", func(ch []v1Elem, c *refCounter) { c.ests[0] = nil }, "empty chain"},
		{"newest edge missing", func(ch []v1Elem, c *refCounter) { c.ests[0] = ch[:len(ch)-1] }, "newest edge"},
	}
	for _, tc := range v1Cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newRefCounter(1, 100, 3)
			for _, e := range gen.Path(10) {
				c.Add(e)
			}
			if len(c.ests[0]) < 2 {
				t.Fatal("reference chain too short for this seed")
			}
			tc.mutate(c.ests[0], c)
			_, err := ReadCounterFrom(bytes.NewReader(c.v1Blob()))
			if err == nil {
				t.Fatal("invalid version-1 chain state restored silently")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the violation (want %q)", err, tc.want)
			}
		})
	}

	v2Cases := []struct {
		name   string
		mutate func(est *estimator, c *Counter)
		want   string
	}{
		{"v2 expired element", func(est *estimator, c *Counter) { c.t += c.w }, "expired"},
		{"v2 level-2 flag without count", func(est *estimator, c *Counter) { est.chain[0].hasR2, est.chain[0].c = true, 0 }, "inconsistent"},
		{"v2 successor beyond its range", func(est *estimator, c *Counter) { est.next = est.chain[len(est.chain)-1].pos + c.w }, "scheduled successor"},
		{"v2 successor already arrived", func(est *estimator, c *Counter) { est.next = c.t }, "scheduled successor"},
		{"v2 successor never scheduled", func(est *estimator, c *Counter) { est.next = never }, "no successor"},
		{"v2 replacement in the past", func(est *estimator, c *Counter) { est.replace = c.t }, "replacement"},
		{"v2 replacement beyond stream bound", func(est *estimator, c *Counter) { est.replace = maxStreamPos + 1 }, "replacement"},
		{"v2 fresh state with a scheduled replacement", func(est *estimator, c *Counter) {
			c.t, est.chain, est.next, est.replace = 0, nil, never, 5
		}, "not fresh"},
	}
	for _, tc := range v2Cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCounter(1, 8, 3)
			for _, e := range gen.Path(40) {
				c.Add(e)
			}
			tc.mutate(&c.ests[0], c)
			_, err := ReadCounterFrom(bytes.NewReader(encode(t, c)))
			if err == nil {
				t.Fatal("invalid version-2 chain state restored silently")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the violation (want %q)", err, tc.want)
			}
		})
	}
}

// TestSerializeRestoresVersion1 restores reference-engine checkpoints
// taken before, at and after the window fills: each converts into a
// valid chain-sampling state with the stream position, window and head
// level-2 states intact, its version-2 encoding round-trips, and it keeps
// counting.
func TestSerializeRestoresVersion1(t *testing.T) {
	edges := stream.Shuffle(gen.HolmeKim(randx.New(3), 300, 3, 0.6), randx.New(4))
	for _, w := range []uint64{1, 2, 40, 200, math.MaxUint64} {
		for _, t0 := range []int{0, 1, 39, 40, 41, 500} {
			ref := newRefCounter(30, w, 9)
			for _, e := range edges[:t0] {
				ref.Add(e)
			}
			c := ref.restoreV1(t)
			if c.StreamLength() != uint64(t0) || c.w != w {
				t.Fatalf("w=%d t0=%d: restored t=%d w=%d", w, t0, c.StreamLength(), c.w)
			}
			for i := range c.ests {
				pos, hasT, ok := ref.HeadState(i)
				h := c.ests[i].head()
				if ok != (h != nil) || (ok && (h.pos != pos || h.hasT != hasT || *h != ref.ests[i][0].chainElem)) {
					t.Fatalf("w=%d t0=%d: estimator %d head not carried over", w, t0, i)
				}
			}
			if got, want := c.EstimateTriangles(), ref.EstimateTriangles(); got != want {
				t.Fatalf("w=%d t0=%d: converted estimate %v, reference %v", w, t0, got, want)
			}
			blob := encode(t, c)
			again, err := ReadCounterFrom(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("w=%d t0=%d: version-2 re-encoding of a converted state: %v", w, t0, err)
			}
			if !bytes.Equal(encode(t, again), blob) {
				t.Fatalf("w=%d t0=%d: converted state does not round-trip", w, t0)
			}
			for _, e := range edges[t0 : t0+50] {
				c.Add(e)
			}
			if err := c.CheckChainInvariant(); err != nil {
				t.Fatalf("w=%d t0=%d: after continuing: %v", w, t0, err)
			}
		}
	}
}
