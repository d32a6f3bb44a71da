package window

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// TestWindowStateGolden pins the exact states of the window engine. The
// round-trip tests compare a build with itself, so a change that moves
// or reorders a random draw passes them; this test compares against
// digests recorded from an earlier build instead. Each digest is SHA-256
// over the WriteTo bytes of one stream and r, for every window of the
// grid in order, at four positions: before the first full window, at it,
// just past it and well past it. At each position the counter is
// restored from its bytes and the restored counter is fed on, so the
// digests cover the state a restore rebuilds too. The multigraph stream
// carries parallel edges and self loops, which trictd passes through.
func TestWindowStateGolden(t *testing.T) {
	growth := gen.HolmeKim(randx.New(201), 70000, 3, 0.6)
	streams := []struct {
		name  string
		edges []graph.Edge
	}{
		{"holmekim-growth", growth},
		{"holmekim-shuffled", stream.Shuffle(growth, randx.New(202))},
		{"multigraph", multigraph(growth)},
	}
	want := map[string]string{
		"holmekim-growth/r=1":    "a496839631552950e0489b226385bab64b7bae56b763b469cca2666611d8f6a0",
		"holmekim-growth/r=5":    "72a5e43d3707c44eab0fb6c05636f80ae7bb4d2dff94a11848157181b09a8bec",
		"holmekim-growth/r=64":   "ffd26f77977841059b9e37c9a946d88e6019ff97bff2ef29d6bdc4f14e30a870",
		"holmekim-shuffled/r=1":  "cac1e6c76740543de66ab3aad382c11d5149c8e72daab446f8318ccbce203788",
		"holmekim-shuffled/r=5":  "7aa4ea08fa29580cc904480c5de9beca072bb627852a1afb2dabc97c515962de",
		"holmekim-shuffled/r=64": "a2f1989b7ed513669628283a310eb19ccc7c6f3fc3b433c2ebc7f48b8f9f43a2",
		"multigraph/r=1":         "4aedbaf6c7d96aed03cb8c36675d31ac01dea9c6660e2a17720d2be7f1ce0e8e",
		"multigraph/r=5":         "108c75064b47d744bd86987a7be51d2cfc5675b251823dd006c368e26a9efb36",
		"multigraph/r=64":        "556f64b6b5552a1e451da5022cdbffc10606914a04fab833b64f28e59bd8176a",
	}
	for _, s := range streams {
		for _, r := range []int{1, 5, 64} {
			name := fmt.Sprintf("%s/r=%d", s.name, r)
			t.Run(name, func(t *testing.T) {
				h := sha256.New()
				for _, w := range []uint64{1, 3, 50, 100000} {
					c := NewCounter(r, w, 7)
					fed := 0
					for _, at := range []int{int(w / 2), int(w), int(w) + 1, 2*int(w) + 1000} {
						for ; fed < at; fed++ {
							c.Add(s.edges[fed])
						}
						blob := encode(t, c)
						fmt.Fprintf(h, "w=%d t=%d\n", w, at)
						h.Write(blob)
						restored, err := ReadCounterFrom(bytes.NewReader(blob))
						if err != nil {
							t.Fatalf("w=%d t=%d: restoring the state: %v", w, at, err)
						}
						c = restored
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
					t.Errorf("state digest %s, want %s", got, want[name])
				}
			})
		}
	}
}

// multigraph returns edges with every 5th edge repeated 40 positions
// later and a self loop on the first edge's first vertex after every
// 50th edge.
func multigraph(edges []graph.Edge) []graph.Edge {
	loop := graph.Edge{U: edges[0].U, V: edges[0].U}
	var out []graph.Edge
	for i, e := range edges {
		out = append(out, e)
		if i >= 40 && (i-40)%5 == 0 {
			out = append(out, edges[i-40])
		}
		if (i+1)%50 == 0 {
			out = append(out, loop)
		}
	}
	return out
}
