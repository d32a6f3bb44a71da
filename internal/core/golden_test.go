package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// TestBulkStateGolden pins the exact states the bulk path produces. The
// determinism tests compare two counters of the same build, so a change
// that moves or reorders a random draw passes them; this test compares
// against digests recorded from an earlier build instead. Each digest is
// SHA-256 over the WriteTo bytes of one counter kind on one stream, for
// every r and w of the grid in order. A mismatch means the bulk path is
// no longer bit-identical to the build the digests came from. The
// multigraph stream is outside the simple-stream contract: it carries
// parallel edges and self loops, which trictd and NewSliceSource pass
// through. Every state must also restore from its own bytes.
func TestBulkStateGolden(t *testing.T) {
	hkRNG := randx.New(101)
	growth := gen.HolmeKim(hkRNG, 300, 3, 0.7)
	streams := []struct {
		name  string
		edges []graph.Edge
	}{
		{"holmekim-growth", growth},
		{"holmekim-shuffled", stream.Shuffle(growth, randx.New(102))},
		{"complete", gen.Complete(24)},
		{"multigraph", multigraph(growth)},
	}
	kinds := []struct {
		name string
		p    int // 0 = flat Counter
		opts []Option
	}{
		{"flat-skip", 0, nil},
		{"flat-noskip", 0, []Option{WithoutLevel1Skip()}},
		{"sharded-p1", 1, nil},
		{"sharded-p2", 2, nil},
		{"sharded-p3", 3, nil},
	}
	want := map[string]string{
		"holmekim-growth/flat-skip":     "57969039fa312e3736fd941e462070e7af7e54dc5c99093ed514d5e6b3e00b15",
		"holmekim-growth/flat-noskip":   "8790a16fad596e92d0ab8c16e9e1f10fd0475dcc4d19089522a0ab6a33eae307",
		"holmekim-growth/sharded-p1":    "bc0fbada905156b2ec7af810364b88de2837b971017290ee9b7743160be766df",
		"holmekim-growth/sharded-p2":    "0a3cb7203d224b55f7e24684ca74543fab323cfa03b05aedd2a1b31171ae514d",
		"holmekim-growth/sharded-p3":    "f67537a7fc6745a2488dfc3cb375256ae677f654b87d8fd82a005a3dde6afa59",
		"holmekim-shuffled/flat-skip":   "101008850e11eceaa8bce7d2a8a627eaee815db0bdefc756d61700b9f887f5c5",
		"holmekim-shuffled/flat-noskip": "b5984b778e6ef58fda4bd8b55333fa7da7a33a93296f025d29f613a48eeb39a8",
		"holmekim-shuffled/sharded-p1":  "18c574423a2782f38f564ad53fb4d26375891172c6367599018ac308a644bbe0",
		"holmekim-shuffled/sharded-p2":  "15b4798826acbd88fc6e55dee3d7ce5ec0c839f6b8be07d7c0a5774fe4bfb788",
		"holmekim-shuffled/sharded-p3":  "18197f8978baa10f7416400dc9fde8892cf01c430f54d89cd2631004809c708e",
		"complete/flat-skip":            "11bd20fef934dd9b70eeb513f68fe7f26cd6c6071d082bcf6a07fa5fbb71df5b",
		"complete/flat-noskip":          "42c4b9c72de351464eded2a6441c44653f2a50ab8b64a7d70b54758893df172c",
		"complete/sharded-p1":           "074896372107e76ed95a7b52f58724a68f8f473d83b82c201982308de5e9346c",
		"complete/sharded-p2":           "abb2fd63a5d3e503a8d630f5ac2d998037c2eb3f58264e7b74cfbba23afe025b",
		"complete/sharded-p3":           "5bbab88574c4a489d6b118fcce7c795d42a4203c9dee315d3a46d331d8c5cf50",
		"multigraph/flat-skip":          "4179ae354e72afb0fe380d868cfaf129ecd845cfafc474b65be8e0c9fb4b66b6",
		"multigraph/flat-noskip":        "274a89f1590109efcb85327ca29064d34ce61d1f619a3f7521ef5df6af12fb85",
		"multigraph/sharded-p1":         "e385363d4f052970a0e546d1fe82e851254c87e5385a5dda8cbd09403fe431a9",
		"multigraph/sharded-p2":         "ad19f64f5186aec0c274ab2189adbc5e51221fd6aa89f259fad3a9cbee956869",
		"multigraph/sharded-p3":         "1af697a540269cf7adc2767e268ee52216abde1fd32fb2a43cecf93e10c22be7",
	}
	for _, s := range streams {
		for _, k := range kinds {
			name := s.name + "/" + k.name
			t.Run(name, func(t *testing.T) {
				h := sha256.New()
				for _, r := range []int{1, 7, 300} {
					if k.p > r {
						continue
					}
					for _, w := range []int{1, 3, 64, len(s.edges)} {
						fmt.Fprintf(h, "r=%d w=%d\n", r, w)
						h.Write(goldenState(t, s.edges, r, w, k.p, k.opts))
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

// goldenState feeds edges in batches of w to a fresh counter (flat when
// p is 0, sharded otherwise) and returns its checkpoint bytes, after
// checking that they restore to the same bytes.
func goldenState(t *testing.T, edges []graph.Edge, r, w, p int, opts []Option) []byte {
	t.Helper()
	var c interface {
		AddBatch([]graph.Edge)
		WriteTo(io.Writer) (int64, error)
	}
	if p == 0 {
		c = NewCounter(r, 7, opts...)
	} else {
		c = NewShardedCounter(r, p, 7, opts...)
	}
	for lo := 0; lo < len(edges); lo += w {
		c.AddBatch(edges[lo:min(lo+w, len(edges))])
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var restored io.WriterTo
	var err error
	if p == 0 {
		restored, err = ReadCounterFrom(bytes.NewReader(buf.Bytes()))
	} else {
		restored, err = ReadShardedCounterFrom(bytes.NewReader(buf.Bytes()))
	}
	if err != nil {
		t.Fatalf("r=%d w=%d: restoring the state: %v", r, w, err)
	}
	if !bytes.Equal(encodeState(t, restored), buf.Bytes()) {
		t.Fatalf("r=%d w=%d: restored state re-encodes differently", r, w)
	}
	return buf.Bytes()
}
