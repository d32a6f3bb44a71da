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
	streams, kinds := goldenStreams(), goldenKinds()
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

// goldenStream is one stream of the golden tests.
type goldenStream struct {
	name  string
	edges []graph.Edge
}

// goldenKind is one counter kind of the golden tests: flat when p is 0,
// sharded into p shards otherwise.
type goldenKind struct {
	name string
	p    int
	opts []Option
}

// goldenStreams returns the golden tests' four streams: a Holme–Kim
// graph in growth order and shuffled, a complete graph, and the
// multigraph variant of the first.
func goldenStreams() []goldenStream {
	hkRNG := randx.New(101)
	growth := gen.HolmeKim(hkRNG, 300, 3, 0.7)
	return []goldenStream{
		{"holmekim-growth", growth},
		{"holmekim-shuffled", stream.Shuffle(growth, randx.New(102))},
		{"complete", gen.Complete(24)},
		{"multigraph", multigraph(growth)},
	}
}

// goldenKinds returns the golden tests' five counter kinds.
func goldenKinds() []goldenKind {
	return []goldenKind{
		{"flat-skip", 0, nil},
		{"flat-noskip", 0, []Option{WithoutLevel1Skip()}},
		{"sharded-p1", 1, nil},
		{"sharded-p2", 2, nil},
		{"sharded-p3", 3, nil},
	}
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

// TestBulkStateGoldenPaths pins the bulk path's states on the intakes
// TestBulkStateGolden leaves out, where a batch starts from a state
// that no earlier fixed-width batch left behind:
//
//   - resume: the counter is restored from its own checkpoint at every
//     batch boundary, and the restored counter is fed on;
//   - mixed: one Add of the next edge after every third AddBatch;
//   - cycled: batch widths cycle through 1, 64, 3 and 1000 within one
//     stream.
//
// The streams, counter kinds and digest scheme are TestBulkStateGolden's:
// one SHA-256 per path, stream and kind over the final WriteTo bytes of
// every r and width cycle in order.
func TestBulkStateGoldenPaths(t *testing.T) {
	paths := []struct {
		name     string
		cycles   [][]int // batch widths, cycled within the stream
		addEvery int     // one Add after every addEvery-th AddBatch; 0 for none
		resume   bool
	}{
		{"resume", [][]int{{3}, {64}}, 0, true},
		{"mixed", [][]int{{1}, {3}, {64}}, 3, false},
		{"cycled", [][]int{{1, 64, 3, 1000}}, 0, false},
	}
	want := map[string]string{
		"resume/holmekim-growth/flat-skip":     "58cd77228be8e94f91bac2fa597d0173929b262d6410bd435d28f6faa2488836",
		"resume/holmekim-growth/flat-noskip":   "e8107794ed1e0f3dcce6c3559402bcd882f86c4ddbeb703dcda3c0ced8d344de",
		"resume/holmekim-growth/sharded-p1":    "40a4982c142f1458f1c93e898478a715c6392307bb75735fa650152cfa7ebdc6",
		"resume/holmekim-growth/sharded-p2":    "b4920f6655616ee9ce3d7ec40e53c083a1ac2b965e7a0690002c63cda5e1f65d",
		"resume/holmekim-growth/sharded-p3":    "824ac2fc9bc16cb226b8a774b89b4108aad39327d1590877313988b9aa2fe780",
		"resume/holmekim-shuffled/flat-skip":   "4b2cc1563e4252ef050d545b1c1a65ab69459ffca75897c3af3ac50eb6f4d906",
		"resume/holmekim-shuffled/flat-noskip": "e15d0b222b0dc6dbd5ef578c7c58cddd9a8e693e30e9b23ee13e11ccb0b87081",
		"resume/holmekim-shuffled/sharded-p1":  "6ba79797dc6f36bfd7c5593332e2adda2b2d594eba583881e494d5a36f3e90b4",
		"resume/holmekim-shuffled/sharded-p2":  "0cec876b8f5bb822ce5e00028735895c84accbb8a94415f9d4e1d262c2f99151",
		"resume/holmekim-shuffled/sharded-p3":  "11aae46008edd47d95361498ec6a4683ea8fb5c9c4be1e53dab8062c322e6288",
		"resume/complete/flat-skip":            "b042dbe83ab54fcbfd1e899e93d66f5c52e39a49d7795a269cc33bee6377bae5",
		"resume/complete/flat-noskip":          "c69649b87cf2e2696e764cd55ef3345324a9f3c295c6b2a7da841101e9be87f9",
		"resume/complete/sharded-p1":           "776dd627850ab6efff9b5662c8a4a4313cb93d5812987e38c7680f004efb03ff",
		"resume/complete/sharded-p2":           "01c4f3be2d1df6256639a52664424873a8d6578a9c77b50fa64a2e876247b691",
		"resume/complete/sharded-p3":           "c66a681570ae9519feae72c837abbd4eef9a9e290e4f7d1c69097bc846793654",
		"resume/multigraph/flat-skip":          "7b2d3ab2af61d0bf7bd5366fafd9455424af94debbb2e7f872674c8dc4bca229",
		"resume/multigraph/flat-noskip":        "f264786ee8042d98ce44a68a070366be3008b5d6b1088ba7575e3725178096ab",
		"resume/multigraph/sharded-p1":         "9b044e3b5fd48a6bfd1ed4c5eb0b1fe8f26a26e5e14f376625bf3a152b45109a",
		"resume/multigraph/sharded-p2":         "23da2b0a7c665a9e65b7a0e32870a4d5e61ac3ba12a15c1b7b043683e7bb1063",
		"resume/multigraph/sharded-p3":         "12d008361da1b7ad24aaf379617c8c7f53a45382f93205b53b9f77c0179f7987",
		"mixed/holmekim-growth/flat-skip":      "2f3a24e754ecda6ff4d9e452eda5f08f89444b6bcc57b27edf0add95b0638749",
		"mixed/holmekim-growth/flat-noskip":    "dfb733c33fe90768fa0982b8f7a8b3eed2cf16eb304d5ef766648de933f8c6d5",
		"mixed/holmekim-growth/sharded-p1":     "9096043924de8e24d3bb66519bb9db09a796eb10e84971a0e12c7a07cded670c",
		"mixed/holmekim-growth/sharded-p2":     "1269d6c454704b275cf5788f7bcbc397a2686d44b1c30725dc298a1546a4c91e",
		"mixed/holmekim-growth/sharded-p3":     "c3c5bdf7f865b654d65b23ad4e64cc671cf9b051ce1a4467145b85cfbf75f4fb",
		"mixed/holmekim-shuffled/flat-skip":    "c654787521c6ce3fc1bd0df88ff58970f2634ad09f2752291ad6dabd06b5f909",
		"mixed/holmekim-shuffled/flat-noskip":  "ae5a974e36d8562fbcd355d06231cb30c0be22209b387ca4e7a2a5bc9abd3088",
		"mixed/holmekim-shuffled/sharded-p1":   "2b62b901e5eb0f12db486cfb7149a87473d6d3cd6ef86585f00856cca0446f4c",
		"mixed/holmekim-shuffled/sharded-p2":   "c609c9e35bcbedefc59eb433c8d54a1f7a0c8f9a0399fd84f1e0d0a534f08ced",
		"mixed/holmekim-shuffled/sharded-p3":   "bba91f26a78e34ed41fbaf15cf67b6583c66fbbbdf8393fa5f78d59106548deb",
		"mixed/complete/flat-skip":             "92a4352f99a1271265929aff2d54a7640929c12b73ae952df4155569a22ab8ac",
		"mixed/complete/flat-noskip":           "86184589482cf9749fc8970e1efcc7dbf3479de0bde22709e548c90e2789e752",
		"mixed/complete/sharded-p1":            "0c3120fe39e556252647e376aa759a58be529ab7f0f7e0424dff9f09fab2fcdb",
		"mixed/complete/sharded-p2":            "98b73e2f5e038363636bba2d9e5791e71b12a407dd643bb04cadb5e8b504bff7",
		"mixed/complete/sharded-p3":            "a065dc9a4988030da6d9725f870b66268297156cc1ccd37d452adce99ffe2d62",
		"mixed/multigraph/flat-skip":           "d7c22d9272afa721698b51507a304a79d4c4eac316b9a0b8213df2d9e83da482",
		"mixed/multigraph/flat-noskip":         "9f7c2fffdf908e477190eb5d185f7d178b48f7b71708308c4dbab083d260eaf8",
		"mixed/multigraph/sharded-p1":          "26fc0e316fcb69ca2d347891de2663fd2f1e4793fd84516e63a8d496c75cbcd3",
		"mixed/multigraph/sharded-p2":          "c20cfc47181fdabb3aaba3dc203d11c0416579878d17dcb72cbf481cff613048",
		"mixed/multigraph/sharded-p3":          "269ebd1faced63ed7f67acbab99bcf1f081ef944899b9dfaf136c31a7a4ed692",
		"cycled/holmekim-growth/flat-skip":     "c60e70be0938454a48970e24cb349e9fd63fc40896632b62f7217d4b248b2bcd",
		"cycled/holmekim-growth/flat-noskip":   "713a5be0f0d29885572c7020b3fbbe623bff90a96ef941f5095c19c2d7796c53",
		"cycled/holmekim-growth/sharded-p1":    "111ce5c3efe11c41b25b57283bb9b47d694dde25438bc48a33d2d5a284fe693f",
		"cycled/holmekim-growth/sharded-p2":    "075b7680cf74d115cf286c58612754bd1cb2c92a8fcde4bad2c3e841ef683e4e",
		"cycled/holmekim-growth/sharded-p3":    "e37292b4dba3c47c79d427edaf333f59800536d6bbc5434a1554d145d1ccfba4",
		"cycled/holmekim-shuffled/flat-skip":   "e8431acde41f001b296d0ceddc31ab98483e209f3fe27923bae63ef80aa8d4cb",
		"cycled/holmekim-shuffled/flat-noskip": "17aa651722c44884c61742bf41a9c591e4ed077b5e3b6ae72b9dc8f93838d3aa",
		"cycled/holmekim-shuffled/sharded-p1":  "3695fc9f6fccd1077d5c51e99073fb00f9d9b836a4996f2ab73900386cb7efaa",
		"cycled/holmekim-shuffled/sharded-p2":  "bf795252fdbdf6d4def537957671c2523868f4735ba60ee6efdce68d8278c840",
		"cycled/holmekim-shuffled/sharded-p3":  "28457e164767ec12b4013392ae755e80f290dab1ed894d415a66ef9ba393223e",
		"cycled/complete/flat-skip":            "9e70c5cb10485af85ac169f58888a715ed52dc3f07b30963da406e19fe161a95",
		"cycled/complete/flat-noskip":          "f543babea157c31715609d538572bd375ce87676bd36a98f018ab5c7c9effa1b",
		"cycled/complete/sharded-p1":           "ac24fb481d51f53e3068c3e0d764932fe4fbf2fe22ce6fad0f842e5e4113d5d4",
		"cycled/complete/sharded-p2":           "7ee9020ba0ca7047ace9b4d4fc647953fbe8ee8fc62ba617de26fe89dbbea0f1",
		"cycled/complete/sharded-p3":           "083752cddc96060be0f714f7b751de9b0652f82a0cb4f7120d800d1483272814",
		"cycled/multigraph/flat-skip":          "77f47869a1f2ee5b8313818ebd9799196b66360c01db166a557957a6b7d12b20",
		"cycled/multigraph/flat-noskip":        "5acbf44d708f1107e151dd604b345a534b58dcc409f60ef28f296bcc22f75fdf",
		"cycled/multigraph/sharded-p1":         "122bf61d065d72c9ed17625333e9d6bf3082a37c607a2211e45000a7f7efd977",
		"cycled/multigraph/sharded-p2":         "87b2e97ffd9cd30644040bda84c93a1f03898f6faa13f5365d357d4a85621be2",
		"cycled/multigraph/sharded-p3":         "5f1cc5d4d8b8ee00523b805a9a4c4201200c57f104f02b43a654876f7d456a97",
	}
	for _, path := range paths {
		for _, s := range goldenStreams() {
			for _, k := range goldenKinds() {
				name := path.name + "/" + s.name + "/" + k.name
				t.Run(name, func(t *testing.T) {
					h := sha256.New()
					for _, r := range []int{1, 7, 300} {
						if k.p > r {
							continue
						}
						for _, widths := range path.cycles {
							fmt.Fprintf(h, "r=%d w=%v\n", r, widths)
							h.Write(goldenPathState(t, s.edges, r, k, widths, path.addEvery, path.resume))
						}
					}
					if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
						t.Errorf("state digest %s, want %s", got, want[name])
					}
				})
			}
		}
	}
}

// goldenCounter is the intake the golden paths drive, common to Counter
// and ShardedCounter.
type goldenCounter interface {
	Add(graph.Edge)
	AddBatch([]graph.Edge)
	WriteTo(io.Writer) (int64, error)
}

// goldenPathState feeds edges to a fresh counter of kind k in batches
// whose widths cycle through widths, with an Add of the next edge after
// every addEvery-th batch (none when addEvery is 0). When resume is set,
// the counter is replaced at every batch boundary by one restored from
// its checkpoint. It returns the final checkpoint bytes.
func goldenPathState(t *testing.T, edges []graph.Edge, r int, k goldenKind, widths []int, addEvery int, resume bool) []byte {
	t.Helper()
	var c goldenCounter
	if k.p == 0 {
		c = NewCounter(r, 7, k.opts...)
	} else {
		c = NewShardedCounter(r, k.p, 7, k.opts...)
	}
	for lo, n := 0, 1; lo < len(edges); n++ {
		hi := min(lo+widths[(n-1)%len(widths)], len(edges))
		c.AddBatch(edges[lo:hi])
		lo = hi
		if addEvery > 0 && n%addEvery == 0 && lo < len(edges) {
			c.Add(edges[lo])
			lo++
		}
		if resume {
			c = restoreState(t, c)
		}
	}
	return encodeState(t, c)
}
