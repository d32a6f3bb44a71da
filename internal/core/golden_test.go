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
// through. Every state must also restore from its own bytes. The
// sharded kinds pin the restore of the checkpoints earlier builds wrote
// for a counter split into shards: with one shard the state is the one
// that counter reached, byte for byte (their digests were recorded from
// the sharded counter's checkpoints without the envelope's header).
func TestBulkStateGolden(t *testing.T) {
	streams, kinds := goldenStreams(), goldenKinds()
	want := map[string]string{
		"holmekim-growth/flat-skip":     "57969039fa312e3736fd941e462070e7af7e54dc5c99093ed514d5e6b3e00b15",
		"holmekim-growth/flat-noskip":   "8790a16fad596e92d0ab8c16e9e1f10fd0475dcc4d19089522a0ab6a33eae307",
		"holmekim-growth/sharded-p1":    "d0320c8e811ec1a9de1155323e695086cd702fba08665d8264d841d43d15e310",
		"holmekim-growth/sharded-p2":    "7a9820029e69cd942e315adb9cbf3a8f9794672d9346a8f16b45d45f1f846c14",
		"holmekim-growth/sharded-p3":    "57269eb2faf4c8a215207af945eaef9896500928f742455736f336817fa6b954",
		"holmekim-shuffled/flat-skip":   "101008850e11eceaa8bce7d2a8a627eaee815db0bdefc756d61700b9f887f5c5",
		"holmekim-shuffled/flat-noskip": "b5984b778e6ef58fda4bd8b55333fa7da7a33a93296f025d29f613a48eeb39a8",
		"holmekim-shuffled/sharded-p1":  "cca5f304dbe1dad7100901f30fc207e3581ab1ad441050ea9a40e0c6d2bcf3ee",
		"holmekim-shuffled/sharded-p2":  "de5f648f7b2943ffcf6b5fc663beef4d8b574fb69ad490eec297ee0f3b83f94e",
		"holmekim-shuffled/sharded-p3":  "eba375b540d2bee071d35577a135e1e29ffca1a6fcf30abba9fca8c8492803a4",
		"complete/flat-skip":            "11bd20fef934dd9b70eeb513f68fe7f26cd6c6071d082bcf6a07fa5fbb71df5b",
		"complete/flat-noskip":          "42c4b9c72de351464eded2a6441c44653f2a50ab8b64a7d70b54758893df172c",
		"complete/sharded-p1":           "6cc9e5f0bbed9e88decb7d4b9b67ee94415d1270d58e0fa9d00a03d67902f67a",
		"complete/sharded-p2":           "4775d17ddd68b69746cab7b1e193defded5ef603a8a64faf50273a0f43706bb9",
		"complete/sharded-p3":           "24e0df64130894c19e0e0aca0f3bfcd9f3af400b4c9a6522a9edb9807cf12d6a",
		"multigraph/flat-skip":          "4179ae354e72afb0fe380d868cfaf129ecd845cfafc474b65be8e0c9fb4b66b6",
		"multigraph/flat-noskip":        "274a89f1590109efcb85327ca29064d34ce61d1f619a3f7521ef5df6af12fb85",
		"multigraph/sharded-p1":         "06cd4087b3b81bf401d6c60659e6b5dc49becf68172a79022bfdf0455746b004",
		"multigraph/sharded-p2":         "d4fcf9d46883f2ba4b06717e927cd4055c58a47ea24f7b5101e6f15daa9d500f",
		"multigraph/sharded-p3":         "5b4213d67ac532b040c90064bf20dca15a9d2a6725b516c536cf5afb1906a0a0",
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
						h.Write(goldenState(t, s.edges, r, w, k))
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
					t.Errorf("state digest %s, want %s", got, want[name])
				}
			})
		}
	}
}

// TestBulkStateGoldenWide pins the bulk path's states on batches wider
// than the other golden tests reach (about 900 edges there): a
// Holme–Kim stream of about 20,000 edges, in growth order and shuffled,
// the multigraph variant of the first, and a complete graph on 100
// vertices, at widths on either side of 2,048 and 8,192, and the whole
// stream in one batch. On the last two, more than 2,048 positions of
// one batch can hold a pair an open wedge waits for. The digest scheme
// is TestBulkStateGolden's, one per stream and level-1 setting.
func TestBulkStateGoldenWide(t *testing.T) {
	growth := gen.HolmeKim(randx.New(103), 4000, 5, 0.6)
	streams := []goldenStream{
		{"holmekim-growth", growth},
		{"holmekim-shuffled", stream.Shuffle(growth, randx.New(104))},
		{"multigraph", multigraph(growth)},
		{"complete", gen.Complete(100)},
	}
	want := map[string]string{
		"holmekim-growth/flat-skip":     "48ab83c42da732d3731d5003ec77f5f0ddcda7d352f33467ab7d96bd77dd181f",
		"holmekim-growth/flat-noskip":   "95bed28b65f7e0be81e03bf67fe80301f5c853d50f9c83444ad1973c29a8754c",
		"holmekim-shuffled/flat-skip":   "18fde8a7d1753b6e291148e6bb6584be8cffcc2e540ae4c6ed28db8d055c7099",
		"holmekim-shuffled/flat-noskip": "48ff9566c0e50c83f3c0a625944de95a6f904214fb7a4ffdea1f93b26adebda3",
		"multigraph/flat-skip":          "229e80823f88dcd4025db682fa970e9e0cd0f115e27aa7d5ade7986494297913",
		"multigraph/flat-noskip":        "cefdd6c838f6889f3b672c93400392e202fade3d56dce695934effa6e25c492a",
		"complete/flat-skip":            "3383a9ea2e982a1f32345cd60fe6ffae2c70d6f2216dc33a8fbf1843fe981277",
		"complete/flat-noskip":          "24ce8ac857774019f1e2806c95f0724753f312fd0d3a4279d419e34b5343989a",
	}
	for _, s := range streams {
		for _, k := range goldenKinds()[:2] {
			name := s.name + "/" + k.name
			t.Run(name, func(t *testing.T) {
				h := sha256.New()
				for _, r := range []int{7, 300, 4096} {
					for _, w := range []int{2047, 2048, 2049, 8191, len(s.edges)} {
						fmt.Fprintf(h, "r=%d w=%d\n", r, w)
						h.Write(goldenState(t, s.edges, r, w, k))
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

// goldenKind is one counter kind of the golden tests: a Counter when p
// is 0; otherwise p shards (shardSet) that take the first half of the
// stream, and the one Counter their checkpoint restores as, which takes
// the rest.
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

// goldenState feeds edges in batches of w to a fresh counter of kind k
// and returns its checkpoint bytes, after checking that they restore to
// the same bytes.
func goldenState(t *testing.T, edges []graph.Edge, r, w int, k goldenKind) []byte {
	t.Helper()
	c := newGoldenCounter(r, k)
	for lo := 0; lo < len(edges); {
		hi := min(lo+w, len(edges))
		c.AddBatch(edges[lo:hi])
		lo = hi
		c = restoreShardsAtHalf(t, c, lo, len(edges))
	}
	ckpt := encodeState(t, c)
	restored, err := ReadCounterFrom(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatalf("r=%d w=%d: restoring the state: %v", r, w, err)
	}
	if !bytes.Equal(encodeState(t, restored), ckpt) {
		t.Fatalf("r=%d w=%d: restored state re-encodes differently", r, w)
	}
	return ckpt
}

// newGoldenCounter returns a fresh counter of kind k with r estimators.
func newGoldenCounter(r int, k goldenKind) goldenCounter {
	if k.p == 0 {
		return NewCounter(r, 7, k.opts...)
	}
	return newShardSet(r, k.p, 7, k.opts...)
}

// restoreShardsAtHalf returns the Counter that c's checkpoint restores
// as, if c is a shardSet fed lo edges, at least half of a stream of m;
// otherwise c.
func restoreShardsAtHalf(t *testing.T, c goldenCounter, lo, m int) goldenCounter {
	t.Helper()
	if _, ok := c.(shardSet); ok && 2*lo >= m {
		return restoreState(t, c)
	}
	return c
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
		"resume/holmekim-growth/sharded-p1":    "6e8d3768e0910f243cab65d591a3b912e2ce1c03c1f8c706f25fe1b8ea48a38e",
		"resume/holmekim-growth/sharded-p2":    "86d9ff0b7fe1b4367f1101747079f0f4014995bf34a9435170ca32f01d4207ca",
		"resume/holmekim-growth/sharded-p3":    "c0fc426df970d1188589beea02603ba2fe5f2f423227f55e61a518568b4ef1d9",
		"resume/holmekim-shuffled/flat-skip":   "4b2cc1563e4252ef050d545b1c1a65ab69459ffca75897c3af3ac50eb6f4d906",
		"resume/holmekim-shuffled/flat-noskip": "e15d0b222b0dc6dbd5ef578c7c58cddd9a8e693e30e9b23ee13e11ccb0b87081",
		"resume/holmekim-shuffled/sharded-p1":  "3ff4db675e315143807b61473d14b2e185305b99c6230ae8bdf4ec8a0d3db53a",
		"resume/holmekim-shuffled/sharded-p2":  "7d5ff3ec80aa2a24d7a522db760b68e073dc03b70a226ed4bae2816b7a188476",
		"resume/holmekim-shuffled/sharded-p3":  "1ee2639e595337c574b0ac2cd3004cb0f2be9e7630bfa7d01cec138cc97d1cda",
		"resume/complete/flat-skip":            "b042dbe83ab54fcbfd1e899e93d66f5c52e39a49d7795a269cc33bee6377bae5",
		"resume/complete/flat-noskip":          "c69649b87cf2e2696e764cd55ef3345324a9f3c295c6b2a7da841101e9be87f9",
		"resume/complete/sharded-p1":           "ce076106fb4a1461a34bc08c0f6a82426545127e3a4b647a309b2114304b78d1",
		"resume/complete/sharded-p2":           "51d8dd52412dd3dbb0b48c136514ca6198499b77e0d780ca9b9e106e0af10c82",
		"resume/complete/sharded-p3":           "a2df7d79a823c76cf7759fa94c0fec67f746c0787d28a7a32a0ae3541b84e99f",
		"resume/multigraph/flat-skip":          "7b2d3ab2af61d0bf7bd5366fafd9455424af94debbb2e7f872674c8dc4bca229",
		"resume/multigraph/flat-noskip":        "f264786ee8042d98ce44a68a070366be3008b5d6b1088ba7575e3725178096ab",
		"resume/multigraph/sharded-p1":         "024851545a09ad1529a99c157c91347ef99dfc43d6555d1607153c3e7fd0d118",
		"resume/multigraph/sharded-p2":         "8dc52325ef95e7b2887e5bbe17860dbf3691b1428bc8e7e05a0751f2459e5641",
		"resume/multigraph/sharded-p3":         "04710a55cf860f64e13c5eef8fc3da7531f4397299f8026485763720b38985cf",
		"mixed/holmekim-growth/flat-skip":      "2f3a24e754ecda6ff4d9e452eda5f08f89444b6bcc57b27edf0add95b0638749",
		"mixed/holmekim-growth/flat-noskip":    "dfb733c33fe90768fa0982b8f7a8b3eed2cf16eb304d5ef766648de933f8c6d5",
		"mixed/holmekim-growth/sharded-p1":     "6fc9752944519ad09e49282d1d4925807553bfb9693ea3b09114aa687f414151",
		"mixed/holmekim-growth/sharded-p2":     "3fbb875ecc655a94137fdb634699959b4b1ce8cd8d2d5b4c9c8ca96f17b3c65b",
		"mixed/holmekim-growth/sharded-p3":     "04bf8266f895f52c53e1b31fbd5467682c273f1cf4ffa4202c2d26fee1fdac96",
		"mixed/holmekim-shuffled/flat-skip":    "c654787521c6ce3fc1bd0df88ff58970f2634ad09f2752291ad6dabd06b5f909",
		"mixed/holmekim-shuffled/flat-noskip":  "ae5a974e36d8562fbcd355d06231cb30c0be22209b387ca4e7a2a5bc9abd3088",
		"mixed/holmekim-shuffled/sharded-p1":   "82628c4f4ed5e9f99e7997c1d44acaa557ff1cb4237a51b3feae94df9385047b",
		"mixed/holmekim-shuffled/sharded-p2":   "4d8738a29c9c4c158486091fe3bd09945da1b2ebf9cd8fd8593648f9ac99b32b",
		"mixed/holmekim-shuffled/sharded-p3":   "633f48dff65ebbeed525eb0b6fbf59d7b0af1817679af977bc07cf6236622c5b",
		"mixed/complete/flat-skip":             "92a4352f99a1271265929aff2d54a7640929c12b73ae952df4155569a22ab8ac",
		"mixed/complete/flat-noskip":           "86184589482cf9749fc8970e1efcc7dbf3479de0bde22709e548c90e2789e752",
		"mixed/complete/sharded-p1":            "c9dae8d6b0f15544cd35e7964735674cec140e2861b0b495950504d992273c79",
		"mixed/complete/sharded-p2":            "27c528aaa0eb5eac8d0ebad2b14a90d3ae1ff9fb56647b72b99845632a0dbec4",
		"mixed/complete/sharded-p3":            "15d18e190eb51d79a90d745614c12f39dbb7d35e190954916cacd0d6d8f0c91d",
		"mixed/multigraph/flat-skip":           "d7c22d9272afa721698b51507a304a79d4c4eac316b9a0b8213df2d9e83da482",
		"mixed/multigraph/flat-noskip":         "9f7c2fffdf908e477190eb5d185f7d178b48f7b71708308c4dbab083d260eaf8",
		"mixed/multigraph/sharded-p1":          "05b3bc57f0620684ddb0f5da495e67e836f9322057d984d5a1257eab4f65c3c7",
		"mixed/multigraph/sharded-p2":          "396ed1358603d099909ce4d7818066abf0044b2003dd64860b428faaedfdb4ee",
		"mixed/multigraph/sharded-p3":          "1c9be0719a1b340a4902e14f4e47d605ced26ff594d78942c0fcef17556e95da",
		"cycled/holmekim-growth/flat-skip":     "c60e70be0938454a48970e24cb349e9fd63fc40896632b62f7217d4b248b2bcd",
		"cycled/holmekim-growth/flat-noskip":   "713a5be0f0d29885572c7020b3fbbe623bff90a96ef941f5095c19c2d7796c53",
		"cycled/holmekim-growth/sharded-p1":    "386343977808ac4214ac08e27d77a0357ff829ab4fe9fe65e543df8b4e55ed0a",
		"cycled/holmekim-growth/sharded-p2":    "2f53fb4a7a062b3f84704a8142f5f6457efb4ec149a4b61b8181b08c67585c72",
		"cycled/holmekim-growth/sharded-p3":    "8d8b3074303ee938359e62301155967527eb511e7c1d72b1738f709a0b0a8bac",
		"cycled/holmekim-shuffled/flat-skip":   "e8431acde41f001b296d0ceddc31ab98483e209f3fe27923bae63ef80aa8d4cb",
		"cycled/holmekim-shuffled/flat-noskip": "17aa651722c44884c61742bf41a9c591e4ed077b5e3b6ae72b9dc8f93838d3aa",
		"cycled/holmekim-shuffled/sharded-p1":  "59bbd36d7bd1bec79a45bf6f5eeff84485aa05697b47d76a4d74a7fd9eca6061",
		"cycled/holmekim-shuffled/sharded-p2":  "a91ce1b41a7282fd124822defc03153dfe10e57c844a29eadf47f603bedaa421",
		"cycled/holmekim-shuffled/sharded-p3":  "add3cf465555759b4c495e12e3897cc30ee523c67bd0ab9f001deca64a10e8e2",
		"cycled/complete/flat-skip":            "9e70c5cb10485af85ac169f58888a715ed52dc3f07b30963da406e19fe161a95",
		"cycled/complete/flat-noskip":          "f543babea157c31715609d538572bd375ce87676bd36a98f018ab5c7c9effa1b",
		"cycled/complete/sharded-p1":           "2daf0603b968c6d3525969fb1de28957ae847c77fadd7eee2a9346836743af4b",
		"cycled/complete/sharded-p2":           "87753db93254238b0a8af272e9902046d461d32bdb4e3505e60e478acf2965ab",
		"cycled/complete/sharded-p3":           "f48ba9822bd04cfeaff2b0a79623f00719ed8a48c6d8e76c7000418ae3b64486",
		"cycled/multigraph/flat-skip":          "77f47869a1f2ee5b8313818ebd9799196b66360c01db166a557957a6b7d12b20",
		"cycled/multigraph/flat-noskip":        "5acbf44d708f1107e151dd604b345a534b58dcc409f60ef28f296bcc22f75fdf",
		"cycled/multigraph/sharded-p1":         "2929081422daab8a4ace4b18f9f2bf353f4d6d0f055680c310009c8251aa7069",
		"cycled/multigraph/sharded-p2":         "7b3b84ec091060716a107e9b15ecbee64d6e99dfe3360d1da7797d60eaa96132",
		"cycled/multigraph/sharded-p3":         "d19a751a813001187366a9267c7f6010ad34e04d461b740b94d54c9ad793eed4",
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
// and shardSet.
type goldenCounter interface {
	Add(graph.Edge)
	AddBatch([]graph.Edge)
	WriteTo(io.Writer) (int64, error)
}

// goldenPathState feeds edges to a fresh counter of kind k in batches
// whose widths cycle through widths, with an Add of the next edge after
// every addEvery-th batch (none when addEvery is 0). When resume is set,
// the counter is replaced at every batch boundary by one restored from
// its checkpoint, so shards are restored as one Counter after the first
// batch. It returns the final checkpoint bytes.
func goldenPathState(t *testing.T, edges []graph.Edge, r int, k goldenKind, widths []int, addEvery int, resume bool) []byte {
	t.Helper()
	c := newGoldenCounter(r, k)
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
		c = restoreShardsAtHalf(t, c, lo, len(edges))
	}
	return encodeState(t, c)
}
