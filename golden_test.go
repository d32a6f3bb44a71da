package streamtri_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"streamtri"
	"streamtri/internal/gen"
	"streamtri/internal/randx"
)

// TestPublicCounterGolden pins what the public whole-stream types do,
// call by call, against digests recorded from an earlier build.
// TestBulkStateGolden (internal/core) pins the engines; this test pins
// the intake in front of them: the Add buffer and its w = 1 branch,
// AddBatch's flush, both CountStream pipelines, the checkpoint header,
// the restore functions, Snapshot's batch-boundary view, Edges and the
// sampler's degree tracker. Each case feeds one Holme–Kim stream through
// one type at one batch size w and seed, in segments, and hashes every
// checkpoint, estimate, snapshot, edge count and sample along the way.
// A mismatch names the case that is no longer bit-identical. p no longer
// splits ParallelTriangleCounter's estimators, so its p = 2 and p = 3
// digests equal its p = 1 digests.
func TestPublicCounterGolden(t *testing.T) {
	edges := gen.HolmeKim(randx.New(2024), 3000, 4, 0.6)
	m := len(edges)
	// Segments: A is added edge by edge, B as one AddBatch, C through
	// CountStream or CountStreams, D edge by edge after a restore (or
	// through CountStreams on the sampler, which has no checkpoint).
	a, b, c, d := edges[:m/5], edges[m/5:2*m/5], edges[2*m/5:3*m/5], edges[3*m/5:]
	ctx := context.Background()

	want := map[string]string{
		"counter/w=1/seed=1":       "506334e9a2ee6e8a871a01b2f0382de7d4fd7014e690f193c29bcd1ec99c790b",
		"counter/w=1/seed=9":       "2d0af0a34493a9923ed9f87a263be6835735726639b1edf6c8ff5c214ee8b0e4",
		"counter/w=7/seed=1":       "f23c717641b0f360c236165c195036bce969de5587b39b0dadc5e030d54db330",
		"counter/w=7/seed=9":       "2ee6383603eb868d9af0724386d4e82142f710e1566fab1b52836b9913f47c8a",
		"counter/w=512/seed=1":     "b09713757f7bcbdf2b4e45f0f7114a8d895f3e6b983f0d9f1ebfc0c6a64dcd7b",
		"counter/w=512/seed=9":     "ad4187936d729bf770ade2b7f3f00bc7bd5579357333ef0ebb37de528a09529b",
		"parallel-p1/w=1/seed=1":   "d7b3dce3b54f8c40ce6613776d41addfa98cc0a14abfc438d3e3bd5d48a6bf7b",
		"parallel-p1/w=1/seed=9":   "f7efbf11b548fd01206396c20d8cb9b0159520d1791827d9df20227c49ddf30f",
		"parallel-p1/w=7/seed=1":   "b84f6e742216c7e7a06ddbff13fa3da38a88f52c62913e97be725d68c298474c",
		"parallel-p1/w=7/seed=9":   "e438559dc9ad4e1fe663cc2e5a10415e684d08098848bc2d8ec694902d0b03c6",
		"parallel-p1/w=512/seed=1": "bd014cb5e2293b55e96830474011b20ef0e9a457fcdde64df1e20662b1a17915",
		"parallel-p1/w=512/seed=9": "63237cda450d4065b5833a66ba32d52f6bf697d095c474c8ec0d0e24e8409b1f",
		"parallel-p2/w=1/seed=1":   "d7b3dce3b54f8c40ce6613776d41addfa98cc0a14abfc438d3e3bd5d48a6bf7b",
		"parallel-p2/w=1/seed=9":   "f7efbf11b548fd01206396c20d8cb9b0159520d1791827d9df20227c49ddf30f",
		"parallel-p2/w=7/seed=1":   "b84f6e742216c7e7a06ddbff13fa3da38a88f52c62913e97be725d68c298474c",
		"parallel-p2/w=7/seed=9":   "e438559dc9ad4e1fe663cc2e5a10415e684d08098848bc2d8ec694902d0b03c6",
		"parallel-p2/w=512/seed=1": "bd014cb5e2293b55e96830474011b20ef0e9a457fcdde64df1e20662b1a17915",
		"parallel-p2/w=512/seed=9": "63237cda450d4065b5833a66ba32d52f6bf697d095c474c8ec0d0e24e8409b1f",
		"parallel-p3/w=1/seed=1":   "d7b3dce3b54f8c40ce6613776d41addfa98cc0a14abfc438d3e3bd5d48a6bf7b",
		"parallel-p3/w=1/seed=9":   "f7efbf11b548fd01206396c20d8cb9b0159520d1791827d9df20227c49ddf30f",
		"parallel-p3/w=7/seed=1":   "b84f6e742216c7e7a06ddbff13fa3da38a88f52c62913e97be725d68c298474c",
		"parallel-p3/w=7/seed=9":   "e438559dc9ad4e1fe663cc2e5a10415e684d08098848bc2d8ec694902d0b03c6",
		"parallel-p3/w=512/seed=1": "bd014cb5e2293b55e96830474011b20ef0e9a457fcdde64df1e20662b1a17915",
		"parallel-p3/w=512/seed=9": "63237cda450d4065b5833a66ba32d52f6bf697d095c474c8ec0d0e24e8409b1f",
		"sampler/w=1/seed=1":       "fdf0f4b26d617db1a75395754309f30a39f6d1ea31db7645b7ce8ba7a0df33bf",
		"sampler/w=1/seed=9":       "f8084b18a80a35393438798dd01c37e825c3ce427e15b9fe886becfb28766ffc",
		"sampler/w=7/seed=1":       "757365b88671e2a030de77d0c02dd1ccb1ab93c6fcd288c0f076ab0973621e5a",
		"sampler/w=7/seed=9":       "c136b7be454e7565f22d3681c5fb5d2d9d5c115e4a23699712a86abdf0155687",
		"sampler/w=512/seed=1":     "2cb547875c70de5a68083338d81ceef1f085d663961e2122acb9b9c62aad51eb",
		"sampler/w=512/seed=9":     "e672796b02132befc8f1391bf7ba1339d1a4c643eb3b10e4e053648810b564b4",
	}
	check := func(t *testing.T, name string, h hash.Hash) {
		t.Helper()
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("digest %s, want %s", got, want[name])
		}
	}

	for _, w := range []int{1, 7, 512} {
		for _, seed := range []uint64{1, 9} {
			opts := []streamtri.Option{streamtri.WithSeed(seed), streamtri.WithBatchSize(w)}
			suffix := fmt.Sprintf("/w=%d/seed=%d", w, seed)

			t.Run("counter"+suffix, func(t *testing.T) {
				h := sha256.New()
				tc := streamtri.NewTriangleCounter(300, opts...)
				for _, e := range a {
					tc.Add(e)
				}
				hashSnapshot(h, "add", tc.Snapshot(), tc.Edges())
				tc.AddBatch(b)
				hashSnapshot(h, "addbatch", tc.Snapshot(), tc.Edges())
				st, err := tc.CountStream(ctx, streamtri.NewSliceSource(c))
				if err != nil {
					t.Fatal(err)
				}
				hashStats(h, st)
				hashSnapshot(h, "countstream", tc.Snapshot(), tc.Edges())
				ckpt := hashCheckpoint(t, h, tc)
				hashEstimates(h, tc)

				rc, err := streamtri.RestoreTriangleCounter(bytes.NewReader(ckpt))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "restored r=%d\n", rc.NumEstimators())
				hashSnapshot(h, "restored", rc.Snapshot(), rc.Edges())
				for _, e := range d {
					rc.Add(e)
				}
				hashSnapshot(h, "more-add", rc.Snapshot(), rc.Edges())
				hashEstimates(h, rc)
				hashCheckpoint(t, h, rc)
				check(t, "counter"+suffix, h)
			})

			for _, p := range []int{1, 2, 3} {
				name := fmt.Sprintf("parallel-p%d%s", p, suffix)
				t.Run(name, func(t *testing.T) {
					h := sha256.New()
					pc := streamtri.NewParallelTriangleCounter(300, p, opts...)
					for _, e := range a {
						pc.Add(e)
					}
					hashSnapshot(h, "add", pc.Snapshot(), pc.Edges())
					pc.AddBatch(b)
					hashSnapshot(h, "addbatch", pc.Snapshot(), pc.Edges())
					half := len(c) / 2
					st, err := pc.CountStreams(ctx, streamtri.NewSliceSource(c[:half]), streamtri.NewSliceSource(c[half:]))
					if err != nil {
						t.Fatal(err)
					}
					hashStats(h, st)
					hashSnapshot(h, "countstreams", pc.Snapshot(), pc.Edges())
					ckpt := hashCheckpoint(t, h, pc)
					hashEstimates(h, pc)

					rc, err := streamtri.RestoreParallelTriangleCounter(bytes.NewReader(ckpt))
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "restored p=%d\n", rc.NumShards())
					hashSnapshot(h, "restored", rc.Snapshot(), rc.Edges())
					for _, e := range d {
						rc.Add(e)
					}
					hashSnapshot(h, "more-add", rc.Snapshot(), rc.Edges())
					rc.Close()
					hashSnapshot(h, "close", rc.Snapshot(), rc.Edges())
					hashEstimates(h, rc)
					hashCheckpoint(t, h, rc)
					check(t, name, h)
				})
			}

			t.Run("sampler"+suffix, func(t *testing.T) {
				h := sha256.New()
				s := streamtri.NewTriangleSampler(400, opts...)
				for _, e := range a {
					s.Add(e)
				}
				// MaxDegree flushes the Add buffer, as the AddBatch after
				// it does, so reading it here moves no batch boundary.
				fmt.Fprintf(h, "add edges=%d maxdeg=%d\n", s.Edges(), s.MaxDegree())
				s.AddBatch(b)
				fmt.Fprintf(h, "addbatch edges=%d\n", s.Edges())
				st, err := s.CountStream(ctx, streamtri.NewSliceSource(c))
				if err != nil {
					t.Fatal(err)
				}
				hashStats(h, st)
				half := len(d) / 2
				st, err = s.CountStreams(ctx, streamtri.NewSliceSource(d[:half]), streamtri.NewSliceSource(d[half:]))
				if err != nil {
					t.Fatal(err)
				}
				hashStats(h, st)
				fmt.Fprintf(h, "end edges=%d tri=%016x\n", s.Edges(), math.Float64bits(s.EstimateTriangles()))
				sample := func(k int) {
					tris, ok := s.Sample(k)
					fmt.Fprintf(h, "sample k=%d ok=%v %v\n", k, ok, tris)
				}
				sample(3)
				sample(2)
				// About one estimator in 300 passes the acceptance test
				// here, so most draws come back short; twenty more make
				// the triangles returned, not only their count, part of
				// the digest.
				for i := 0; i < 20; i++ {
					sample(1)
				}
				fmt.Fprintf(h, "maxdeg=%d\n", s.MaxDegree())
				check(t, "sampler"+suffix, h)
			})
		}
	}
}

func hashSnapshot(h io.Writer, label string, s streamtri.EstimateSnapshot, edges uint64) {
	fmt.Fprintf(h, "%s edges=%d snap=%d %016x %016x %016x\n", label, edges, s.Edges,
		math.Float64bits(s.Triangles), math.Float64bits(s.Wedges), math.Float64bits(s.Transitivity))
}

// hashStats hashes the deterministic part of a CountStream report.
func hashStats(h io.Writer, st streamtri.StreamStats) {
	fmt.Fprintf(h, "stats edges=%d batches=%d", st.Edges, st.Batches)
	for _, ps := range st.PerSource {
		fmt.Fprintf(h, " [%d %d]", ps.Edges, ps.Batches)
	}
	fmt.Fprintln(h)
}

type estimator interface {
	EstimateTriangles() float64
	EstimateTrianglesMedianOfMeans(groups int) float64
	EstimateWedges() float64
	EstimateTransitivity() float64
}

func hashEstimates(h io.Writer, e estimator) {
	fmt.Fprintf(h, "estimates %016x %016x %016x %016x\n",
		math.Float64bits(e.EstimateTriangles()), math.Float64bits(e.EstimateTrianglesMedianOfMeans(10)),
		math.Float64bits(e.EstimateWedges()), math.Float64bits(e.EstimateTransitivity()))
}

// hashCheckpoint hashes the checkpoint c writes and returns it. The
// parallel-p1 digests were recorded from the checkpoints of a counter
// split into one shard, without the 20-byte header of their shard
// envelope after the 8-byte batch size: the checkpoint of the one
// counter it held.
func hashCheckpoint(t *testing.T, h io.Writer, c io.WriterTo) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	fmt.Fprintf(h, "checkpoint %d\n", n)
	h.Write(buf.Bytes())
	return buf.Bytes()
}

// TestPublicMethodSets pins the exported method sets of the public
// counter types, value and pointer, against lists recorded from an
// earlier build. Embedding promotes every method of the embedded type,
// so a type that shares its body with another could otherwise gain a
// method by accident, such as a WriteTo on the sampler, whose checkpoint
// would drop the degree tracker. Every method has a pointer receiver, so
// the value types have none and no entry.
func TestPublicMethodSets(t *testing.T) {
	want := map[string][]string{
		"*streamtri.TriangleCounter": {
			"Add func(graph.Edge)",
			"AddBatch func([]graph.Edge)",
			"CountStream func(context.Context, stream.Source) (streamtri.StreamStats, error)",
			"CountStreams func(context.Context, ...stream.Source) (streamtri.StreamStats, error)",
			"Edges func() uint64",
			"EstimateTransitivity func() float64",
			"EstimateTriangles func() float64",
			"EstimateTrianglesMedianOfMeans func(int) float64",
			"EstimateWedges func() float64",
			"Flush func()",
			"NumEstimators func() int",
			"Snapshot func() streamtri.EstimateSnapshot",
			"WriteTo func(io.Writer) (int64, error)",
		},
		"*streamtri.ParallelTriangleCounter": {
			"Add func(graph.Edge)",
			"AddBatch func([]graph.Edge)",
			"Close func()",
			"CountStream func(context.Context, stream.Source) (streamtri.StreamStats, error)",
			"CountStreams func(context.Context, ...stream.Source) (streamtri.StreamStats, error)",
			"Edges func() uint64",
			"EstimateTransitivity func() float64",
			"EstimateTriangles func() float64",
			"EstimateTrianglesMedianOfMeans func(int) float64",
			"EstimateWedges func() float64",
			"Flush func()",
			"NumShards func() int",
			"Snapshot func() streamtri.EstimateSnapshot",
			"WriteTo func(io.Writer) (int64, error)",
		},
		"*streamtri.TriangleSampler": {
			"Add func(graph.Edge)",
			"AddBatch func([]graph.Edge)",
			"CountStream func(context.Context, stream.Source) (streamtri.StreamStats, error)",
			"CountStreams func(context.Context, ...stream.Source) (streamtri.StreamStats, error)",
			"Edges func() uint64",
			"EstimateTriangles func() float64",
			"MaxDegree func() uint64",
			"Sample func(int) ([]graph.Triangle, bool)",
		},
		"*streamtri.SlidingWindowCounter": {
			"Add func(graph.Edge)",
			"AddBatch func([]graph.Edge)",
			"CountStream func(context.Context, stream.Source) (streamtri.StreamStats, error)",
			"CountStreams func(context.Context, ...stream.TimestampedSource) (streamtri.StreamStats, error)",
			"EstimateTriangles func() float64",
			"MeanChainLength func() float64",
			"StreamLength func() uint64",
			"WindowEdges func() uint64",
			"WriteTo func(io.Writer) (int64, error)",
		},
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(streamtri.TriangleCounter{}),
		reflect.TypeOf(streamtri.ParallelTriangleCounter{}),
		reflect.TypeOf(streamtri.TriangleSampler{}),
		reflect.TypeOf(streamtri.SlidingWindowCounter{}),
	} {
		for _, v := range []reflect.Value{reflect.New(typ).Elem(), reflect.New(typ)} {
			var got []string
			for i := 0; i < v.NumMethod(); i++ {
				got = append(got, v.Type().Method(i).Name+" "+v.Method(i).Type().String())
			}
			name := v.Type().String()
			if !reflect.DeepEqual(got, want[name]) {
				t.Errorf("%s methods:\n%s\nwant:\n%s", name, strings.Join(got, "\n"), strings.Join(want[name], "\n"))
			}
		}
	}
}
