// Command graphgen emits synthetic edge streams in SNAP-style edge-list
// format — the generators behind the experiment datasets, exposed for ad
// hoc use and for feeding cmd/trict.
//
// Usage:
//
//	graphgen -kind holmekim -n 10000 -mper 5 -ptriad 0.7 > graph.txt
//	graphgen -kind syn3reg                        # the paper's Table 1 graph
//	graphgen -kind er -n 1000 -m 5000 -shuffle
//	graphgen -kind dataset -name livejournal-sim  # an experiment stand-in
//	graphgen -kind er -format binary > graph.bin  # 8-bytes-per-edge binary
//	graphgen -kind holmekim -timestamps > t.txt   # temporal "u v ts" lines
//	graphgen -kind er -format binary2 > g.bin2    # block-structured v2 (timestamped)
//
//	# deal one temporal stream round-robin into 8 pre-sharded files
//	# (t.000 … t.007), the reproducible input for a large-k ordered
//	# merge: trict -window -i t.000 -i t.001 … reassembles it exactly
//	graphgen -kind holmekim -timestamps -shards 8 -o t
//
// Kinds: er, holmekim, ba, syn3reg, clustered, hub, planted, complete,
// dataset.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"streamtri/internal/bench"
	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

func main() {
	kind := flag.String("kind", "holmekim", "generator: er|holmekim|ba|syn3reg|clustered|hub|planted|complete|dataset")
	n := flag.Int("n", 1000, "vertices (er, holmekim, ba, complete)")
	m := flag.Int("m", 5000, "edges (er)")
	mPer := flag.Int("mper", 3, "edges per new vertex (holmekim, ba)")
	pTriad := flag.Float64("ptriad", 0.5, "triad-formation probability (holmekim)")
	k4 := flag.Int("k4", 125, "K4 gadgets (syn3reg)")
	prisms := flag.Int("prisms", 250, "prism gadgets (syn3reg)")
	clusters := flag.Int("clusters", 100, "clusters (clustered)")
	csize := flag.Int("csize", 100, "cluster size (clustered)")
	p := flag.Float64("p", 0.5, "edge probability (clustered) / close prob (hub)")
	hubs := flag.Int("hubs", 20, "hub count (hub)")
	leaves := flag.Int("leaves", 1000, "leaves per hub (hub)")
	tri := flag.Int("triangles", 100, "planted triangles (planted)")
	name := flag.String("name", "", "dataset name (dataset kind); see cmd/experiments fig3")
	seed := flag.Uint64("seed", 1, "random seed")
	shuffle := flag.Bool("shuffle", false, "randomize the arrival order")
	format := flag.String("format", "text", "output format: text|binary|binary2 (binary is cmd/trict's fast path; binary2 is the block-structured checksummed v2 format, always timestamped)")
	timestamps := flag.Bool("timestamps", false, "emit temporal streams: strictly increasing synthetic timestamps as the third text column, or the versioned timestamped binary format (feeds trict -window multi-input runs; implied by -format binary2)")
	shards := flag.Int("shards", 1, "deal the stream round-robin into this many pre-sharded output files (needs -o; with -timestamps the ordered merge of the shards reproduces the stream exactly, without it the shards feed whole-stream multi-file ingestion)")
	outPath := flag.String("o", "", "output file (default stdout); with -shards k > 1, the prefix of k files named <o>.000 … <o>.NNN")
	flag.Parse()

	rng := randx.New(*seed)
	var edges []graph.Edge
	switch *kind {
	case "er":
		edges = gen.ER(rng, *n, *m)
	case "holmekim":
		edges = gen.HolmeKim(rng, *n, *mPer, *pTriad)
	case "ba":
		edges = gen.BarabasiAlbert(rng, *n, *mPer)
	case "syn3reg":
		edges = gen.Syn3Reg(*k4, *prisms)
	case "clustered":
		edges = gen.ClusteredRegular(rng, *clusters, *csize, *p)
	case "hub":
		edges = gen.HubGraph(rng, *hubs, *leaves, *p)
	case "planted":
		edges = gen.PlantedTriangles(rng, *tri, 10*(*tri), 2*(*tri))
	case "complete":
		edges = gen.Complete(*n)
	case "dataset":
		d := bench.Get(*name)
		if d == nil {
			fmt.Fprintf(os.Stderr, "graphgen: unknown dataset %q\n", *name)
			os.Exit(2)
		}
		edges = d.Edges()
	default:
		fmt.Fprintf(os.Stderr, "graphgen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
	if *shuffle {
		edges = stream.Shuffle(edges, randx.Split(*seed, 0x0BDE))
	}
	if *format != "text" && *format != "binary" && *format != "binary2" {
		fmt.Fprintf(os.Stderr, "graphgen: unknown format %q\n", *format)
		os.Exit(2)
	}
	if *format == "binary2" {
		// The v2 block format carries a timestamp per record by design.
		*timestamps = true
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "graphgen: -shards %d must be at least 1\n", *shards)
		os.Exit(2)
	}
	if *shards > 1 && *outPath == "" {
		fmt.Fprintln(os.Stderr, "graphgen: -shards needs -o: k shard files cannot share stdout")
		os.Exit(2)
	}

	var temporal []stream.TimestampedEdge
	if *timestamps {
		// Synthetic arrival times: strictly increasing with seeded random
		// gaps, the shape of a sorted SNAP temporal export. Strict
		// increase matters for -shards: the ordered merge breaks
		// timestamp ties by source index, so tied edges dealt across a
		// shard boundary would legitimately come back reordered — unique
		// timestamps make the reassembly exact. A Split stream keeps the
		// timestamps from perturbing the graph generation draw.
		trng := randx.Split(*seed, 0x7157)
		ts := int64(1_700_000_000)
		temporal = make([]stream.TimestampedEdge, len(edges))
		for i, e := range edges {
			ts += 1 + int64(trng.Uint64N(3))
			temporal[i] = stream.TimestampedEdge{E: e, TS: ts}
		}
	}

	var err error
	if *shards == 1 {
		err = emit(*outPath, *format, *timestamps, edges, temporal)
	} else {
		// Deal round-robin by stream position, preserving order within
		// each shard — the layout whose ordered merge (trict -window
		// with one -i per file) reproduces the original stream exactly.
		for s := 0; s < *shards && err == nil; s++ {
			var se []graph.Edge
			var st []stream.TimestampedEdge
			for i := s; i < len(edges); i += *shards {
				if *timestamps {
					st = append(st, temporal[i])
				} else {
					se = append(se, edges[i])
				}
			}
			err = emit(fmt.Sprintf("%s.%03d", *outPath, s), *format, *timestamps, se, st)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

// emit writes one output stream — plain or temporal, text or binary —
// to path, or to stdout when path is empty.
func emit(path, format string, timestamps bool, edges []graph.Edge, temporal []stream.TimestampedEdge) error {
	write := func(w io.Writer) error {
		out := bufio.NewWriter(w)
		var err error
		switch {
		case format == "binary2":
			err = stream.WriteBlockBinaryEdges(out, temporal)
		case timestamps && format == "text":
			err = stream.WriteTimestampedEdgeList(out, temporal)
		case timestamps:
			err = stream.WriteTimestampedBinaryEdges(out, temporal)
		case format == "text":
			err = stream.WriteEdgeList(out, edges)
		default:
			err = stream.WriteBinaryEdges(out, edges)
		}
		if err != nil {
			return err
		}
		return out.Flush()
	}
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
