package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"

	"streamtri"
)

// rngFor returns the generator for one stream of one workload and seed:
// the same (workload, seed, stream) always yields the same numbers.
func rngFor(workload string, seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s", workload, stream)
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// holmeKim returns the first m edges, in growth order, of a Holme–Kim
// graph (Holme & Kim 2002): every new vertex links to mPer distinct
// earlier vertices; each link is a preferential-attachment (PA) step,
// and after a PA step to w, with probability pTriad the next link is a
// triad-formation step to a random neighbour of w, closing a triangle.
// The result is a simple graph with a power-law degree tail and many
// triangles.
//
// Degree-proportional sampling picks a uniform entry of the endpoint
// list, which stores every edge as two adjacent entries. Given the
// chosen entry, its partner is a uniform random neighbour of the chosen
// vertex, so the triad step needs no adjacency lists: one random memory
// access per PA step is all, several times faster than
// internal/gen.HolmeKim. The benchmark generates tens of millions of
// edges per seed.
func holmeKim(rng *rand.Rand, m, mPer int, pTriad float64) []streamtri.Edge {
	m0 := mPer + 1
	edges := make([]streamtri.Edge, 0, m+m0*m0)
	endpoints := make([]uint32, 0, 2*cap(edges))
	add := func(u, v uint32) {
		edges = append(edges, streamtri.Edge{U: u, V: v})
		endpoints = append(endpoints, u, v)
	}
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			add(uint32(u), uint32(v))
		}
	}
	linked := make([]uint32, 0, mPer)
	for v := uint32(m0); len(edges) < m; v++ {
		linked = linked[:0]
		triad := -1 // endpoint entry of the last PA target, when a triad step may follow
		for len(linked) < mPer {
			var target uint32
			if triad >= 0 && rng.Float64() < pTriad {
				target = endpoints[triad^1]
				triad = -1
				if target == v || contains(linked, target) {
					continue // no pair to close: a PA step instead
				}
			} else {
				triad = -1
				j := rng.IntN(len(endpoints))
				target = endpoints[j]
				if target == v || contains(linked, target) {
					continue
				}
				triad = j
			}
			linked = append(linked, target)
			add(v, target)
		}
	}
	return edges[:m]
}

func contains(s []uint32, x uint32) bool {
	for _, y := range s {
		if y == x {
			return true
		}
	}
	return false
}

// bodyFormat is the wire encoding of ingest POST bodies.
type bodyFormat int

const (
	formatText  bodyFormat = iota // "u v" lines
	formatPlain                   // plain binary, 8 bytes per edge
	formatBlock                   // v2 block binary (STRTSB02)
)

func (f bodyFormat) String() string {
	return [...]string{"text", "plain-binary", "v2-block"}[f]
}

func (f bodyFormat) contentType() string {
	if f == formatText {
		return "text/plain"
	}
	return "application/octet-stream"
}

// encodeBody renders one POST body. firstTS numbers the v2 block
// records; the server strips timestamps, so only the bytes change.
func encodeBody(f bodyFormat, edges []streamtri.Edge, firstTS int64) []byte {
	switch f {
	case formatText:
		b := make([]byte, 0, 15*len(edges))
		for _, e := range edges {
			b = strconv.AppendUint(b, uint64(e.U), 10)
			b = append(b, ' ')
			b = strconv.AppendUint(b, uint64(e.V), 10)
			b = append(b, '\n')
		}
		return b
	case formatPlain:
		var buf bytes.Buffer
		buf.Grow(8 * len(edges))
		if err := streamtri.WriteBinaryEdges(&buf, edges); err != nil {
			panic(err) // bytes.Buffer writes cannot fail
		}
		return buf.Bytes()
	default:
		ts := make([]streamtri.TimestampedEdge, len(edges))
		for i, e := range edges {
			ts[i] = streamtri.TimestampedEdge{E: e, TS: firstTS + int64(i)}
		}
		var buf bytes.Buffer
		if err := streamtri.WriteBlockBinaryEdges(&buf, ts); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
}
