package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"

	"streamtri/internal/graph"
)

// Timestamped edge streams: SNAP-style temporal exports carry a numeric
// timestamp as the third column of every line, which the plain decoders
// tolerate but throw away. The timestamped decoders keep it, and
// OrderedMultiPipeline uses it to merge several sources into one
// deterministic, timestamp-ordered stream — the ingestion mode the
// sequence-defined sliding-window estimator (Section 5.2) needs when the
// input arrives sharded across files.

// TimestampedEdge is one stream edge tagged with its arrival timestamp.
// Timestamps are opaque int64 values (SNAP exports use unix seconds);
// only their order matters to the merge layer.
type TimestampedEdge struct {
	E  graph.Edge
	TS int64
}

// TimestampedSource yields timestamped edges in source order.
// NextTimestamped returns io.EOF after the last edge. Sources whose
// timestamps are nondecreasing produce globally timestamp-ordered output
// from OrderedMultiPipeline; the merge is deterministic either way.
type TimestampedSource interface {
	NextTimestamped() (TimestampedEdge, error)
}

// TimestampedBatchFiller is implemented by timestamped sources that can
// decode many edges at once; FillTimestamped mirrors BatchFiller.Fill.
type TimestampedBatchFiller interface {
	FillTimestamped(out []TimestampedEdge) (int, error)
}

// TimestampedSliceSource streams a fixed timestamped edge slice.
type TimestampedSliceSource struct {
	edges []TimestampedEdge
	pos   int
}

// NewTimestampedSliceSource returns a TimestampedSource over edges. The
// slice is not copied.
func NewTimestampedSliceSource(edges []TimestampedEdge) *TimestampedSliceSource {
	return &TimestampedSliceSource{edges: edges}
}

// NextTimestamped implements TimestampedSource.
func (s *TimestampedSliceSource) NextTimestamped() (TimestampedEdge, error) {
	if s.pos >= len(s.edges) {
		return TimestampedEdge{}, io.EOF
	}
	e := s.edges[s.pos]
	s.pos++
	return e, nil
}

// FillTimestamped implements TimestampedBatchFiller.
func (s *TimestampedSliceSource) FillTimestamped(out []TimestampedEdge) (int, error) {
	if s.pos >= len(s.edges) {
		return 0, io.EOF
	}
	n := copy(out, s.edges[s.pos:])
	s.pos += n
	return n, nil
}

// WriteTimestampedEdgeList writes edges as "u\tv\tts" lines — the
// SNAP-style temporal text format TimestampedTextSource reads back.
func WriteTimestampedEdgeList(w io.Writer, edges []TimestampedEdge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\n", e.E.U, e.E.V, e.TS); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TimestampedTextSource decodes a SNAP-style temporal edge list: the
// same line shape as TextSource, except the third column — an integer
// timestamp — is required and kept instead of discarded. Comments,
// blanks, and self loops are skipped; further trailing columns after the
// timestamp are tolerated when numeric (weights) and rejected otherwise;
// lines of any length decode. It implements TimestampedSource and
// TimestampedBatchFiller.
type TimestampedTextSource struct {
	// tx supplies the shared buffered line reader (nextLine, the spill
	// buffer, line accounting, and error decoration); only the line
	// parser differs from the plain text decoder.
	tx TextSource
}

// NewTimestampedTextSource returns a streaming TimestampedSource over a
// temporal edge list.
func NewTimestampedTextSource(r io.Reader) *TimestampedTextSource {
	return &TimestampedTextSource{tx: TextSource{br: bufio.NewReaderSize(r, textReadBuffer)}}
}

// NextTimestamped implements TimestampedSource.
func (s *TimestampedTextSource) NextTimestamped() (TimestampedEdge, error) {
	for {
		text, err := s.tx.nextLine()
		if err != nil {
			return TimestampedEdge{}, err
		}
		e, ok, perr := parseTimestampedLine(text)
		if perr != nil {
			return TimestampedEdge{}, s.tx.lineError(perr, text)
		}
		if ok {
			return e, nil
		}
	}
}

// Line returns the number of input lines consumed so far.
func (s *TimestampedTextSource) Line() int { return s.tx.line }

// FillTimestamped implements TimestampedBatchFiller: the shared
// fillWindows loop scans whole buffered windows with the fused
// three-column scanner below, falling back to parseTimestampedLine on
// any deviating line, so bulk decoding pays one function call per
// window instead of one nextLine call — and its copy bookkeeping — per
// edge. Lines longer than the read buffer fall back to the spill path.
// n may be positive alongside a parse error (the edges decoded before
// it); io.EOF is returned alone.
func (s *TimestampedTextSource) FillTimestamped(out []TimestampedEdge) (int, error) {
	return fillWindows(&s.tx, out, scanTimestampedWindow, parseTimestampedLine)
}

// scanTimestampedWindow is scanWindow's three-column sibling: it decodes
// as many consecutive hot-path lines — decimal vertex id, one space or
// tab, decimal vertex id, one space or tab, integer timestamp with an
// optional '-' sign, '\n' — from b into out as fit, one fused loop with
// no per-line calls. Return values mirror scanWindow: edges written,
// bytes consumed (always through a '\n'), lines consumed (self loops
// consume a line without writing an edge), and whether it stopped on a
// deviating line the caller must run through the full parser.
// Timestamps longer than 18 digits — which could overflow int64 — and
// every other unusual shape ('+' signs, further weight columns, CRLF,
// comments, a partial line at the window's end) are left to the caller,
// which re-derives the identical result or error from the same bytes.
func scanTimestampedWindow(b []byte, out []TimestampedEdge) (ne, adv, lines int, deviated bool) {
	i := 0
	for ne < len(out) {
		j := i
		var u, v, ts uint64
		start := j
		for j < len(b) && b[j]-'0' <= 9 {
			u = u*10 + uint64(b[j]-'0')
			j++
		}
		if j == start || j-start > 10 || u > 1<<32-1 {
			if j == len(b) {
				return ne, i, lines, false // partial number at window end
			}
			return ne, i, lines, true
		}
		if j == len(b) {
			return ne, i, lines, false
		}
		if b[j] != ' ' && b[j] != '\t' {
			return ne, i, lines, true
		}
		j++
		start = j
		for j < len(b) && b[j]-'0' <= 9 {
			v = v*10 + uint64(b[j]-'0')
			j++
		}
		if j == start || j-start > 10 || v > 1<<32-1 {
			if j == len(b) {
				return ne, i, lines, false
			}
			return ne, i, lines, true
		}
		if j == len(b) {
			return ne, i, lines, false
		}
		if b[j] != ' ' && b[j] != '\t' {
			return ne, i, lines, true
		}
		j++
		neg := j < len(b) && b[j] == '-'
		if neg {
			j++
		}
		start = j
		for j < len(b) && b[j]-'0' <= 9 {
			ts = ts*10 + uint64(b[j]-'0')
			j++
		}
		// 18 digits top out below 1<<63, so ts cannot have wrapped; longer
		// timestamps take the full parser's exact overflow check.
		if j == start || j-start > 18 {
			if j == len(b) {
				return ne, i, lines, false
			}
			return ne, i, lines, true
		}
		if j == len(b) {
			return ne, i, lines, false
		}
		if b[j] != '\n' {
			return ne, i, lines, true
		}
		i = j + 1
		lines++
		if u != v { // drop self loops, as parseTimestampedLine does
			t := int64(ts)
			if neg {
				t = -t
			}
			out[ne] = TimestampedEdge{E: graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)}, TS: t}
			ne++
		}
	}
	return ne, i, lines, false
}

// parseTimestampedLine decodes one temporal edge-list line. ok is false
// for skipped lines: comments, blanks, and self loops. Both the per-edge
// path (NextTimestamped) and the bulk path (FillTimestamped) parse
// through here, so the two are bit-identical on every input.
func parseTimestampedLine(text []byte) (te TimestampedEdge, ok bool, err error) {
	text = bytes.TrimSpace(text)
	if len(text) == 0 || text[0] == '#' || text[0] == '%' {
		return TimestampedEdge{}, false, nil
	}
	u, rest, err := parseVertexField(text)
	if err != nil {
		return TimestampedEdge{}, false, err
	}
	v, rest, err := parseVertexField(rest)
	if err != nil {
		return TimestampedEdge{}, false, err
	}
	ts, rest, err := parseTimestampField(rest)
	if err != nil {
		return TimestampedEdge{}, false, err
	}
	if err := checkTrailing(rest); err != nil {
		return TimestampedEdge{}, false, err
	}
	if u == v {
		return TimestampedEdge{}, false, nil // drop self loops
	}
	return TimestampedEdge{E: graph.Edge{U: u, V: v}, TS: ts}, true, nil
}

// parseTimestampField parses the leading integer timestamp of b —
// optional sign, decimal digits, magnitude up to math.MaxInt64 — and
// returns it with the remainder. Fractional or exponent timestamps are
// rejected: the merge layer orders by exact integer comparison, and a
// silently truncated float would reorder edges.
func parseTimestampField(b []byte) (int64, []byte, error) {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	if i == len(b) {
		return 0, nil, fmt.Errorf("want a timestamp column after the two vertex ids")
	}
	neg := false
	if b[i] == '+' || b[i] == '-' {
		neg = b[i] == '-'
		i++
	}
	// Negative magnitudes run one past MaxInt64 so MinInt64 — which the
	// binary format and the TimestampedEdge type both hold — round-trips
	// through text too.
	limit := uint64(math.MaxInt64)
	if neg {
		limit = uint64(math.MaxInt64) + 1
	}
	var n uint64
	start := i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		d := uint64(b[i] - '0')
		if n > (limit-d)/10 {
			return 0, nil, fmt.Errorf("timestamp overflows int64")
		}
		n = n*10 + d
		i++
	}
	if i == start || (i < len(b) && b[i] != ' ' && b[i] != '\t') {
		return 0, nil, fmt.Errorf("invalid timestamp")
	}
	if neg {
		return -int64(n), b[i:], nil // n == 1<<63 wraps to exactly MinInt64
	}
	return int64(n), b[i:], nil
}

// StripTimestamps adapts a TimestampedSource to a plain Source by
// discarding each edge's timestamp — the bridge for feeding temporal
// data to consumers that only care about arrival order (the source's
// own order is preserved). It implements BatchFiller: a source with an
// edges-only Fill of its own (BlockBinarySource) decodes through it,
// any other through its FillTimestamped when available. Its Close
// closes the wrapped source, if that is an io.Closer.
func StripTimestamps(src TimestampedSource) Source { return &timestampStripper{src: src} }

type timestampStripper struct {
	src     TimestampedSource
	scratch []TimestampedEdge
}

// Next implements Source.
func (s *timestampStripper) Next() (graph.Edge, error) {
	e, err := s.src.NextTimestamped()
	return e.E, err
}

// Fill implements BatchFiller.
func (s *timestampStripper) Fill(out []graph.Edge) (int, error) {
	if edges, ok := s.src.(BatchFiller); ok {
		return edges.Fill(out)
	}
	filler, bulk := s.src.(TimestampedBatchFiller)
	if !bulk {
		return fillFromSource(s, out)
	}
	if cap(s.scratch) < len(out) {
		s.scratch = make([]TimestampedEdge, len(out))
	}
	n, err := filler.FillTimestamped(s.scratch[:len(out)])
	for i := 0; i < n; i++ {
		out[i] = s.scratch[i].E
	}
	return n, err
}

// Close closes the wrapped source if it is an io.Closer.
func (s *timestampStripper) Close() error {
	if c, ok := s.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// tsFillFromSource is the per-edge fallback for timestamped sources
// without a bulk FillTimestamped method.
func tsFillFromSource(src TimestampedSource, buf []TimestampedEdge) (int, error) {
	for i := range buf {
		e, err := src.NextTimestamped()
		if err != nil {
			return i, err
		}
		buf[i] = e
	}
	return len(buf), nil
}
