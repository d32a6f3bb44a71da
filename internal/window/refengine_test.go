package window

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"streamtri/internal/graph"
	"streamtri/internal/randx"
)

// refCounter is the priority-chain engine this package ran before chain
// sampling, kept as the test reference. Each estimator keeps the suffix
// minima of per-edge random priorities ρ over the window, so every edge
// visits every chain. It writes the version-1 checkpoints ReadCounterFrom
// converts, and its estimates are the "before" sample of the two-sample
// check.
type refCounter struct {
	w, t uint64
	ests [][]v1Elem
	rng  *randx.Source
}

func newRefCounter(r int, w, seed uint64) *refCounter {
	return &refCounter{w: w, ests: make([][]v1Elem, r), rng: randx.New(seed)}
}

func (c *refCounter) Add(e graph.Edge) {
	c.t++
	for i := range c.ests {
		ch := c.ests[i]
		// Expire, in subtraction form: pos+w wraps for huge w.
		expired := 0
		for expired < len(ch) && c.t-ch[expired].pos >= c.w {
			expired++
		}
		ch = ch[:copy(ch, ch[expired:])]
		for j := range ch {
			if e.Adjacent(ch[j].e) {
				ch[j].observe(e, c.rng)
			}
		}
		// Insert into the suffix-minima chain: pop every tail element
		// with a priority not smaller than the new one.
		rho := c.rng.Float64()
		for len(ch) > 0 && ch[len(ch)-1].rho >= rho {
			ch = ch[:len(ch)-1]
		}
		c.ests[i] = append(ch, v1Elem{chainElem: chainElem{e: e, pos: c.t}, rho: rho})
	}
}

func (c *refCounter) EstimateTriangles() float64 {
	mw := float64(min(c.t, c.w))
	var sum float64
	for _, ch := range c.ests {
		if len(ch) > 0 && ch[0].hasT {
			sum += float64(ch[0].c) * mw
		}
	}
	return sum / float64(len(c.ests))
}

func (c *refCounter) HeadState(idx int) (pos uint64, hasT bool, ok bool) {
	if ch := c.ests[idx]; len(ch) > 0 {
		return ch[0].pos, ch[0].hasT, true
	}
	return 0, false, false
}

// v1Blob writes c as a version-1 NSTW checkpoint.
func (c *refCounter) v1Blob() []byte {
	le := binary.LittleEndian
	rngBytes, err := c.rng.MarshalBinary()
	if err != nil {
		panic(err)
	}
	var buf []byte
	buf = append(buf, serWindowMagic[:]...)
	buf = le.AppendUint32(buf, serWindowV1)
	buf = le.AppendUint64(buf, uint64(len(c.ests)))
	buf = le.AppendUint64(buf, c.w)
	buf = le.AppendUint64(buf, c.t)
	buf = le.AppendUint32(buf, uint32(len(rngBytes)))
	buf = append(buf, rngBytes...)
	for _, ch := range c.ests {
		buf = le.AppendUint32(buf, uint32(len(ch)))
		for j := range ch {
			el := &ch[j]
			buf = le.AppendUint32(buf, el.e.U)
			buf = le.AppendUint32(buf, el.e.V)
			buf = le.AppendUint64(buf, el.pos)
			buf = le.AppendUint64(buf, math.Float64bits(el.rho))
			buf = le.AppendUint64(buf, el.c)
			buf = le.AppendUint32(buf, el.r2.U)
			buf = le.AppendUint32(buf, el.r2.V)
			buf = append(buf, elemState(&el.chainElem))
		}
	}
	return buf
}

// restoreV1 converts c's version-1 checkpoint into a Counter.
func (c *refCounter) restoreV1(t testing.TB) *Counter {
	t.Helper()
	restored, err := ReadCounterFrom(bytes.NewReader(c.v1Blob()))
	if err != nil {
		t.Fatalf("restoring a version-1 checkpoint: %v", err)
	}
	return restored
}
