package window

import (
	"fmt"
	"slices"
)

// CheckChainInvariant checks the chain invariant the decoder enforces and
// that the calendar, the vertex index and its filter, which the engine
// derives from the chains, agree with them: every live element listed
// under each of its endpoints once, lists in position order with their
// dead counted, each filter slot counting the index keys that hash to it
// with at least filterSlotsPerKey slots per key, and one calendar entry
// per estimator at its next event.
func (c *Counter) CheckChainInvariant() error {
	if err := c.checkChainInvariant(); err != nil {
		return err
	}
	counts := make([]uint32, len(c.filter.counts))
	for v := range c.adj {
		counts[c.filter.slot(v)]++
	}
	if !slices.Equal(counts, c.filter.counts) || filterSlotsPerKey*len(c.adj) > len(counts) {
		return fmt.Errorf("vertex filter of %d slots does not count the index's %d keys by slot", len(counts), len(c.adj))
	}
	seen := make(map[*chainElem]int)
	for v, l := range c.adj {
		dead := 0
		for k, el := range l.elems {
			if !el.e.Has(v) || (k > 0 && l.elems[k-1].pos > el.pos) {
				return fmt.Errorf("vertex index list of %d out of order or holding a non-incident edge", v)
			}
			if el.dropped {
				dead++
			} else {
				seen[el]++
			}
		}
		if dead != l.dead || 2*dead >= len(l.elems) {
			return fmt.Errorf("vertex index list of %d holds %d dead of %d elements, counted %d", v, dead, len(l.elems), l.dead)
		}
	}
	for idx := range c.ests {
		for i, el := range c.ests[idx].chain {
			want := 2
			if el.e.V == el.e.U {
				want = 1
			}
			if seen[el] != want {
				return fmt.Errorf("estimator %d: chain[%d] indexed %d times, want %d", idx, i, seen[el], want)
			}
			delete(seen, el)
		}
	}
	if len(seen) != 0 {
		return fmt.Errorf("vertex index holds %d elements outside every chain", len(seen))
	}
	due := make([]bool, len(c.ests))
	for _, ev := range c.cal {
		if due[ev.est] || ev.at != c.dueAt(ev.est) {
			return fmt.Errorf("estimator %d: calendar entry at %d, next event at %d", ev.est, ev.at, c.dueAt(ev.est))
		}
		due[ev.est] = true
	}
	if len(c.cal) != len(c.ests) {
		return fmt.Errorf("calendar holds %d entries for %d estimators", len(c.cal), len(c.ests))
	}
	return nil
}

// HeadState exposes the head element of estimator idx for white-box
// distribution tests: its edge position and whether it holds a triangle.
func (c *Counter) HeadState(idx int) (pos uint64, hasT bool, ok bool) {
	h := c.ests[idx].head()
	if h == nil {
		return 0, false, false
	}
	return h.pos, h.hasT, true
}
