package core

import (
	"bytes"
	"sync"
	"testing"

	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
	"streamtri/internal/stream"
)

// TestSharedTablesInterleavedAndParallel runs counters of every (r, w)
// in a grid over one stream two ways: their batches interleaved on one
// goroutine, so each AddBatch borrows the table set the previous one,
// of another counter and another size, handed back; and each counter on
// a goroutine of its own, so several sets are out at once. Each counter
// must end with the WriteTo bytes it has when run alone: nothing a set
// held for one batch may reach another's states.
func TestSharedTablesInterleavedAndParallel(t *testing.T) {
	rng := randx.New(5)
	edges := stream.Shuffle(gen.HolmeKim(rng, 4000, 4, 0.5), rng)
	type run struct {
		r, w int
		seed uint64
	}
	var runs []run
	for _, r := range []int{16, 64, 300, 1024} {
		for _, w := range []int{7, 37, 512, 3000} {
			runs = append(runs, run{r: r, w: w, seed: uint64(len(runs) + 1)})
		}
	}
	// batch returns run i's k-th batch, nil once its stream is spent.
	batch := func(i, k int) []graph.Edge {
		lo := k * runs[i].w
		if lo >= len(edges) {
			return nil
		}
		return edges[lo:min(lo+runs[i].w, len(edges))]
	}
	counters := func() []*Counter {
		cs := make([]*Counter, len(runs))
		for i, ru := range runs {
			cs[i] = NewCounter(ru.r, ru.seed)
		}
		return cs
	}
	check := func(how string, cs []*Counter, want [][]byte) {
		t.Helper()
		for i, c := range cs {
			if got := encodeState(t, c); !bytes.Equal(got, want[i]) {
				t.Errorf("%s: r=%d w=%d ends in a state it does not reach alone", how, runs[i].r, runs[i].w)
			}
		}
	}

	alone := make([][]byte, len(runs))
	for i, c := range counters() {
		for k := 0; batch(i, k) != nil; k++ {
			c.AddBatch(batch(i, k))
		}
		alone[i] = encodeState(t, c)
	}

	cs := counters()
	for k, more := 0, true; more; k++ {
		more = false
		for i, c := range cs {
			if b := batch(i, k); b != nil {
				c.AddBatch(b)
				more = true
			}
		}
	}
	check("interleaved", cs, alone)

	cs = counters()
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; batch(i, k) != nil; k++ {
				c.AddBatch(batch(i, k))
			}
		}()
	}
	wg.Wait()
	check("concurrent", cs, alone)
}
