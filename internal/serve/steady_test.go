package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamtri"
	"streamtri/internal/core"
	"streamtri/internal/stream"
)

// steadyAllocBound is what one cycle of the allocation guard may
// allocate: one w-edge POST per tenant plus a CheckpointAll. It is far
// below one r- or w-sized buffer at either shape the guard runs (a
// 9-byte-per-edge WAL block of w = 65,536 edges is 576 KiB, a whole-stream
// checkpoint at r = 8,192 is 328 KiB), so a checkpoint serialized twice,
// a block buffer or batch table allocated anew on another P, or an
// ingest buffer allocated by the first POST fails it.
const steadyAllocBound = 128 << 10

// postBinary POSTs one plain binary body to tenant name through h in
// process; it fails unless the POST is acked.
func postBinary(h http.Handler, name string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, "/v1/counters/"+name+"/edges?format=binary", bytes.NewReader(body))
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", name, rec.Code, rec.Body)
	}
	return nil
}

// allocatedDuring returns the bytes the process allocated while f ran.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestServeSteadyStateAllocationBound holds a durable server's steady
// state to what it must allocate anyway: the counters' own per-batch
// allocations, the HTTP plumbing and the file operations, nothing that
// scales with r or w. It runs one whole-stream tenant at r = w/8 (so w
// is its default batch size) and one windowed tenant at window-reads'
// r = 64 with a window of w edges (full from the first body on, so its
// engine allocates only the chain elements it samples), at w = 8,192
// and w = 65,536. After one warm-up cycle, each cycle POSTs one w-edge
// body per tenant and checkpoints; the mean allocation per cycle must
// stay under steadyAllocBound. Then a WAL tail is left past the last
// checkpoint, the server is abandoned as by kill -9, and the first POST
// per tenant after recovery must stay under the same bound: recovery
// replays into a batch buffer it hands back for the POST to borrow.
//
// Every r- or w-sized buffer the server uses comes from a free list,
// which hands any idle buffer to a goroutine on any P, so the bound
// holds at GOMAXPROCS 2 as at 1, and under the race detector, which
// makes only sync.Pools drop items. GC is off for the measured
// stretches, so the HTTP and JSON plumbing's own small sync.Pools keep
// their items too.
func TestServeSteadyStateAllocationBound(t *testing.T) {
	for _, w := range []int{8192, 65536} {
		t.Run(fmt.Sprintf("r=%d/w=%d", w/8, w), func(t *testing.T) {
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					checkSteadyStateAllocs(t, w)
				})
			}
		})
	}
}

func checkSteadyStateAllocs(t *testing.T, w int) {
	const cycles = 8
	r := w / 8
	tenants := []crashTenant{
		{name: "ws", cfg: CounterConfig{R: r, Seed: 3}},
		{name: "win", cfg: CounterConfig{R: 64, Window: uint64(w), Seed: 5, BatchSize: w}},
	}
	// Per tenant, all encoded up front: the warm-up body, the measured
	// cycles' bodies, the WAL tail's and the first body after recovery.
	// The tail is several batches long, so the recovered counter's batch
	// scratch has grown to its working size during replay, as it has in a
	// process that never restarted, before the measured POST.
	const tailBodies = 3
	nBodies := 1 + cycles + tailBodies + 1
	bodies := make([][][]byte, len(tenants))
	for i := range tenants {
		edges := testEdges(t, uint64(40+i), nBodies*w/3+w)
		if len(edges) < nBodies*w {
			t.Fatalf("generated %d edges, want %d", len(edges), nBodies*w)
		}
		for k := 0; k < nBodies; k++ {
			bodies[i] = append(bodies[i], binaryBody(t, edges[k*w:(k+1)*w]).Bytes())
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	dir := t.TempDir()
	s, err := NewServer(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, ct := range tenants {
		if code := createCounterVia(h, ct.name, ct.cfg); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", ct.name, code)
		}
	}
	cycle := func(k int) {
		for i, ct := range tenants {
			if err := postBinary(h, ct.name, bodies[i][k]); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := s.CheckpointAll(); err != nil || n != len(tenants) {
			t.Fatalf("CheckpointAll = %d, %v", n, err)
		}
	}
	cycle(0)
	perCycle := allocatedDuring(func() {
		for k := 1; k <= cycles; k++ {
			cycle(k)
		}
	}) / cycles
	t.Logf("steady state: %.1f KiB per cycle", float64(perCycle)/1024)
	if perCycle >= steadyAllocBound {
		t.Errorf("steady state allocates %d B per cycle, want < %d", perCycle, steadyAllocBound)
	}

	for k := cycles + 1; k <= cycles+tailBodies; k++ {
		for i, ct := range tenants {
			if err := postBinary(h, ct.name, bodies[i][k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	abandonServer(s)
	s2, err := NewServer(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, ct := range tenants {
		tn := s2.lookup(ct.name)
		if got, want := counterEdges(tn), uint64((1+cycles+tailBodies)*w); got != want {
			t.Fatalf("%s recovered to %d edges, want %d", ct.name, got, want)
		}
	}
	h2 := s2.Handler()
	first := allocatedDuring(func() {
		for i, ct := range tenants {
			if err := postBinary(h2, ct.name, bodies[i][nBodies-1]); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("first POSTs after recovery: %.1f KiB", float64(first)/1024)
	if first >= steadyAllocBound {
		t.Errorf("the first POST per tenant after recovery allocates %d B, want < %d", first, steadyAllocBound)
	}
}

// createCounterVia creates tenant name through h in process.
func createCounterVia(h http.Handler, name string, cfg CounterConfig) int {
	body, _ := json.Marshal(cfg)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/counters/"+name, bytes.NewReader(body)))
	return rec.Code
}

// TestServeConcurrentCheckpointsDuringIngest runs two CheckpointAll
// loops while two whole-stream tenants and one windowed tenant ingest,
// so checkpoints, which take turns, serialize into listed block
// buffers concurrently with the WAL appends borrowing them (make race
// runs it under the race detector). Every generation left on disk
// must then restore to the WriteTo bytes of a library counter fed the
// same batches up to the generation's position.
func TestServeConcurrentCheckpointsDuringIngest(t *testing.T) {
	tenants := []crashTenant{
		{name: "wa", cfg: CounterConfig{R: 64, P: 1, Seed: 21, BatchSize: 96}},
		{name: "wb", cfg: CounterConfig{R: 48, P: 1, Seed: 22, BatchSize: 80}},
		{name: "win", cfg: CounterConfig{R: 32, P: 1, Window: 500, Seed: 23, BatchSize: 64}},
	}
	const bodyEdges = 250
	for i := range tenants {
		edges := testEdges(t, uint64(60+i), 4000)
		for off := 0; off < len(edges); off += bodyEdges {
			tenants[i].bodies = append(tenants[i].bodies, edges[off:min(off+bodyEdges, len(edges))])
		}
	}
	dir := t.TempDir()
	s, err := NewServer(dir, WithLogf(t.Logf), WithCheckpointRetention(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, ct := range tenants {
		if code := createCounterVia(h, ct.name, ct.cfg); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", ct.name, code)
		}
	}

	var (
		ingest, ckpt sync.WaitGroup
		ckpts        atomic.Int64 // CheckpointAll calls finished
		ckptErr      sync.Once
	)
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		ckpt.Add(1)
		go func() {
			defer ckpt.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.CheckpointAll(); err != nil {
					ckptErr.Do(func() { t.Errorf("CheckpointAll: %v", err) })
				}
				ckpts.Add(1)
			}
		}()
	}
	for _, ct := range tenants {
		bodies := make([][]byte, len(ct.bodies))
		for k, edges := range ct.bodies {
			bodies[k] = binaryBody(t, edges).Bytes()
		}
		ingest.Add(1)
		go func() {
			defer ingest.Done()
			for _, body := range bodies {
				if err := postBinary(h, ct.name, body); err != nil {
					t.Error(err)
					return
				}
				// Let a checkpoint start after this POST before the next
				// one: at most two calls are in flight, so the third to
				// finish from here started after it.
				for c0 := ckpts.Load(); ckpts.Load() < c0+3; {
					runtime.Gosched()
				}
			}
		}()
	}
	ingest.Wait()
	close(done)
	ckpt.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	for _, ct := range tenants {
		gens, err := s.listGenerations(ct.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(gens) < len(ct.bodies)/2 {
			t.Fatalf("%s: %d generations on disk after %d POSTs, want one for most", ct.name, len(gens), len(ct.bodies))
		}
		for _, g := range gens {
			blob, err := os.ReadFile(g.path)
			if err != nil {
				t.Fatal(err)
			}
			var c counter
			if ct.cfg.Window > 0 {
				c, err = streamtri.RestoreSlidingWindowCounter(bytes.NewReader(blob))
			} else {
				c, err = streamtri.RestoreParallelTriangleCounter(bytes.NewReader(blob))
			}
			if err != nil {
				t.Fatalf("%s generation %d: %v", ct.name, g.pos, err)
			}
			var got bytes.Buffer
			if _, err := c.WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), oracleBlob(t, ct, g.pos)) {
				t.Fatalf("%s generation %d restores to a state the library does not reach at that position", ct.name, g.pos)
			}
		}
		t.Logf("%s: %d generations match", ct.name, len(gens))
	}
}

// TestServeTenantFootprint holds what a whole-stream tenant keeps
// between POSTs to its own state: its estimators, their cached
// endpoint ids and its key index, plus a fixed allowance for the
// tenant, its WAL writer and its published estimates, with no term in
// w. A durable server runs 16 tenants at r = 1,024 and w = 8,192, three
// POSTs each. The live heap they add must stay under 16 such bounds.
// Before them, a tenant that ran the same POSTs and a checkpoint is
// deleted: its counter must be collected while the buffers it borrowed
// stay listed for the next tenant, so the 16 allocate no new ones.
func TestServeTenantFootprint(t *testing.T) {
	const (
		tenants = 16
		r       = 1024
		w       = 8 * r
		posts   = 3
	)
	edges := testEdges(t, 90, posts*w/3+w)
	if len(edges) < posts*w {
		t.Fatalf("generated %d edges, want %d", len(edges), posts*w)
	}
	bodies := make([][]byte, posts)
	for k := range bodies {
		bodies[k] = binaryBody(t, edges[k*w:(k+1)*w]).Bytes()
	}
	s, err := NewServer(t.TempDir(), WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	cfg := CounterConfig{R: r, Seed: 7}
	load := func(name string) {
		if code := createCounterVia(h, name, cfg); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, code)
		}
		for _, body := range bodies {
			if err := postBinary(h, name, body); err != nil {
				t.Fatal(err)
			}
		}
	}

	load("gone")
	if _, err := s.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.AddCleanup(s.lookup("gone").c.(*streamtri.ParallelTriangleCounter), func(ch chan struct{}) { close(ch) }, collected)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/counters/gone", nil))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", rec.Code)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(10 * time.Millisecond):
			if time.Now().Before(deadline) {
				continue
			}
			t.Fatal("the deleted tenant's counter was not collected")
		}
		break
	}
	for name, idle := range map[string]int{"batch": edgeBufs.Idle(), "body reader": bodyReaders.Idle(), "block": stream.BlockBufs.Idle()} {
		if idle == 0 {
			t.Errorf("no %s buffer is listed after the tenant that used one was deleted", name)
		}
	}

	base := liveHeap()
	for i := 0; i < tenants; i++ {
		load(fmt.Sprintf("t%02d", i))
	}
	perTenant := (liveHeap() - base) / tenants
	// The estimators (40 B each), their cached ids (8 B each) and the
	// key index: a hash table of 4r 8-byte slots, which hold the keys,
	// and a filter of 32r bits.
	own := r*core.EstimatorBytes() + 8*r + (4*8+32/8)*r
	const allowance = 16 << 10
	t.Logf("live heap per tenant: %.1f KiB; own state %.1f KiB", float64(perTenant)/1024, float64(own)/1024)
	if perTenant >= own+allowance {
		t.Errorf("each tenant holds %d B of live heap, want < %d (own state %d + %d)", perTenant, own+allowance, own, allowance)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(bodies) // live at base, so live through the last reading
}

// liveHeap returns the heap bytes still reachable after a collection.
// It collects twice, since a sync.Pool (the HTTP and JSON plumbing keep
// some) frees its items only at the second collection that finds them
// idle.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
