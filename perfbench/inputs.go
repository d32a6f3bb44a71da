package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"streamtri"
	"streamtri/internal/serve"
)

// tenantInputs is one tenant's configuration and POST bodies, in
// stream order: prefix, tail, warm-up, timed.
type tenantInputs struct {
	name   string
	cfg    serve.CounterConfig
	bodies [][]byte
}

// reference holds the library's estimates for every tenant at the
// pre-built position and at the end of the run: the values trictd must
// reproduce field for field.
type reference struct {
	Prebuilt []serve.EstimateResult `json:"prebuilt"`
	Final    []serve.EstimateResult `json:"final"`
}

// inputs is everything a run of one plan consumes. The bodies are
// regenerated from the seed on every run (a few seconds); the reference
// estimates and the pre-built data dir are cached per plan, since they
// cost a full library pass and a full trictd ingest.
type inputs struct {
	plan
	tenants []tenantInputs
	ref     reference
	dataDir string // pre-built data dir; copy before use, never modify
}

// prebuiltEdges is each tenant's stream position in the pre-built data dir.
func (p plan) prebuiltEdges() uint64 {
	return uint64((p.prefixPosts + p.tailPosts) * p.bodyEdges)
}

// maxCacheEntries bounds the input cache; the oldest entries go first.
const maxCacheEntries = 24

// prepareInputs generates the plan's bodies and loads (or builds and
// caches) its reference estimates and pre-built data dir.
func prepareInputs(p plan, trictd, cacheRoot string, logf func(string, ...any)) (*inputs, error) {
	in := &inputs{plan: p, tenants: make([]tenantInputs, p.numTenants)}
	entry := filepath.Join(cacheRoot, p.cacheKey())
	refPath := filepath.Join(entry, "ref.json")
	cached := false
	if b, err := os.ReadFile(refPath); err == nil {
		if err := json.Unmarshal(b, &in.ref); err == nil && len(in.ref.Final) == p.numTenants {
			cached = true
		}
	}

	start := time.Now()
	if !cached {
		in.ref = reference{
			Prebuilt: make([]serve.EstimateResult, p.numTenants),
			Final:    make([]serve.EstimateResult, p.numTenants),
		}
	}
	// Tenants are generated (and, on a cache miss, run through the
	// library reference) two at a time when their counters are
	// single-threaded; nproc is 2.
	par := 1
	if p.cfg.Window > 0 || p.cfg.P <= 1 {
		par = 2
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := range in.tenants {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			in.tenants[i] = in.buildTenant(i, !cached)
		}(i)
	}
	wg.Wait()
	logf("inputs: %d tenants x %d bodies of %d edges (%s), reference %s, %.1fs",
		p.numTenants, p.postsPerTenant(), p.bodyEdges, p.format, map[bool]string{true: "cached", false: "computed"}[cached],
		time.Since(start).Seconds())

	in.dataDir = filepath.Join(entry, "data")
	if cached {
		if _, err := os.Stat(in.dataDir); err == nil {
			now := time.Now()
			_ = os.Chtimes(entry, now, now) // recency for eviction only
			return in, nil
		}
	}

	// Build the entry beside its final name and rename it into place, so
	// an interrupted build never leaves a half entry behind.
	start = time.Now()
	tmp := fmt.Sprintf("%s.tmp-%d", entry, os.Getpid())
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	if err := buildDataDir(in, trictd, filepath.Join(tmp, "data")); err != nil {
		os.RemoveAll(tmp)
		return nil, fmt.Errorf("building pre-built data dir: %w", err)
	}
	// trictd wrote the entry without fsyncs; flush it now, so that its
	// write-back cannot land in this run's timed phase.
	if err := syncFiles(filepath.Join(tmp, "data")); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	b, err := json.Marshal(in.ref)
	if err == nil {
		err = os.WriteFile(filepath.Join(tmp, "ref.json"), b, 0o644)
	}
	if err == nil {
		os.RemoveAll(entry)
		err = os.Rename(tmp, entry)
	}
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	logf("inputs: pre-built data dir in %.1fs", time.Since(start).Seconds())
	evictCache(cacheRoot, maxCacheEntries)
	return in, nil
}

// buildTenant generates tenant i's stream and bodies; withRef also
// feeds the stream through the library counter the tenant runs on,
// POST by POST in the server's batches, recording the reference.
func (in *inputs) buildTenant(i int, withRef bool) tenantInputs {
	p := in.plan
	t := tenantInputs{name: p.tenantName(i), cfg: p.tenantConfig(i)}
	posts := p.postsPerTenant()
	edges := holmeKim(rngFor(p.name, p.seed, fmt.Sprintf("graph-%d", i)), posts*p.bodyEdges, hkEdgesPerVertex, hkTriadProb)
	t.bodies = make([][]byte, posts)
	var ref *refCounter
	if withRef {
		ref = newRefCounter(t.cfg)
		defer ref.close()
	}
	for k := range t.bodies {
		body := edges[k*p.bodyEdges : (k+1)*p.bodyEdges]
		t.bodies[k] = encodeBody(p.format, body, int64(k*p.bodyEdges))
		if ref == nil {
			continue
		}
		ref.post(body, p.batchSize())
		if k == p.prefixPosts+p.tailPosts-1 {
			in.ref.Prebuilt[i] = ref.estimate()
		}
	}
	if ref != nil {
		in.ref.Final[i] = ref.estimate()
	}
	return t
}

// refCounter is the library counter a tenant of the given config runs
// on, fed the way trictd feeds it.
type refCounter struct {
	pc *streamtri.ParallelTriangleCounter
	sw *streamtri.SlidingWindowCounter
}

func newRefCounter(cfg serve.CounterConfig) *refCounter {
	opts := []streamtri.Option{streamtri.WithSeed(cfg.Seed)}
	if cfg.Window > 0 {
		return &refCounter{sw: streamtri.NewSlidingWindowCounter(cfg.R, cfg.Window, opts...)}
	}
	return &refCounter{pc: streamtri.NewParallelTriangleCounter(cfg.R, cfg.P, opts...)}
}

// post absorbs one POST body: w-edge batches (the decode pipeline's
// batch boundaries), then the Flush the ingest handler does before
// acking.
func (c *refCounter) post(edges []streamtri.Edge, w int) {
	for len(edges) > 0 {
		n := min(w, len(edges))
		c.addBatch(edges[:n])
		edges = edges[n:]
	}
	c.flush()
}

func (c *refCounter) addBatch(b []streamtri.Edge) {
	if c.pc != nil {
		c.pc.AddBatch(b)
	} else {
		c.sw.AddBatch(b)
	}
}

func (c *refCounter) flush() {
	if c.pc != nil {
		c.pc.Flush()
	}
}

// estimate is what GET .../estimate would answer for this counter.
func (c *refCounter) estimate() serve.EstimateResult {
	if c.pc != nil {
		s := c.pc.Snapshot()
		return serve.EstimateResult{Edges: s.Edges, Triangles: s.Triangles, Wedges: s.Wedges, Transitivity: s.Transitivity}
	}
	return serve.EstimateResult{
		Edges:       c.sw.StreamLength(),
		Triangles:   c.sw.EstimateTriangles(),
		WindowEdges: c.sw.WindowEdges(),
	}
}

func (c *refCounter) close() {
	if c.pc != nil {
		c.pc.Close()
	}
}

// buildDataDir makes the pre-built data dir: trictd ingests every
// tenant's prefix, checkpoints, ingests the tail (WAL only) and is
// SIGKILLed, so each start restores a checkpoint generation and replays
// a WAL tail.
func buildDataDir(in *inputs, trictd, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// fsync policy does not change what is written, only when; the
	// build skips the fsyncs.
	d, _, err := startDaemon(trictd, dir, filepath.Dir(dir), "none")
	if err != nil {
		return err
	}
	defer d.kill()
	c := newClient(d.base)
	defer c.close()
	for i, t := range in.tenants {
		body, _ := json.Marshal(t.cfg)
		if st, err := c.do("PUT", "/v1/counters/"+t.name, body, "application/json", nil); err != nil || st != 201 {
			return fmt.Errorf("creating tenant %d: status %d: %v", i, st, err)
		}
	}
	send := func(from, to int) error {
		for k := from; k < to; k++ {
			for _, t := range in.tenants {
				var res serve.IngestResult
				st, err := c.do("POST", "/v1/counters/"+t.name+"/edges", t.bodies[k], in.format.contentType(), &res)
				if err != nil || st != 200 {
					return fmt.Errorf("POST %s body %d: status %d: %v", t.name, k, st, err)
				}
			}
		}
		return nil
	}
	if err := send(0, in.prefixPosts); err != nil {
		return err
	}
	if st, err := c.do("POST", "/v1/checkpoint", nil, "", nil); err != nil || st != 200 {
		return fmt.Errorf("checkpoint: status %d: %v", st, err)
	}
	if err := send(in.prefixPosts, in.prefixPosts+in.tailPosts); err != nil {
		return err
	}
	d.kill()
	return nil
}

// syncFiles fsyncs every file in the flat directory dir.
func syncFiles(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// evictCache removes the least recently used entries beyond keep.
func evictCache(root string, keep int) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return
	}
	type aged struct {
		path string
		t    time.Time
	}
	var all []aged
	for _, e := range ents {
		if info, err := e.Info(); err == nil && e.IsDir() {
			all = append(all, aged{filepath.Join(root, e.Name()), info.ModTime()})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].t.After(all[j].t) })
	for _, a := range all[min(keep, len(all)):] {
		os.RemoveAll(a.path)
	}
}

// copyDir copies the flat directory src to dst (a fresh copy per start:
// recovery must always see the same bytes).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copyDir: %s is not a regular file", e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
