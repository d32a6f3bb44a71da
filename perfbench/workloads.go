package main

import (
	"fmt"
	"math"

	"streamtri/internal/serve"
)

// workload is one traffic mix against trictd. Every tenant ingests its
// own generated Holme–Kim stream, cut into fixed-size POST bodies. The
// stream of each tenant is laid out as
//
//	prefix | tail | warm-up | timed
//
// The prefix is ingested and checkpointed, the tail only written to the
// WAL, then trictd is SIGKILLed: that pre-built data dir is what every
// run recovers from (setup_s). Warm-up and timed bodies are sent by one
// closed-loop producer, round-robin over the tenants, while one
// open-loop reader GETs estimates at a fixed rate. The timed phase is
// timedChunks equal chunks of POSTs, each closed by a POST
// /v1/checkpoint.
type workload struct {
	name string
	why  string

	numTenants int
	cfg        serve.CounterConfig // per-tenant config; Seed is derived per tenant
	format     bodyFormat
	bodyEdges  int

	prefixPosts int     // per tenant, covered by the pre-built checkpoint
	tailPosts   int     // per tenant, replayed from the WAL on every start
	warmPosts   int     // total, round-robin, untimed
	postsPerSec float64 // sizes the timed phase: about this many POSTs per second of --seconds
	readRate    float64 // estimate GETs per second
}

// setupReps is how many recoveries a run times; setup_s is their median.
const setupReps = 5

// Every tenant's stream is a Holme–Kim graph with these parameters.
const (
	hkEdgesPerVertex = 8
	hkTriadProb      = 0.5
)

var workloads = []*workload{
	{
		name:        "bulk-load",
		why:         "2 whole-stream tenants r=16384 p=2, one-batch (w=8r) plain-binary POSTs, 50 GET/s: shard-pool AddBatch, decode and WAL encode are most of trictd's CPU. Exercises serve, stream, core; bypasses window",
		numTenants:  2,
		cfg:         serve.CounterConfig{R: 16384, P: 2},
		format:      formatPlain,
		bodyEdges:   8 * 16384,
		prefixPosts: 4,
		tailPosts:   8,
		warmPosts:   8,
		postsPerSec: 24,
		readRate:    50,
	},
	{
		name:        "window-reads",
		why:         "1 windowed tenant r=64 window=100000, 1024-edge v2-block POSTs, 50 GET/s: window estimator work is most of trictd's CPU; reads wait on the ingest lock. Exercises serve, stream, window; bypasses core",
		numTenants:  1,
		cfg:         serve.CounterConfig{R: 64, Window: 100000},
		format:      formatBlock,
		bodyEdges:   1024,
		prefixPosts: 160,
		tailPosts:   96,
		warmPosts:   32,
		postsPerSec: 100,
		readRate:    50,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// plan is a workload sized for one run length.
type plan struct {
	*workload
	seed       uint64
	seconds    int
	timedPosts int // total, a multiple of tenants
}

// timedChunks is how many chunks the timed phase is cut into. Each
// chunk ends with a checkpoint, and edges_per_cpu_s is the median chunk
// rate, so a burst of outside load in one chunk moves it little.
const timedChunks = 10

func newPlan(w *workload, seed uint64, seconds int) plan {
	unit := timedChunks * w.numTenants
	n := int(math.Round(w.postsPerSec * float64(seconds) / float64(unit)))
	return plan{workload: w, seed: seed, seconds: seconds, timedPosts: max(n, 1) * unit}
}

// chunkPosts is the number of timed POSTs per chunk.
func (p plan) chunkPosts() int { return p.timedPosts / timedChunks }

// postsPerTenant is every body one tenant receives over a run.
func (p plan) postsPerTenant() int {
	return p.prefixPosts + p.tailPosts + (p.warmPosts+p.timedPosts)/p.numTenants
}

func (p plan) tenantName(i int) string { return fmt.Sprintf("t%d", i) }

// tenantConfig is tenant i's counter configuration: the workload's, with
// a per-tenant estimator seed.
func (p plan) tenantConfig(i int) serve.CounterConfig {
	c := p.cfg
	c.Seed = rngFor(p.name, p.seed, fmt.Sprintf("config-%d", i)).Uint64()>>1 + 1
	if c.P == 0 {
		c.P = 1 // what the server normalizes it to
	}
	return c
}

// batchSize is the server's effective ingest batch w: the default 8r.
func (p plan) batchSize() int { return 8 * p.cfg.R }

// cacheKey names this plan's cached inputs.
func (p plan) cacheKey() string {
	return fmt.Sprintf("%s-s%d-n%d-v%d", p.name, p.seed, p.postsPerTenant(), inputsVersion)
}

// inputsVersion changes whenever generation or layout changes, so stale
// cached inputs are never reused.
const inputsVersion = 2
