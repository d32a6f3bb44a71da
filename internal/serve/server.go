// Package serve is the resident serving layer behind cmd/trictd: a
// registry of named counters (one per tenant/graph) exposed over an
// HTTP JSON API, with ingestion in the request handler (each batch
// decoded from the body is logged, then absorbed), lock-free reads of
// the estimates each tenant publishes at every batch boundary, and
// crash-consistent durability: every ingest batch is written ahead to a
// per-tenant segmented log (wal.go) before the counter sees it, periodic
// checkpoint generations bound replay time (checkpoint.go), and
// recovery restores the newest valid generation plus the WAL tail
// (recover.go) — bit-identical to a process that never crashed.
//
// API (all JSON unless noted):
//
//	GET    /healthz                      liveness
//	GET    /v1/counters                  list tenants with config + progress
//	PUT    /v1/counters/{name}           create (body: CounterConfig); idempotent
//	DELETE /v1/counters/{name}           drop tenant and its checkpoint files
//	POST   /v1/counters/{name}/edges     ingest: body is a text or binary edge
//	                                     stream (?format=text|binary, default
//	                                     sniffed from Content-Type)
//	GET    /v1/counters/{name}/estimate  estimates at the last batch boundary
//	POST   /v1/checkpoint                checkpoint all tenants now
//
// Concurrency model: each tenant has one ingest lock, so concurrent
// edge POSTs to the same tenant serialize (different tenants ingest in
// parallel). Every tenant, whole-stream or windowed, publishes its
// estimates at each batch boundary; estimate GETs and the tenant
// listing read them and never wait on ingestion.
package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamtri"
	"streamtri/internal/freelist"
	"streamtri/internal/stream"
)

// CounterConfig is a tenant's counter configuration, fixed at creation.
type CounterConfig struct {
	// R is the estimator count (required, >= 1). Accuracy grows with R.
	R int `json:"r"`
	// P was the number of shards the R estimators were split into. It is
	// still accepted, checked (1 <= P <= R, default 1) and reported, so
	// configs and data dirs written with it keep working, but it has no
	// effect: every whole-stream tenant runs one counter, seeded as
	// shard 0 was, and restores checkpoints written with any P.
	// Windowed tenants' P is always 1.
	P int `json:"p,omitempty"`
	// Window, when nonzero, makes the tenant a sliding-window counter
	// over the last Window edges instead of a whole-stream counter.
	// Windowed tenants are as durable as whole-stream ones: their
	// estimator chains checkpoint to the NSTW envelope and survive a
	// restart bit-identically.
	Window uint64 `json:"window,omitempty"`
	// Seed fixes the random seed (default 1); a tenant is fully
	// deterministic given its seed and edge stream.
	Seed uint64 `json:"seed,omitempty"`
	// BatchSize overrides the internal bulk batch size w (default 8·R).
	BatchSize int `json:"batch_size,omitempty"`
}

func (c *CounterConfig) normalize() error {
	if c.R < 1 {
		return fmt.Errorf("r must be >= 1, got %d", c.R)
	}
	if c.P == 0 || c.Window > 0 {
		// A windowed tenant's p has no effect, so it takes the value an
		// omitted p gets and cannot make two equal windows conflict.
		c.P = 1
	}
	if c.P < 1 || c.P > c.R {
		return fmt.Errorf("p must satisfy 1 <= p <= r, got r=%d p=%d", c.R, c.P)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("batch_size must be >= 0, got %d", c.BatchSize)
	}
	return nil
}

func (c CounterConfig) options() []streamtri.Option {
	opts := []streamtri.Option{streamtri.WithSeed(c.Seed)}
	if c.BatchSize > 0 {
		opts = append(opts, streamtri.WithBatchSize(c.BatchSize))
	}
	return opts
}

// effectiveBatchSize is the batch size w the ingest handler fills,
// mirroring the library default (min(8·R, 1<<23)), so a body is cut
// into the batches CountStream would cut. The WAL logs one block per
// batch, so durable tenants must keep w within the block format's
// record limit.
func (c CounterConfig) effectiveBatchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	w := 8 * c.R
	if w > 1<<23 {
		w = 1 << 23
	}
	return w
}

// counter is what a tenant calls on its counter, whichever kind it is:
// *streamtri.ParallelTriangleCounter for a whole-stream tenant,
// *streamtri.SlidingWindowCounter for a windowed one.
type counter interface {
	AddBatch([]streamtri.Edge)
	WriteTo(io.Writer) (int64, error)
}

// newCounter builds a fresh counter of the kind cfg names. Whole-stream
// tenants keep the deprecated ParallelTriangleCounter for its seeding,
// so their estimates and checkpoints stay those of tenants created with
// p = 1 when p split the estimators into shards.
func newCounter(cfg CounterConfig) counter {
	if cfg.Window > 0 {
		return streamtri.NewSlidingWindowCounter(cfg.R, cfg.Window, cfg.options()...)
	}
	return streamtri.NewParallelTriangleCounter(cfg.R, cfg.P, cfg.options()...)
}

// tenant is one named counter, its ingest lock, and the estimates it
// published at its last batch boundary; both kinds are durable. Between
// POSTs that is all it holds, with its WAL writer's file: every buffer
// that scales with the batch or the counter (the ingest batch, the body
// reader, WAL blocks, checkpoint blobs, the bulk engine's batch tables)
// is borrowed from a free list per POST, replay or checkpoint and handed
// back when it ends.
type tenant struct {
	name string
	cfg  CounterConfig

	// mu serializes ingestion, checkpointing, and teardown. Reads do NOT
	// take it: they load est.
	mu     sync.Mutex
	closed bool
	c      counter
	est    atomic.Pointer[EstimateResult]

	// wal is the tenant's write-ahead log; nil on volatile servers.
	wal *walWriter

	// ckptEdges is the position of the last durable checkpoint
	// generation (under mu); checkpoints are skipped while it matches
	// edges().
	ckptEdges uint64
}

// newTenant wraps c and publishes its estimates before any read can come.
func newTenant(name string, cfg CounterConfig, c counter) *tenant {
	t := &tenant{name: name, cfg: cfg, c: c}
	t.publish()
	return t
}

// absorb feeds one batch, from an ingest POST or a WAL replay, to the
// counter and publishes the estimates at the new batch boundary. The
// caller holds mu or has not registered the tenant yet.
func (t *tenant) absorb(batch []streamtri.Edge) {
	t.c.AddBatch(batch)
	t.publish()
}

// publish stores the counter's estimates for lock-free readers; for a
// windowed counter that is one pass over its r chain heads.
func (t *tenant) publish() {
	var est EstimateResult
	switch c := t.c.(type) {
	case *streamtri.ParallelTriangleCounter:
		s := c.Snapshot()
		est = EstimateResult{Edges: s.Edges, Triangles: s.Triangles, Wedges: s.Wedges, Transitivity: s.Transitivity}
	case *streamtri.SlidingWindowCounter:
		est = EstimateResult{Edges: c.StreamLength(), Triangles: c.EstimateTriangles(), WindowEdges: c.WindowEdges()}
	}
	t.est.Store(&est)
}

// edges is the stream length at the last batch boundary. Under mu it is
// the counter's own length: every batch is published as it is absorbed.
func (t *tenant) edges() uint64 { return t.est.Load().Edges }

// Server is the tenant registry. Create with NewServer (which recovers
// checkpointed tenants from dataDir) and mount Handler on an
// http.Server.
type Server struct {
	dataDir string // "" = volatile server, no checkpoints, no WAL

	policy    FsyncPolicy   // WAL fsync policy (durable servers)
	syncEvery time.Duration // FsyncInterval timer period
	retain    int           // checkpoint generations to keep (>= 1)
	logf      func(format string, args ...any)
	faults    *faultInjector

	mu      sync.RWMutex
	tenants map[string]*tenant

	// ckptMu runs CheckpointAll calls one at a time.
	ckptMu sync.Mutex
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithWALSyncPolicy sets when WAL appends reach stable storage
// (default FsyncAlways: fsync before every ingest ack).
func WithWALSyncPolicy(p FsyncPolicy) ServerOption {
	return func(s *Server) { s.policy = p }
}

// WithWALSyncInterval sets the background fsync period used under
// FsyncInterval (default 1s).
func WithWALSyncInterval(d time.Duration) ServerOption {
	return func(s *Server) { s.syncEvery = d }
}

// WithCheckpointRetention sets how many checkpoint generations to keep
// per tenant (default 2; minimum 1). Older retained generations are
// recovery fallbacks when the newest is damaged.
func WithCheckpointRetention(n int) ServerOption {
	return func(s *Server) { s.retain = n }
}

// WithLogf routes the server's recovery and durability warnings
// (default log.Printf).
func WithLogf(f func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = f }
}

// nameRule bounds tenant names to path- and filename-safe tokens (the
// name becomes a checkpoint filename): an ASCII letter or digit, then
// up to 63 ASCII letters, digits, '_' or '-'. Dots are excluded on
// purpose: quarantined files (<name>.corrupt.*) must never collide with
// a live tenant's namespace.
const nameRule = `^[a-zA-Z0-9][a-zA-Z0-9_-]{0,63}$`

// validName reports whether name follows nameRule.
func validName(name string) bool {
	if len(name) == 0 || len(name) > 64 || name[0] == '_' || name[0] == '-' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// NewServer returns a Server persisting to dataDir (created if
// missing), after recovering every checkpointed tenant found there —
// newest valid checkpoint generation plus WAL tail replay; an
// unrecoverable tenant is quarantined, not fatal. An empty dataDir
// disables durability.
func NewServer(dataDir string, opts ...ServerOption) (*Server, error) {
	s := &Server{
		dataDir:   dataDir,
		policy:    FsyncAlways,
		syncEvery: time.Second,
		retain:    2,
		logf:      log.Printf,
		faults:    &faultInjector{},
		tenants:   make(map[string]*tenant),
	}
	for _, o := range opts {
		o(s)
	}
	if s.retain < 1 {
		s.retain = 1
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Handler returns the API handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/counters", s.handleList)
	mux.HandleFunc("PUT /v1/counters/{name}", s.handleCreate)
	mux.HandleFunc("DELETE /v1/counters/{name}", s.handleDelete)
	mux.HandleFunc("POST /v1/counters/{name}/edges", s.handleIngest)
	mux.HandleFunc("GET /v1/counters/{name}/estimate", s.handleEstimate)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	return mux
}

func (s *Server) lookup(name string) *tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tenants[name]
}

// CounterInfo is one row of the GET /v1/counters listing.
type CounterInfo struct {
	Name   string        `json:"name"`
	Config CounterConfig `json:"config"`
	Edges  uint64        `json:"edges"`
}

// handleList serves GET /v1/counters: every tenant, sorted by name as
// CheckpointAll orders them, so the listing is stable across calls.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })

	out := make([]CounterInfo, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, CounterInfo{Name: t.name, Config: t.cfg, Edges: t.edges()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validName(name) {
		httpError(w, http.StatusBadRequest, "invalid counter name %q (want %s)", name, nameRule)
		return
	}
	var cfg CounterConfig
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&cfg); err != nil {
		httpError(w, http.StatusBadRequest, "decoding config: %v", err)
		return
	}
	if err := cfg.normalize(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid config: %v", err)
		return
	}
	if s.dataDir != "" && cfg.effectiveBatchSize() > stream.MaxBlockRecords {
		// The WAL logs one block per batch; a batch the block format
		// cannot carry would make every ingest fail after creation.
		httpError(w, http.StatusBadRequest,
			"batch size %d exceeds the durable per-batch limit %d", cfg.effectiveBatchSize(), stream.MaxBlockRecords)
		return
	}

	s.mu.Lock()
	if existing, ok := s.tenants[name]; ok {
		s.mu.Unlock()
		// Idempotent create: same config is a no-op, different config a
		// conflict (changing r/seed would silently change the estimate's
		// meaning).
		if existing.cfg == cfg {
			writeJSON(w, http.StatusOK, CounterInfo{Name: name, Config: existing.cfg})
			return
		}
		httpError(w, http.StatusConflict, "counter %q exists with different config", name)
		return
	}
	t := newTenant(name, cfg, newCounter(cfg))
	if s.dataDir != "" {
		// Persist the metadata before acking the create: recovery keys
		// off it, so an acked tenant must exist after a crash even before
		// its first edge or checkpoint. Stale files from an unacked
		// earlier life of this name are cleared first — their WAL and
		// generations describe a tenant that never existed. The fsync
		// runs under s.mu; creates are rare and the simplicity is worth a
		// few milliseconds of registry pause.
		metaBytes, err := marshalMeta(name, cfg)
		if err == nil {
			err = s.removeTenantFiles(name)
		}
		if err == nil {
			err = s.atomicWriteSync(s.metaPath(name), metaBytes, "meta")
		}
		if err != nil {
			s.mu.Unlock()
			httpError(w, http.StatusInternalServerError, "persisting counter %q: %v", name, err)
			return
		}
		t.wal = newWALWriter(s.dataDir, name, 0, s.policy, s.faults)
	}
	s.tenants[name] = t
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, CounterInfo{Name: name, Config: cfg})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	t, ok := s.tenants[name]
	delete(s.tenants, name)
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no counter %q", name)
		return
	}
	// Wait out any in-flight ingest, then tear down. New requests can no
	// longer find the tenant; one that already held a reference sees
	// closed and 404s.
	t.mu.Lock()
	t.closed = true
	if t.wal != nil {
		t.wal.close()
	}
	t.mu.Unlock()
	if err := s.removeTenantFiles(name); err != nil {
		httpError(w, http.StatusInternalServerError, "removing tenant files: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// IngestResult reports one edge POST.
type IngestResult struct {
	// Edges is the number of edges absorbed from this request body.
	Edges uint64 `json:"edges"`
	// BadRecords counts malformed records skipped (always 0 today: the
	// server runs the decoders with fail-on-first semantics).
	BadRecords uint64 `json:"bad_records"`
	// TotalEdges is the tenant's stream length after this request.
	TotalEdges uint64 `json:"total_edges"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	t := s.lookup(name)
	if t == nil {
		httpError(w, http.StatusNotFound, "no counter %q", name)
		return
	}
	br := bodyReaders.Get(0)
	br.Reset(r.Body)
	defer func() {
		br.Reset(nil)
		bodyReaders.Put(br)
	}()
	src, err := bodySource(r, br)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if c, ok := src.(io.Closer); ok {
		// A v2 body that fails or is cancelled mid-block leaves its
		// block's buffer with the source; closing hands it back.
		defer c.Close()
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		httpError(w, http.StatusNotFound, "no counter %q", name)
		return
	}
	// Absorb the body one batch at a time: log the batch as one WAL block,
	// then hand the same slice to the counter. The log's block boundaries
	// are the counter's AddBatch boundaries by construction — what makes
	// replay bit-identical — and a batch the log refused never reaches the
	// counter. A cancelled request stops at a batch boundary.
	var edges uint64
	batchSize := t.cfg.effectiveBatchSize()
	buf := edgeBufs.Get(batchSize)[:batchSize]
	defer edgeBufs.Put(buf)
	for err == nil {
		if err = r.Context().Err(); err != nil {
			break
		}
		var n int
		n, err = src.Fill(buf)
		if n == 0 {
			continue
		}
		if t.wal != nil {
			if werr := t.wal.append(buf[:n]); werr != nil {
				httpError(w, http.StatusInternalServerError, "ingest failed after %d edges: wal: %v", edges, werr)
				return
			}
		}
		t.absorb(buf[:n])
		edges += uint64(n)
	}
	if err != io.EOF {
		// The counter remains valid and reflects exactly the edges absorbed;
		// report how far ingestion got alongside the failure.
		httpError(w, http.StatusBadRequest, "ingest failed after %d edges: %v", edges, err)
		return
	}
	if t.wal != nil && s.policy == FsyncAlways {
		// The ack-durability contract: the response leaves only after this
		// request's blocks are on stable storage.
		if serr := t.wal.sync(); serr != nil {
			httpError(w, http.StatusInternalServerError, "ingest not durable after %d edges: %v", edges, serr)
			return
		}
	}
	writeJSON(w, http.StatusOK, IngestResult{Edges: edges, TotalEdges: t.edges()})
}

// bodyReaders lists the idle 64 KiB read buffers of ingest bodies, one
// per POST in flight. Every body decoder reads through the one it is
// given as is: the text, plain and v1 decoders want a 64 KiB window,
// the v2 decoder takes any size.
var bodyReaders = freelist.List[*bufio.Reader]{New: func(int) *bufio.Reader { return bufio.NewReaderSize(nil, 1<<16) }}

// edgeBufs lists the idle batch buffers: each ingest POST and each WAL
// replay borrows one of at least w edges, the tenant's batch size, for
// as long as it runs.
var edgeBufs = freelist.List[[]streamtri.Edge]{
	New:  func(n int) []streamtri.Edge { return make([]streamtri.Edge, 0, n) },
	Size: func(b []streamtri.Edge) int { return cap(b) },
}

// bodySource builds a bulk decoder over the request body, read through
// br. The format is chosen by the ?format query parameter
// (text|binary), defaulting by Content-Type: application/octet-stream
// means binary, anything else text. Binary bodies may be any flavor —
// the 8-byte plain format, the timestamped 16-byte v1 format, or the
// block-structured v2 format — dispatched by the shared magic sniff,
// with timestamps stripped (arrival order is the stream order either
// way). Text bodies already tolerate a numeric third column natively.
// Every one of these sources decodes in bulk.
func bodySource(r *http.Request, br *bufio.Reader) (stream.BatchFiller, error) {
	format := r.URL.Query().Get("format")
	if format == "" {
		if r.Header.Get("Content-Type") == "application/octet-stream" {
			format = "binary"
		} else {
			format = "text"
		}
	}
	var src streamtri.Source
	switch format {
	case "text":
		src = streamtri.NewEdgeListSource(br)
	case "binary":
		prefix, err := br.Peek(8)
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("reading body: %w", err)
		}
		switch streamtri.SniffFormat(prefix) {
		case streamtri.FormatTimestampedBinary:
			src = streamtri.StripTimestamps(streamtri.NewTimestampedBinaryEdgeSource(br))
		case streamtri.FormatBlockBinary:
			src = streamtri.StripTimestamps(streamtri.NewBlockBinaryEdgeSource(br))
		default:
			src = streamtri.NewBinaryEdgeSource(br)
		}
	default:
		return nil, fmt.Errorf("unknown format %q (want text or binary)", format)
	}
	return src.(stream.BatchFiller), nil
}

// EstimateResult is the GET .../estimate response: one consistent
// snapshot of the tenant's estimates.
type EstimateResult struct {
	// Edges is the stream prefix the estimates reflect: the last batch
	// boundary, for both kinds of tenant (edges of an in-flight POST may
	// not be included yet).
	Edges uint64 `json:"edges"`
	// Triangles is τ̂. For windowed tenants it covers the current window.
	Triangles float64 `json:"triangles"`
	// Wedges (ζ̂) and Transitivity (κ̂ = 3τ̂/ζ̂) are whole-stream only.
	Wedges       float64 `json:"wedges,omitempty"`
	Transitivity float64 `json:"transitivity,omitempty"`
	// WindowEdges is the current window fill for windowed tenants.
	WindowEdges uint64 `json:"window_edges,omitempty"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	t := s.lookup(name)
	if t == nil {
		httpError(w, http.StatusNotFound, "no counter %q", name)
		return
	}
	// The serving read path: no locks, never blocked by an in-flight
	// ingest — the estimates published at the last batch boundary.
	writeJSON(w, http.StatusOK, t.est.Load())
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	n, err := s.CheckpointAll()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"checkpointed": n})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
