// Package serve is the resident serving layer behind cmd/trictd: a
// registry of named counters (one per tenant/graph) exposed over an
// HTTP JSON API, with ingestion through the existing decode pipeline,
// lock-free estimate reads via the counters' published snapshots, and
// crash-consistent durability: every ingest is written ahead to a
// per-tenant segmented log (wal.go) before it is acked, periodic
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
// parallel); estimate GETs on whole-stream tenants read the published
// snapshot and never wait on ingestion.
package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"regexp"
	"sort"
	"sync"
	"time"

	"streamtri"
	"streamtri/internal/stream"
)

// CounterConfig is a tenant's counter configuration, fixed at creation.
type CounterConfig struct {
	// R is the estimator count (required, >= 1). Accuracy grows with R.
	R int `json:"r"`
	// P is the shard count for parallel processing (default 1; must
	// satisfy 1 <= P <= R). Ignored for windowed tenants.
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
	if c.P == 0 {
		c.P = 1
	}
	if c.Window == 0 && (c.P < 1 || c.P > c.R) {
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

// effectiveBatchSize is the batch size w the pipeline will actually
// use, mirroring the library default (min(8·R, 1<<23)). The WAL logs
// one block per batch, so durable tenants must keep w within the block
// format's record limit.
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

// tenant is one named counter plus its ingest lock. Exactly one of pc
// (whole-stream) and sw (windowed) is non-nil; both are durable.
type tenant struct {
	name string
	cfg  CounterConfig

	// mu serializes ingestion, checkpointing, windowed estimates, and
	// teardown. Whole-stream estimate reads deliberately do NOT take it:
	// they go through the counter's atomically-published snapshot.
	mu     sync.Mutex
	closed bool
	pc     *streamtri.ParallelTriangleCounter
	sw     *streamtri.SlidingWindowCounter

	// wal is the tenant's write-ahead log; nil on volatile servers.
	wal *walWriter

	// ckptEdges is the edge count captured by the last checkpoint
	// (under mu); checkpoints are skipped while it matches Edges().
	ckptEdges uint64
}

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

// nameRE bounds tenant names to path- and filename-safe tokens (the
// name becomes a checkpoint filename). Dots are excluded on purpose:
// quarantined files (<name>.corrupt.*) must never collide with a live
// tenant's namespace.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_-]{0,63}$`)

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
		info := CounterInfo{Name: t.name, Config: t.cfg}
		if t.pc != nil {
			info.Edges = t.pc.Snapshot().Edges
		} else {
			t.mu.Lock()
			info.Edges = t.sw.StreamLength()
			t.mu.Unlock()
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !nameRE.MatchString(name) {
		httpError(w, http.StatusBadRequest, "invalid counter name %q (want %s)", name, nameRE)
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
	t := &tenant{name: name, cfg: cfg}
	if cfg.Window > 0 {
		t.sw = streamtri.NewSlidingWindowCounter(cfg.R, cfg.Window, cfg.options()...)
	} else {
		t.pc = streamtri.NewParallelTriangleCounter(cfg.R, cfg.P, cfg.options()...)
	}
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
			teardown(t)
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
	if t.pc != nil {
		t.pc.Close()
	}
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
	src, err := bodySource(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		httpError(w, http.StatusNotFound, "no counter %q", name)
		return
	}
	if t.wal != nil {
		if werr := t.wal.beginRequest(); werr != nil {
			httpError(w, http.StatusServiceUnavailable, "wal unavailable: %v", werr)
			return
		}
		// Log every decoded batch before the counter sees it; the block
		// boundaries written here are the AddBatch boundaries recovery
		// replays.
		src = newWALTee(src, t.wal)
	}
	var (
		st    streamtri.StreamStats
		total uint64
	)
	if t.pc != nil {
		st, err = t.pc.CountStream(r.Context(), src)
		// Publish before acking: once the client sees this response, a
		// GET estimate must be able to reflect every edge it sent.
		t.pc.Flush()
		total = t.pc.Edges()
	} else {
		st, err = t.sw.CountStream(r.Context(), src)
		total = t.sw.StreamLength()
	}
	if t.wal != nil {
		// A request that died between decoder and counter leaves logged
		// blocks the counter never absorbed; cut them off so the log
		// stays in lockstep at POST boundaries. (After a crash the fault
		// layer skips this — recovery owns reconciliation.)
		if rerr := t.wal.endRequest(total); rerr != nil {
			s.logf("serve: tenant %q: %v", name, rerr)
			if err == nil {
				httpError(w, http.StatusInternalServerError, "ingest not durable after %d edges: %v", st.Edges, rerr)
				return
			}
		}
		if err == nil && s.policy == FsyncAlways {
			// The ack-durability contract: the response leaves only after
			// this request's blocks are on stable storage.
			if serr := t.wal.sync(); serr != nil {
				httpError(w, http.StatusInternalServerError, "ingest not durable after %d edges: %v", st.Edges, serr)
				return
			}
		}
	}
	if err != nil {
		// The counter remains valid and reflects exactly st.Edges edges;
		// report how far ingestion got alongside the failure.
		httpError(w, http.StatusBadRequest, "ingest failed after %d edges: %v", st.Edges, err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResult{
		Edges:      st.Edges,
		BadRecords: st.BadRecords,
		TotalEdges: total,
	})
}

// bodySource builds a decoder Source over the request body. The format
// is chosen by the ?format query parameter (text|binary), defaulting by
// Content-Type: application/octet-stream means binary, anything else
// text. Binary bodies may be any flavor — the 8-byte plain format, the
// timestamped 16-byte v1 format, or the block-structured v2 format —
// dispatched by the shared magic sniff, with timestamps stripped
// (arrival order is the stream order either way). Text bodies already
// tolerate a numeric third column natively.
func bodySource(r *http.Request) (streamtri.Source, error) {
	format := r.URL.Query().Get("format")
	if format == "" {
		if r.Header.Get("Content-Type") == "application/octet-stream" {
			format = "binary"
		} else {
			format = "text"
		}
	}
	switch format {
	case "text":
		return streamtri.NewEdgeListSource(r.Body), nil
	case "binary":
		br := bufio.NewReader(r.Body)
		prefix, err := br.Peek(8)
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("reading body: %w", err)
		}
		switch streamtri.SniffFormat(prefix) {
		case streamtri.FormatTimestampedBinary:
			return streamtri.StripTimestamps(streamtri.NewTimestampedBinaryEdgeSource(br)), nil
		case streamtri.FormatBlockBinary:
			return streamtri.StripTimestamps(streamtri.NewBlockBinaryEdgeSource(br)), nil
		}
		return streamtri.NewBinaryEdgeSource(br), nil
	default:
		return nil, fmt.Errorf("unknown format %q (want text or binary)", format)
	}
}

// EstimateResult is the GET .../estimate response: one consistent
// snapshot of the tenant's estimates.
type EstimateResult struct {
	// Edges is the stream prefix the estimates reflect: the last batch
	// boundary for whole-stream tenants (edges of an in-flight POST may
	// not be included yet), the full stream for windowed ones.
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
	if t.pc != nil {
		// The serving read path: no locks, never blocked by an in-flight
		// ingest — the snapshot published at the last batch boundary.
		snap := t.pc.Snapshot()
		writeJSON(w, http.StatusOK, EstimateResult{
			Edges:        snap.Edges,
			Triangles:    snap.Triangles,
			Wedges:       snap.Wedges,
			Transitivity: snap.Transitivity,
		})
		return
	}
	// The window estimator has no snapshot read path; estimates take the
	// ingest lock and wait for any in-flight POST.
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		httpError(w, http.StatusNotFound, "no counter %q", name)
		return
	}
	writeJSON(w, http.StatusOK, EstimateResult{
		Edges:       t.sw.StreamLength(),
		Triangles:   t.sw.EstimateTriangles(),
		WindowEdges: t.sw.WindowEdges(),
	})
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
