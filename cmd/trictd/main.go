// Command trictd ("triangle count daemon") is the resident serving
// process: it hosts many named triangle counters (one per tenant/graph)
// behind an HTTP JSON API, ingests each POST in its request handler
// (every batch decoded from the body is logged, then absorbed; different
// counters ingest concurrently), and answers estimate queries while
// ingesting — estimate reads load, without a lock, the estimates each
// counter publishes at every batch boundary, windowed ones included, so
// a slow query never stalls an ingest and an ingest burst never stalls
// queries.
//
// Usage:
//
//	trictd -addr :8080 -data /var/lib/trictd
//	trictd -addr 127.0.0.1:0 -addr-file /tmp/trictd.addr -data ./data
//
// API:
//
//	PUT    /v1/counters/{name}           create a counter; JSON body
//	                                     {"r":..., "p":..., "window":...,
//	                                      "seed":..., "batch_size":...}
//	POST   /v1/counters/{name}/edges     ingest; the body is an edge
//	                                     stream in the text or binary
//	                                     format (?format=text|binary,
//	                                     default by Content-Type; binary
//	                                     flavors are sniffed by magic)
//	GET    /v1/counters/{name}/estimate  triangles/wedges/transitivity at
//	                                     the last batch boundary
//	DELETE /v1/counters/{name}           drop the counter and its
//	                                     checkpoints
//	GET    /v1/counters                  list counters
//	POST   /v1/checkpoint                checkpoint all counters now
//	GET    /healthz                      liveness
//
// Durability: with -data set, every ingest POST is written ahead to a
// per-tenant segmented log before it is acked — under the default
// -wal-sync always, fsynced before the ack, so an acked edge survives
// kill -9 and power loss; -wal-sync interval trades that for one
// background fsync per -wal-sync-interval, and -wal-sync none leaves
// flushing to the OS. Counters are additionally checkpointed on a
// -checkpoint-interval timer (skipped while idle), on POST
// /v1/checkpoint, and once more during shutdown, keeping the newest
// -checkpoint-retain generations per counter. On startup the newest
// valid generation is restored and the log tail replayed, bit-identical
// to a process that never crashed; a generation that fails validation
// falls back to an older one, and a tenant that is unrecoverable after
// every fallback is quarantined (files renamed to <name>.corrupt.*)
// instead of blocking startup.
//
// Shutdown: SIGTERM/SIGINT stops accepting connections, drains
// in-flight requests up to -drain-timeout, takes the final checkpoint,
// and exits 0. SIGKILL is the case the WAL exists for.
//
// Memory: once recovery is done and before the listener opens, trictd
// sets the garbage collector's percent to 50: a serving heap then grows
// to 1.5× its live size, and at least 2 MB, before a collection, in
// place of the runtime's 2× and 4 MB. Serving leaves only a few KB of
// garbage per request, so the lower goal costs a few more short
// collections and keeps less memory resident. Recovery runs at the
// runtime's default, so restoring checkpoints and replaying the WAL,
// which allocate more, run no extra collections; lowering the goal
// afterwards costs at most one, when the heap recovery left is above
// it. A GOGC in trictd's environment, whatever its value, is the
// operator's, and trictd leaves it in force throughout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"streamtri/internal/serve"
)

// HTTP connection limits. A connection that has not sent a whole request
// header readHeaderTimeout after it opened (or after its first byte of a
// later request) is closed, and so is a keep-alive connection left idle
// for idleTimeout between requests. Request bodies get no deadline here:
// a large ingest POST may rightly take long to send.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// servingGCPercent is the collector's percent while trictd serves (see
// Memory above).
const servingGCPercent = 50

// setServingGC sets the collector's percent to servingGCPercent unless
// GOGC is in the environment that lookup (os.LookupEnv) reads.
func setServingGC(lookup func(key string) (string, bool)) {
	if _, set := lookup("GOGC"); !set {
		debug.SetGCPercent(servingGCPercent)
	}
}

// newHTTPServer returns trictd's HTTP server for h, closing connections
// that take longer than readHeader to send a request header or sit idle
// longer than idle between requests.
func newHTTPServer(h http.Handler, readHeader, idle time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeader, IdleTimeout: idle}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trictd:", err)
	os.Exit(1)
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		addrFile     = flag.String("addr-file", "", "write the bound listen address to this file (for scripts using port 0)")
		dataDir      = flag.String("data", "", "data directory (WAL + checkpoints); empty disables durability")
		interval     = flag.Duration("checkpoint-interval", 30*time.Second, "periodic checkpoint interval (requires -data)")
		walSync      = flag.String("wal-sync", "always", "WAL fsync policy: always (fsync before every ingest ack), interval (background fsync timer), none (requires -data)")
		walSyncEvery = flag.Duration("wal-sync-interval", time.Second, "background WAL fsync period (requires -wal-sync interval)")
		retain       = flag.Int("checkpoint-retain", 2, "checkpoint generations to keep per counter, >= 1 (requires -data)")
		drain        = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget for in-flight requests")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	// Reject flag combinations that would otherwise be silently dead: a
	// durability knob without -data configures nothing, and an explicit
	// -wal-sync-interval is meaningless unless the interval policy is on.
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *dataDir == "" {
		for _, name := range []string{"wal-sync", "wal-sync-interval", "checkpoint-retain", "checkpoint-interval"} {
			if set[name] {
				fatal(fmt.Errorf("-%s has no effect without -data", name))
			}
		}
	}
	policy, err := serve.ParseFsyncPolicy(*walSync)
	if err != nil {
		fatal(err)
	}
	if set["wal-sync-interval"] && policy != serve.FsyncInterval {
		fatal(fmt.Errorf("-wal-sync-interval has no effect with -wal-sync %s (want -wal-sync interval)", policy))
	}
	if *retain < 1 {
		fatal(fmt.Errorf("-checkpoint-retain must be >= 1, got %d", *retain))
	}
	if *walSyncEvery <= 0 {
		fatal(fmt.Errorf("-wal-sync-interval must be positive, got %s", *walSyncEvery))
	}
	logger := log.New(os.Stderr, "trictd: ", log.LstdFlags)

	srv, err := serve.NewServer(*dataDir,
		serve.WithWALSyncPolicy(policy),
		serve.WithWALSyncInterval(*walSyncEvery),
		serve.WithCheckpointRetention(*retain),
		serve.WithLogf(logger.Printf),
	)
	if err != nil {
		fatal(fmt.Errorf("recovering from %s: %w", *dataDir, err))
	}
	setServingGC(os.LookupEnv)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fatal(fmt.Errorf("writing -addr-file: %w", err))
		}
	}
	logger.Printf("listening on %s (data dir %q)", ln.Addr(), *dataDir)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	httpSrv := newHTTPServer(srv.Handler(), readHeaderTimeout, idleTimeout)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// The checkpoint loop runs until shutdown and takes a final
	// checkpoint on its way out (after the drain below, so it includes
	// every acked ingest).
	ckptDone := make(chan struct{})
	ckptCtx, stopCkpt := context.WithCancel(context.Background())
	go func() {
		defer close(ckptDone)
		srv.Run(ckptCtx, *interval, func(err error) { logger.Printf("checkpoint: %v", err) })
	}()

	select {
	case err := <-serveErr:
		fatal(fmt.Errorf("serving: %w", err))
	case <-ctx.Done():
	}
	logger.Printf("signal received; draining (budget %s)", *drain)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("drain incomplete: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("server: %v", err)
	}

	// Stop the loop; its exit path runs the final CheckpointAll, and
	// Close closes any tenant WALs (re-checkpointing is a no-op).
	stopCkpt()
	<-ckptDone
	if err := srv.Close(); err != nil {
		fatal(fmt.Errorf("final checkpoint: %w", err))
	}
	logger.Printf("checkpointed and stopped")
}
