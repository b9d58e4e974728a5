// Command yaskd serves the YASK web service: the spatial keyword top-k
// query engine and why-not question answering engine behind a JSON API
// and an embedded map UI (the browser–server deployment of the paper's
// Fig. 1).
//
// Usage:
//
//	yaskd [-addr :8080] [-data hotels.json] [-session-ttl 30m]
//	      [-signatures=false] [-cache=off] [-cache-entries 4096]
//	      [-cache-bytes 67108864] [-data-dir ./yask-data] [-fsync always]
//	      [-fsync-interval 100ms] [-checkpoint-every 1000] [-mmap-arenas]
//	      [-query-timeout 30s] [-max-inflight 0] [-queue-depth 64]
//	      [-queue-wait 1s]
//
// Without -data it serves the built-in demo dataset, a deterministic
// synthetic stand-in for the paper's 539 Hong Kong hotels.
//
// -signatures (default true) controls the keyword-signature pruning
// layer baked into the index arenas; answers are byte-identical either
// way, and the live hit rate (sigHitRate, plus per-family probe/hit
// counters) is reported on GET /api/stats.
//
// The epoch-keyed result cache is on by default: repeated queries
// against an unchanged snapshot are answered from memory, and every
// refresh/recovery silently orphans stale entries, so answers
// never change. -cache=off disables it; -cache-entries and -cache-bytes
// bound it (0 = defaults: 4096 entries, 64 MiB). Live hit rate and
// sizes are in the cache section of GET /api/stats.
//
// GET /api/subscribe registers a continuous top-k query (parameters
// x, y, k, keywords, and optional wt/similarity in the URL) and streams
// result updates as server-sent events; see the README for a curl
// example.
//
// -data-dir enables crash-safe durability: every accepted insert and
// remove is appended to a write-ahead log in that directory before it
// mutates the engine, and checkpoints snapshot the whole collection.
// On startup the engine recovers from the newest valid checkpoint plus
// the log; -data/-demo seed the very first boot only. -fsync selects
// the acknowledgement policy (always, interval, none), -fsync-interval
// the flush period of "interval", and -checkpoint-every the automatic
// checkpoint cadence (0 = only POST /api/checkpoint and shutdown).
// On SIGINT/SIGTERM the server drains in-flight requests, writes a
// final checkpoint, and closes the log.
//
// Request lifecycle: every query request gets a server-side deadline of
// -query-timeout (0 disables); work past the deadline is abandoned
// cooperatively and answered 503. -max-inflight caps concurrently
// executing queries (0 = unlimited); excess requests wait in a FIFO
// queue of -queue-depth for at most -queue-wait, and everything beyond
// that is shed with 429 + Retry-After. GET /api/healthz is the
// liveness probe; GET /api/readyz reports 503 while the engine is
// still booting (including WAL recovery replay) and again once
// shutdown drain begins, so load balancers route around the process.
// Admission counters are in the admission section of GET /api/stats.
//
// -mmap-arenas (requires -data-dir) additionally persists
// the frozen index arenas next to every checkpoint and boots by
// memory-mapping them instead of rebuilding the indexes; a damaged
// arena file silently falls back to the ordinary rebuild. The arena
// section of GET /api/stats shows whether the current boot mapped or
// rebuilt. See docs/FORMATS.md for the file format.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/yask-engine/yask"
	"github.com/yask-engine/yask/internal/server"
)

// shutdownTimeout bounds the in-flight request drain on SIGINT/SIGTERM;
// the final checkpoint runs after the drain, whatever its outcome.
const shutdownTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "dataset file (.json or .csv); empty serves the HK hotel demo")
	ttl := flag.Duration("session-ttl", server.DefaultSessionTTL, "idle lifetime of cached query sessions")
	signatures := flag.Bool("signatures", true, "enable the keyword-signature pruning layer (constant-time bitmap bounds before exact keyword merge-walks; identical answers either way)")
	cache := flag.String("cache", "on", "epoch-keyed result cache: on or off (identical answers either way)")
	cacheEntries := flag.Int("cache-entries", 0, "result-cache entry bound (0 = 4096)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result-cache byte bound (0 = 64 MiB)")
	dataDir := flag.String("data-dir", "", "directory for the write-ahead log and checkpoints; empty runs memory-only")
	fsync := flag.String("fsync", "always", "WAL acknowledgement policy: always (fsync before every mutation returns), interval (fsync on a timer), or none (leave flushing to the OS)")
	fsyncInterval := flag.Duration("fsync-interval", 0, "flush period of -fsync interval (0 = 100ms default)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "write a checkpoint automatically after this many logged mutations (0 = only POST /api/checkpoint and shutdown)")
	mmapArenas := flag.Bool("mmap-arenas", false, "persist index arenas alongside checkpoints and boot by memory-mapping them instead of rebuilding (requires -data-dir; damaged arenas fall back to a rebuild)")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "per-request deadline for query endpoints; expired work is abandoned cooperatively and answered 503 (0 disables)")
	maxInflight := flag.Int("max-inflight", 0, "cap on concurrently executing query requests; excess waits in the admission queue or is shed with 429 (0 = unlimited)")
	queueDepth := flag.Int("queue-depth", 64, "bound on query requests waiting for an inflight slot when -max-inflight is reached")
	queueWait := flag.Duration("queue-wait", time.Second, "longest a queued query request may wait for a slot before being shed with 429")
	flag.Parse()

	if *cache != "on" && *cache != "off" {
		log.Fatalf("unknown -cache %q (want on or off)", *cache)
	}
	opts := yask.EngineOptions{
		DisableSignatures: !*signatures,
		DisableCache:      *cache == "off",
		CacheEntries:      *cacheEntries, CacheBytes: *cacheBytes,
		DataDir: *dataDir, Fsync: *fsync,
		FsyncInterval: *fsyncInterval, CheckpointEvery: *checkpointEvery,
		MmapArenas: *mmapArenas,
	}
	// Listen before the engine opens: WAL recovery replay can take a
	// while, and during it the process must answer its probes — healthz
	// 200 (alive), readyz 503 (not ready) — instead of refusing
	// connections and getting restarted mid-recovery.
	// atomic.Value requires one consistent concrete type across stores,
	// and the boot gate (*http.ServeMux) and the real server
	// (*server.Server) are different ones — hence the box.
	type handlerBox struct{ h http.Handler }
	var handler atomic.Value // handlerBox: boot gate, swapped for the real server
	boot := http.NewServeMux()
	boot.HandleFunc("GET /api/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	boot.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"booting"}`)
	})
	handler.Store(handlerBox{boot})
	httpSrv := &http.Server{
		Addr: *addr,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(handlerBox).h.ServeHTTP(w, r)
		}),
		// A slow or stalled client must not pin a connection (and its
		// goroutine) forever; the write timeout also bounds the largest
		// batch response we'll stream. The /api/subscribe handler clears
		// its own write deadline — long-lived event streams are its
		// point — and relies on the engine's slow-client disconnect
		// instead.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("YASK listening on %s — open http://localhost%s/", *addr, portSuffix(*addr))
		errCh <- httpSrv.ListenAndServe()
	}()

	var (
		engine *yask.Engine
		err    error
	)
	if *data == "" {
		engine, err = yask.OpenHKDemoEngine(opts)
		if err != nil {
			log.Fatalf("opening engine: %v", err)
		}
		log.Printf("serving built-in demo dataset (%d HK hotels)", engine.Len())
	} else {
		engine, err = yask.LoadEngineWith(*data, opts)
		if err != nil {
			log.Fatalf("loading %s: %v", *data, err)
		}
		log.Printf("serving %s (%d objects)", *data, engine.Len())
	}
	if engine.Stats().Signatures {
		log.Printf("keyword-signature pruning enabled (256-bit arena bitmaps; hit rate on GET /api/stats)")
	} else {
		log.Printf("keyword-signature pruning disabled (-signatures=false): exact keyword merge-walks on every textual evaluation")
	}
	if c := engine.Stats().Cache; c != nil {
		log.Printf("result cache enabled (epoch-keyed; hit rate on GET /api/stats); continuous queries on GET /api/subscribe")
	} else {
		log.Printf("result cache disabled (-cache=off): every query re-traverses the indexes")
	}
	if d := engine.Stats().Durability; d != nil {
		log.Printf("durability on: %s (fsync %s, %d records replayed, checkpoint at LSN %d)",
			d.Dir, d.Fsync, d.ReplayedRecords, d.LastCheckpoint)
	}

	if *maxInflight > 0 {
		log.Printf("admission control on: %d inflight, queue %d (wait %s); excess shed with 429", *maxInflight, *queueDepth, *queueWait)
	}
	srv := server.New(engine, server.Config{
		SessionTTL:   *ttl,
		QueryTimeout: *queryTimeout,
		MaxInflight:  *maxInflight,
		QueueDepth:   *queueDepth,
		QueueWait:    *queueWait,
	})
	// Boot finished: swap the gate for the real server. Readiness flips
	// to 200 atomically with query availability.
	handler.Store(handlerBox{srv})

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down: draining in-flight requests (up to %s)", shutdownTimeout)
	// Flip readiness to 503 and force-close subscription streams first,
	// so Shutdown's drain cannot hang on an idle subscriber.
	srv.StartDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := engine.Checkpoint(); err != nil && !errors.Is(err, yask.ErrNotDurable) {
		log.Printf("final checkpoint: %v", err)
	}
	if err := engine.Close(); err != nil {
		log.Printf("closing engine: %v", err)
	}
	log.Printf("bye")
}

func portSuffix(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[i:]
		}
	}
	return fmt.Sprintf(":%s", addr)
}
