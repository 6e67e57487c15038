// vwserver is the engine's TCP front-end: one session per connection,
// statements terminated by ';', responses framed by internal/wire. The
// session pool throttles concurrent queries (admission control + memory
// budgets) while cooperative scans share physical reads between
// connections hitting the same table.
//
// Try it:
//
//	vwserver -listen :5433 -init schema.sql &
//	vwsql -connect :5433
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vectorwise/internal/debughttp"
	"vectorwise/internal/engine"
	"vectorwise/internal/metrics"
	"vectorwise/internal/session"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:5433", "address to listen on")
	dataDir := flag.String("data-dir", "", "durable data directory with WAL and checkpoints (empty = in-memory)")
	idleSec := flag.Int("idle-timeout-sec", 0, "close connections idle longer than this many seconds (0 disables)")
	pool := flag.Int("pool", 4, "max queries running concurrently")
	queue := flag.Int("queue", 16, "max queries queued for admission (-1 disables queueing)")
	memBudgetMB := flag.Int64("mem-budget-mb", 0, "total query-memory budget in MiB (0 = unlimited)")
	queryBudgetMB := flag.Int64("query-budget-mb", 0, "per-query memory budget in MiB (0 = unlimited)")
	parallel := flag.Int("parallel", 0, "default degree of parallelism per query")
	bufferGroups := flag.Int("buffer-groups", 0, "shared buffer-pool capacity in row groups (0 = default)")
	initScript := flag.String("init", "", "SQL script to execute before accepting connections")
	drainSec := flag.Int("drain-timeout-sec", 10, "graceful-shutdown drain timeout in seconds")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (off when empty)")
	slowMs := flag.Int("slow-query-ms", 0, "log queries slower than this many milliseconds (0 disables)")
	flag.Parse()

	var db *engine.DB
	if *dataDir != "" {
		var info *engine.RecoveryInfo
		var err error
		db, info, err = engine.OpenDir(*dataDir)
		if err != nil {
			log.Fatalf("vwserver: open %s: %v", *dataDir, err)
		}
		log.Printf("vwserver: %s: %s", *dataDir, info.Summary())
	} else {
		db = engine.Open()
	}
	db.Parallel = *parallel
	if *bufferGroups > 0 {
		db.BufferGroups = *bufferGroups
	}
	if *slowMs > 0 {
		db.Monitor.SetSlowThreshold(time.Duration(*slowMs) * time.Millisecond)
	}
	if *initScript != "" {
		text, err := os.ReadFile(*initScript)
		if err != nil {
			log.Fatalf("vwserver: %v", err)
		}
		if _, err := db.ExecScript(context.Background(), string(text)); err != nil {
			log.Fatalf("vwserver: init script: %v", err)
		}
	}
	if *debugAddr != "" {
		debughttp.Serve(*debugAddr, metrics.Default, db.Monitor)
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics, /queries, /debug/pprof)\n", *debugAddr)
	}

	p := session.NewPool(db, session.Config{
		MaxConcurrent: *pool,
		MaxQueue:      *queue,
		MemBudget:     *memBudgetMB << 20,
		QueryBudget:   *queryBudgetMB << 20,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("vwserver: %v", err)
	}
	srv := newServer(p, ln)
	srv.idleTimeout = time.Duration(*idleSec) * time.Second
	log.Printf("vwserver listening on %s (pool=%d queue=%d)", ln.Addr(), *pool, *queue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.serve() }()
	select {
	case <-sig:
		log.Printf("vwserver: shutting down (drain %ds)", *drainSec)
		srv.shutdown(time.Duration(*drainSec) * time.Second)
		// Close the WAL only after the pool has drained every session.
		if err := db.Close(); err != nil {
			log.Fatalf("vwserver: close: %v", err)
		}
	case err := <-errc:
		if err != nil {
			log.Fatalf("vwserver: %v", err)
		}
	}
}
