// Command factserve runs the multi-tenant factorization service: a long-lived
// HTTP front over one shared virtual cluster, multiplexing any number of
// concurrent LU/Cholesky jobs through per-job tile namespaces, an admission
// controller (priorities, slot and memory budgets, bounded queue) and a
// pattern cache.
//
// Usage:
//
//	factserve -addr :8344 -p 8 -b 16 -max 4
//
// Then drive it over HTTP:
//
//	curl -s -X POST localhost:8344/jobs -d '{"kind":"lu","mt":8,"seed":1}'
//	curl -s localhost:8344/jobs/1
//	curl -s localhost:8344/jobs/1/result
//	curl -s -X DELETE localhost:8344/jobs/2
//	curl -s 'localhost:8344/stats?format=text'
//
// SIGINT/SIGTERM shut the service down gracefully: admission stops, running
// jobs are cancelled through their namespaces, and the final text summary is
// printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"anybc/internal/cluster"
	"anybc/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8344", "HTTP listen address")
		p        = flag.Int("p", 8, "shared cluster node count (every job spans all nodes)")
		b        = flag.Int("b", 16, "tile side (every job uses it)")
		maxJobs  = flag.Int("max", 4, "concurrent running-jobs budget")
		queueCap = flag.Int("queue", 64, "admission queue capacity")
		memMB    = flag.Int64("mem", 0, "memory budget for running jobs, in MiB (0 = unlimited)")
		maxMt    = flag.Int("max-mt", 64, "largest accepted tile dimension mt")
		workers  = flag.Int("workers", 1, "default per-node worker count")
		tree     = flag.Bool("tree", false, "binomial-tree broadcast transport instead of flat fan-out")
	)
	flag.Parse()

	cfg := serve.Config{
		P:              *p,
		B:              *b,
		MaxConcurrent:  *maxJobs,
		QueueCap:       *queueCap,
		MemBudgetBytes: *memMB << 20,
		MaxMt:          *maxMt,
		Workers:        *workers,
	}
	if *tree {
		cfg.Broadcast = cluster.BroadcastTree
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "factserve:", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("factserve: listening on %s (P=%d, b=%d, max %d concurrent jobs)\n",
		*addr, *p, *b, *maxJobs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "factserve:", err)
			os.Exit(1)
		}
	case <-sig:
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	srv.Close()
	fmt.Print(srv.Summary())
}
