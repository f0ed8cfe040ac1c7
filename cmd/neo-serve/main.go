// Command neo-serve runs the learned optimizer as a long-lived
// online-learning HTTP daemon: it serves plans from the value-network
// snapshot and plan cache (POST /optimize), ingests observed latencies as
// experience (POST /feedback) and retrains in the background every N
// feedbacks, reports serving counters (GET /stats), and checkpoints the
// learned state periodically and on SIGINT/SIGTERM so a warm restart serves
// bit-identical plans.
//
// Usage:
//
//	neo-serve -addr :8080 -checkpoint neo.ckpt
//	neo-serve -dataset corp -engine engine-m -retrain-every 32
//
// On startup the daemon restores -load (or, if that is unset, an existing
// -checkpoint file); with neither present it bootstraps from the
// PostgreSQL-profile expert over a generated workload.
//
// Two cluster modes turn the daemon into part of the distributed serving
// tier (see OPERATIONS.md):
//
//	neo-serve -trainer http://trainer:7790        # replica: snapshots from
//	                                              # the trainer, feedback
//	                                              # forwarded to it
//	neo-serve -route http://r1:8080,http://r2:8080  # thin router: shard
//	                                              # traffic over replicas
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"neo/internal/cluster"
	"neo/internal/cluster/proto"
	"neo/internal/serve"
	"neo/pkg/neo"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		dataset      = flag.String("dataset", "imdb", "synthetic dataset: imdb, tpch or corp")
		engineName   = flag.String("engine", "postgres", "execution engine: postgres, sqlite, engine-m, engine-o (simulated) or disk (heap files + buffer pool, measured wall-clock latencies)")
		bufferPoolMB = flag.Int("buffer-pool-mb", 0, "disk engine buffer-pool size in MiB (0 = default 16)")
		dataDir      = flag.String("data-dir", "", "disk engine data directory holding the heap files (empty = fresh temp dir; pre-materialize with neo-datagen -out)")
		encoding     = flag.String("encoding", "r-vector", "featurization: 1-hot, histogram, r-vector, r-vector-nojoins")
		scale        = flag.Float64("scale", 0.4, "synthetic data scale factor")
		seed         = flag.Int64("seed", 42, "random seed")
		queries      = flag.Int("queries", 16, "bootstrap workload size (cold start only)")
		expansions   = flag.Int("expansions", 256, "plan-search expansion budget")
		workers      = flag.Int("workers", 0, "planning worker-pool size (0 = GOMAXPROCS)")
		trainWorkers = flag.Int("train-workers", 0, "gradient worker-pool size (0 = GOMAXPROCS)")
		load         = flag.String("load", "", "checkpoint file to restore on startup (overrides -checkpoint for loading)")
		ckpt         = flag.String("checkpoint", "", "checkpoint file to write periodically and on shutdown (also restored on startup when present and -load is unset)")
		ckptEvery    = flag.Duration("checkpoint-interval", 5*time.Minute, "periodic checkpoint interval (requires -checkpoint)")
		retrainEvery = flag.Int("retrain-every", 16, "trigger a background retraining round every N feedbacks (0 disables)")
		maxExp       = flag.Int("max-experience", 0, "experience-pool cap; oldest entries are dropped beyond it (0 = default 100000, negative = unbounded)")
		fuse         = flag.Bool("fuse-scoring", true, "score requests through a per-snapshot score memo that skips already-scored plans (bit-identical plans; see /stats fusion counters)")
		scorePrec    = flag.String("score-precision", "float32", "numeric format the frozen serving snapshot scores plans with: float64 (exact) or float32 (packed tiled-GEMM kernels). Training and checkpoints always stay float64.")
		routing      = flag.String("routing", "full", "query routing: full (every query takes the learned best-first search), fastpath (statistics-free greedy planner for every query) or auto (per-class routing — greedy microsecond planning for chains/stars, full search for hard shapes, refined online from observed-latency regret; see /stats routing section)")
		trainerURL   = flag.String("trainer", "", "trainer base URL; switches the daemon into replica mode (no local training, feedback forwarded, snapshots pulled)")
		flushEvery   = flag.Duration("flush-every", 0, "replica mode: experience forwarding interval (0 = default 250ms)")
		flushBatch   = flag.Int("flush-batch", 0, "replica mode: entries per forwarded experience container (0 = default 64)")
		maxQueue     = flag.Int("max-queue", 0, "replica mode: forwarding-queue bound; oldest entries are dropped beyond it when the trainer is down (0 = default 4096)")
		route        = flag.String("route", "", "comma-separated replica base URLs; runs the thin consistent-hash router instead of a serving daemon (no database is opened)")
	)
	flag.Parse()

	if *route != "" {
		runRouter(*addr, *route)
		return
	}

	sys, err := neo.Open(neo.Config{
		Dataset:          *dataset,
		Engine:           *engineName,
		DataDir:          *dataDir,
		BufferPoolMB:     *bufferPoolMB,
		Encoding:         neo.Encoding(*encoding),
		Scale:            *scale,
		Seed:             *seed,
		SearchExpansions: *expansions,
		Workers:          *workers,
		TrainWorkers:     *trainWorkers,
		FuseScoring:      *fuse,
		ScorePrecision:   *scorePrec,
		Routing:          *routing,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("neo-serve: dataset=%s engine=%s encoding=%s rows=%d\n",
		*dataset, *engineName, *encoding, sys.DB.TotalRows())

	restore := *load
	if restore == "" && *ckpt != "" {
		if _, err := os.Stat(*ckpt); err == nil {
			restore = *ckpt
		}
	}
	switch {
	case restore != "":
		if err := sys.LoadCheckpointFile(restore); err != nil {
			fatal(err)
		}
		fmt.Printf("neo-serve: warm start from %s (net version %d, %d experience entries)\n",
			restore, sys.Neo.NetVersion(), sys.Neo.Experience.Len())
	case *trainerURL != "":
		// Replica cold start: the trainer's snapshot replaces bootstrapping —
		// the pull below delivers trained weights into the fresh network.
	default:
		fmt.Printf("neo-serve: cold start, bootstrapping from the expert over %d queries ...\n", *queries)
		wl, err := sys.GenerateWorkload(*queries)
		if err != nil {
			fatal(err)
		}
		if err := sys.Bootstrap(wl.Queries); err != nil {
			fatal(err)
		}
	}

	cfg := serve.Config{
		CheckpointPath:  *ckpt,
		CheckpointEvery: *ckptEvery,
		RetrainEvery:    *retrainEvery,
		MaxExperience:   *maxExp,
	}
	if *trainerURL != "" {
		cfg.Replica = &serve.ReplicaConfig{
			TrainerURL: strings.TrimSuffix(*trainerURL, "/"),
			FlushEvery: *flushEvery,
			FlushBatch: *flushBatch,
			MaxQueue:   *maxQueue,
		}
	}
	srv := serve.New(sys, cfg)
	if *trainerURL != "" {
		// Join the fleet at the trainer's published snapshot. Best effort: a
		// trainer that is down at startup leaves the replica serving from its
		// current (restored or untrained) weights until the first successful
		// /admin/snapshot — degraded, not down.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if v, err := srv.SyncSnapshot(ctx, 0); err != nil {
			fmt.Fprintf(os.Stderr, "neo-serve: warning: snapshot sync from %s failed (%v); serving local weights until the trainer returns\n", *trainerURL, err)
		} else {
			fmt.Printf("neo-serve: replica of %s, serving snapshot version %d\n", *trainerURL, v)
		}
		cancel()
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("neo-serve: listening on %s\n", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("neo-serve: %v, shutting down ...\n", sig)
	case err := <-errCh:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "neo-serve: shutdown:", err)
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	if err := sys.Close(); err != nil {
		fatal(err)
	}
	if *ckpt != "" {
		fmt.Printf("neo-serve: final checkpoint written to %s\n", *ckpt)
	}
}

// runRouter serves the thin consistent-hash router: no database, no
// network weights — just SpecKey sharding and ring-order failover over the
// replica fleet.
func runRouter(addr, list string) {
	var fleet []string
	for _, u := range strings.Split(list, ",") {
		if u = strings.TrimSuffix(strings.TrimSpace(u), "/"); u != "" {
			fleet = append(fleet, u)
		}
	}
	rt, err := cluster.NewRouter(fleet, proto.Client{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("neo-serve: routing over %d replicas\n", len(fleet))
	httpSrv := &http.Server{Addr: addr, Handler: rt}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("neo-serve: listening on %s\n", addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("neo-serve: %v, shutting down ...\n", sig)
	case err := <-errCh:
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "neo-serve: shutdown:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neo-serve:", err)
	os.Exit(1)
}
