package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"neo/internal/serve"
	"neo/pkg/neo"
)

// workloadDef is one traffic mix: the system configuration it opens, how
// many closed-loop clients drive it and what each of their queries does.
type workloadDef struct {
	name string
	cfg  neo.Config
	// retrainEvery is serve.Config.RetrainEvery (0: the server never trains).
	retrainEvery int
	// bootstrap trains the value network from the expert during set-up, as
	// a cold neo-serve does.
	bootstrap bool
	clients   int
	// distinct is the number of distinct queries generated from the seed.
	distinct int
	// pick selects how a client chooses its next query.
	pick pickMode
	// execute runs the served plan on the engine; feedback then posts its
	// measured latency to /feedback.
	execute, feedback bool
	// setups is how many times a run sets the system up; setup_s is the
	// median. Cheap set-ups are repeated more, to steady the median.
	setups int
	// exactOps is the number of leading queries whose counters repeat
	// exactly for a seed: plan quality and search effort on search-cold
	// (first exactOps query indices), executor and storage counters on the
	// single-client exec-evict (first exactOps queries run).
	exactOps int
}

type pickMode int

const (
	// pickFresh hands every query index out once, across all clients, so
	// every request misses the plan cache.
	pickFresh pickMode = iota
	// pickZipf draws each client's queries Zipf-skewed from its own stream.
	pickZipf
	// pickCycle walks the query set in order, over and over.
	pickCycle
)

// neo-serve's defaults: bootstrap size and the imdb scale it opens.
const (
	serveBootstrapQueries = 16
	serveScale            = 0.4
	systemSeed            = 42
)

var workloads = []workloadDef{
	{
		name: "search-cold",
		cfg: neo.Config{
			Dataset: "imdb", Engine: "postgres", Encoding: neo.RVector, Scale: serveScale, Seed: systemSeed,
			SearchExpansions: 256, FuseScoring: true, ScorePrecision: "float32", Routing: "full",
		},
		bootstrap: true,
		clients:   2,
		distinct:  4000,
		pick:      pickFresh,
		setups:    3,
		exactOps:  64,
	},
	{
		name: "learn-loop",
		cfg: neo.Config{
			Dataset: "imdb", Engine: "disk", Encoding: neo.RVector, Scale: serveScale, Seed: systemSeed,
			SearchExpansions: 256, FuseScoring: true, ScorePrecision: "float32", Routing: "auto",
		},
		retrainEvery: 16,
		bootstrap:    true,
		clients:      2,
		distinct:     300,
		pick:         pickZipf,
		execute:      true,
		feedback:     true,
		setups:       3,
	},
	{
		// Heap files of ~1.4 MiB against a 1 MiB pool: about 3% of page
		// accesses miss and evict. The featurization is never used under
		// fast-path routing, so the cheapest one is opened.
		name: "exec-evict",
		cfg: neo.Config{
			Dataset: "imdb", Engine: "disk", Encoding: neo.Histogram, Scale: 2, Seed: systemSeed,
			BufferPoolMB: 1, Routing: "fastpath",
		},
		clients:  1,
		distinct: 1200,
		pick:     pickCycle,
		execute:  true,
		setups:   7,
		exactOps: 600,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// instance is one set-up system with its server and disk directory.
type instance struct {
	sys     *neo.System
	srv     *serve.Server
	dataDir string
	// bootstrapTrain is the value-network training time spent in set-up.
	bootstrapTrain time.Duration
}

// setup opens the workload's system exactly as neo-serve's cold start does,
// materializing heap files into a fresh directory under work, bootstraps it
// from the expert when the workload learns, and wraps it in the server. The
// returned duration is the set-up time.
func setup(w workloadDef, work string) (*instance, time.Duration, error) {
	dir := ""
	if w.cfg.Engine == "disk" {
		var err error
		if dir, err = os.MkdirTemp(work, w.name+"-"); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	cfg := w.cfg
	cfg.DataDir = dir
	sys, err := neo.Open(cfg)
	if err != nil {
		return nil, 0, err
	}
	in := &instance{sys: sys, dataDir: dir}
	if w.bootstrap {
		wl, err := sys.GenerateWorkload(serveBootstrapQueries)
		if err != nil {
			in.close()
			return nil, 0, err
		}
		if err := sys.Bootstrap(wl.Queries); err != nil {
			in.close()
			return nil, 0, err
		}
	}
	in.srv = serve.New(sys, serve.Config{RetrainEvery: w.retrainEvery})
	in.srv.Start()
	elapsed := time.Since(start)
	in.bootstrapTrain = sys.Neo.TrainingTime()
	return in, elapsed, nil
}

// close stops the server (waiting for any retraining round in flight),
// releases the heap files and deletes them.
func (in *instance) close() error {
	var err error
	if in.srv != nil {
		err = in.srv.Close()
	}
	if cerr := in.sys.Close(); err == nil {
		err = cerr
	}
	if in.dataDir != "" {
		if rerr := os.RemoveAll(in.dataDir); err == nil {
			err = rerr
		}
	}
	return err
}

func workDir(base, name string) (string, error) {
	dir := filepath.Join(base, name)
	return dir, os.MkdirAll(dir, 0o755)
}
