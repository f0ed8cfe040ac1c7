// Package bench holds the shared fixtures and runners behind the repo's
// benchmark-regression gate. cmd/neo-bench executes the suites with
// testing.Benchmark, emits one BENCH_<suite>.json per suite (ns/op and
// allocs/op per benchmark), and compares fresh results against the committed
// baselines — so CI fails when a hot path regresses rather than months later
// when someone happens to re-measure. The root *_bench_test.go files expose
// the same measurements through `go test -bench` for interactive use.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"neo/internal/checkpoint"
	"neo/internal/fastpath"
	"neo/internal/plan"
	"neo/internal/route"
	"neo/internal/sched"
	"neo/internal/search"
	"neo/internal/treeconv"
	"neo/internal/valuenet"
	"neo/pkg/neo"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Suite is the unit the gate compares: a named set of benchmark results,
// serialised as BENCH_<name>.json.
type Suite struct {
	Suite      string   `json:"suite"`
	Benchmarks []Result `json:"benchmarks"`
}

// Names lists the available suites in run order.
func Names() []string { return []string{"score", "train", "episode", "plan", "serve", "exec"} }

// Run executes one suite by name.
func Run(name string) (Suite, error) {
	switch name {
	case "score":
		return Scoring(), nil
	case "train":
		return Training(), nil
	case "episode":
		return Episode(), nil
	case "plan":
		return Planning(), nil
	case "serve":
		return Serving(), nil
	case "exec":
		return Exec(), nil
	default:
		return Suite{}, fmt.Errorf("bench: unknown suite %q (have %v)", name, Names())
	}
}

// measure runs fn under testing.Benchmark and records it.
func measure(name string, fn func(b *testing.B)) Result {
	r := testing.Benchmark(fn)
	return Result{Name: name, NsPerOp: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp()}
}

// fixture is the scoring/training workload: a value network plus a batch of
// candidate-plan forests shaped like one best-first expansion — batchSize
// left-deep join trees over ~10 relations, all sharing the query's encoding
// slice (the dedup hot path).
type fixture struct {
	net     *valuenet.Network
	queries [][]float64
	forests [][]*treeconv.Tree
	samples []valuenet.Sample
}

func newFixture(batchSize, trainWorkers int) *fixture {
	const queryDim, planDim = 32, 24
	rng := rand.New(rand.NewSource(99))
	randVec := func(dim int) []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	var buildTree func(n int) *treeconv.Tree
	buildTree = func(n int) *treeconv.Tree {
		if n <= 1 {
			return treeconv.NewLeaf(randVec(planDim))
		}
		return treeconv.NewNode(randVec(planDim), buildTree(n-1), treeconv.NewLeaf(randVec(planDim)))
	}
	cfg := valuenet.DefaultConfig()
	cfg.TrainWorkers = trainWorkers
	f := &fixture{net: valuenet.New(queryDim, planDim, cfg)}
	f.net.FitTargetTransform([]float64{10, 100, 1000})
	query := randVec(queryDim)
	for i := 0; i < batchSize; i++ {
		f.queries = append(f.queries, query)
		f.forests = append(f.forests, []*treeconv.Tree{buildTree(10)})
		f.samples = append(f.samples, valuenet.Sample{
			Query:  query,
			Plan:   f.forests[i],
			Target: math.Exp(rng.Float64() * 8),
		})
	}
	return f
}

// Scoring measures batched versus sequential inference at batch 32 (the
// BenchmarkBatchedVsSequentialScoring pair), plus the packed float32
// tiled-GEMM snapshot kernels over the same batch.
func Scoring() Suite {
	const batchSize = 32
	f := newFixture(batchSize, 1)
	s32 := f.net.SnapshotPrecision(valuenet.PrecisionFloat32)
	return Suite{Suite: "score", Benchmarks: []Result{
		measure("scoring/sequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batchSize; j++ {
					f.net.Predict(f.queries[j], f.forests[j])
				}
			}
		}),
		measure("scoring/batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.net.PredictBatch(f.queries, f.forests)
			}
		}),
		measure("scoring/f32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s32.PredictBatch(f.queries, f.forests)
			}
		}),
	}}
}

// Training measures one gradient step over a 32-sample minibatch: the
// per-sample tape path versus the shared batched forward+backward pass (the
// BenchmarkBatchedTraining trio).
func Training() Suite {
	const batchSize = 32
	perSample := newFixture(batchSize, 1)
	batched := newFixture(batchSize, 1)
	workers := newFixture(batchSize, 4)
	return Suite{Suite: "train", Benchmarks: []Result{
		measure("training/per-sample", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				perSample.net.TrainBatchPerSample(perSample.samples)
			}
		}),
		measure("training/batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batched.net.TrainBatch(batched.samples)
			}
		}),
		measure("training/batched-workers=4", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				workers.net.TrainBatch(workers.samples)
			}
		}),
	}}
}

// Episode measures one held-out evaluation sweep (plan search + simulated
// execution for a 16-query workload) over a bootstrapped system — the
// end-to-end number the episode pipeline optimises.
func Episode() Suite {
	sys, err := neo.Open(neo.Config{
		Dataset:          "imdb",
		Engine:           "postgres",
		Encoding:         neo.Histogram,
		Scale:            0.25,
		Seed:             17,
		SearchExpansions: 64,
		Episodes:         1,
		ValueNet: &neo.ValueNetConfig{
			QueryLayers:  []int{32, 16},
			TreeChannels: []int{16, 16, 8},
			HeadLayers:   []int{16},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         3,
		},
	})
	if err != nil {
		panic(fmt.Sprintf("bench: episode fixture: %v", err))
	}
	wl, err := sys.GenerateWorkload(16)
	if err != nil {
		panic(fmt.Sprintf("bench: episode workload: %v", err))
	}
	if err := sys.Bootstrap(wl.Queries[:8]); err != nil {
		panic(fmt.Sprintf("bench: episode bootstrap: %v", err))
	}
	return Suite{Suite: "episode", Benchmarks: []Result{
		measure("episode/evaluate-serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.Neo.EvaluateParallel(wl.Queries, 1); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}}
}

// Planning measures per-query planning latency on the episode fixture's
// workload: the statistics-free greedy fast path against the full DNN-guided
// best-first search, over exactly the queries the auto router sends to the
// fast path. Both sides are reported as P50/P99 percentiles (NsPerOp holds
// the percentile) rather than testing.Benchmark means, because the routing
// tentpole's claim is a latency-distribution one: the microsecond greedy
// ordering must undercut the millisecond search by orders of magnitude, not
// on average but on every routed query. The ratio gate in cmd/neo-bench pins
// plan/bestfirst-p50 / plan/fastpath-p50 >= 50.
func Planning() Suite {
	sys, routed := planFixture()

	var fastNS []float64
	for round := 0; round < 32; round++ {
		for _, q := range routed {
			res, err := fastpath.Plan(q, sys.Catalog)
			if err != nil {
				panic(fmt.Sprintf("bench: fastpath plan %s: %v", q.ID, err))
			}
			fastNS = append(fastNS, float64(res.Elapsed.Nanoseconds()))
		}
	}
	var bestNS []float64
	for round := 0; round < 4; round++ {
		for _, q := range routed {
			// The timed region includes scorer construction: the fast path
			// needs no scorer at all, so the search side pays for the whole
			// inference setup it requires.
			start := time.Now()
			if _, _, err := sys.OptimizeWith(q, sys.Neo.Scorer(q)); err != nil {
				panic(fmt.Sprintf("bench: best-first plan %s: %v", q.ID, err))
			}
			bestNS = append(bestNS, float64(time.Since(start).Nanoseconds()))
		}
	}
	return Suite{Suite: "plan", Benchmarks: []Result{
		{Name: "plan/fastpath-p50", NsPerOp: percentileNS(fastNS, 0.50)},
		{Name: "plan/fastpath-p99", NsPerOp: percentileNS(fastNS, 0.99)},
		{Name: "plan/bestfirst-p50", NsPerOp: percentileNS(bestNS, 0.50)},
		{Name: "plan/bestfirst-p99", NsPerOp: percentileNS(bestNS, 0.99)},
	}}
}

// planFixture bootstraps the episode-shaped system and returns the workload
// queries the auto router sends to the fast path.
func planFixture() (*neo.System, []*neo.Query) {
	sys, err := neo.Open(neo.Config{
		Dataset:          "imdb",
		Engine:           "postgres",
		Encoding:         neo.Histogram,
		Scale:            0.25,
		Seed:             17,
		SearchExpansions: 64,
		Episodes:         1,
		ValueNet: &neo.ValueNetConfig{
			QueryLayers:  []int{32, 16},
			TreeChannels: []int{16, 16, 8},
			HeadLayers:   []int{16},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         3,
		},
	})
	if err != nil {
		panic(fmt.Sprintf("bench: plan fixture: %v", err))
	}
	wl, err := sys.GenerateWorkload(16)
	if err != nil {
		panic(fmt.Sprintf("bench: plan workload: %v", err))
	}
	if err := sys.Bootstrap(wl.Queries[:8]); err != nil {
		panic(fmt.Sprintf("bench: plan bootstrap: %v", err))
	}
	router := route.New(route.Auto, route.Policy{})
	var routed []*neo.Query
	for _, q := range wl.Queries {
		if router.Decide(q).Fastpath {
			routed = append(routed, q)
		}
	}
	if len(routed) == 0 {
		panic("bench: plan fixture routed no queries to the fast path")
	}
	return sys, routed
}

// PlanningBenchmarks exposes the two sides of the planning-latency suite as
// sub-benchmarks for the root-level `go test -bench` entry point: one
// fast-path greedy ordering pass and one full best-first search per
// iteration, over the routed queries of the shared fixture.
func PlanningBenchmarks() (fastpathSide, bestfirst func(b *testing.B)) {
	sys, routed := planFixture()
	fastpathSide = func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := routed[i%len(routed)]
			if _, err := fastpath.Plan(q, sys.Catalog); err != nil {
				b.Fatal(err)
			}
		}
	}
	bestfirst = func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := routed[i%len(routed)]
			if _, _, err := sys.OptimizeWith(q, sys.Neo.Scorer(q)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return fastpathSide, bestfirst
}

// percentileNS returns the p-th percentile (nearest-rank) of the samples.
func percentileNS(ns []float64, p float64) float64 {
	sort.Float64s(ns)
	idx := int(math.Ceil(p*float64(len(ns)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ns) {
		idx = len(ns) - 1
	}
	return ns[idx]
}

// servingWorkers is the concurrency of the fused-serving benchmark: 8
// concurrent searches sharing one score memo.
const servingWorkers = 8

// servingHotQueries is how many distinct hot query structures the 8
// concurrent requests stampede over. Query popularity is heavily skewed in
// practice, so the post-swap stampede concentrates on the hottest handful of
// structures; four concurrent requests per hot query is the regime a
// retrain-every-N-feedbacks daemon re-enters constantly under load.
const servingHotQueries = 2

// scoreStream is the recorded scoring traffic of one real plan search: the
// sequence of ScoreBatch submissions BestFirst issued, pre-encoded into the
// (query, forest) rows the value network consumes. Replaying the streams of
// several concurrent searches reproduces exactly the inference load a
// serving daemon sees, with the row redundancy hot queries create.
type scoreStream struct {
	subs []scoreSub
}

type scoreSub struct {
	queries [][]float64
	forests [][]*treeconv.Tree
}

// streamRecorder captures every submission a search makes while passing it
// through to the real scorer.
type streamRecorder struct {
	inner search.BatchScorer
	subs  [][]*plan.Plan
}

func (r *streamRecorder) ScoreBatch(ps []*plan.Plan) []float64 {
	r.subs = append(r.subs, append([]*plan.Plan(nil), ps...))
	return r.inner.ScoreBatch(ps)
}

// servingFixture bootstraps a system and records the scoring traffic of one
// full BestFirst search per hot query. Rows are pre-encoded once — encoding
// is identical per-request work in both serving modes, so the benchmark pair
// isolates the layer the scheduler changes: the forward passes. Each stream
// shares one query-encoding slice per distinct query, exactly like core's
// per-query encoding cache does for concurrent requests.
func servingFixture() (snap, snap32 *valuenet.Snapshot, streams []scoreStream) {
	sys, err := neo.Open(neo.Config{
		Dataset:          "imdb",
		Engine:           "postgres",
		Encoding:         neo.Histogram,
		Scale:            0.25,
		Seed:             17,
		SearchExpansions: 64,
		Episodes:         1,
		ValueNet: &neo.ValueNetConfig{
			QueryLayers:  []int{32, 16},
			TreeChannels: []int{16, 16, 8},
			HeadLayers:   []int{16},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         3,
		},
	})
	if err != nil {
		panic(fmt.Sprintf("bench: serving fixture: %v", err))
	}
	wl, err := sys.GenerateWorkload(16)
	if err != nil {
		panic(fmt.Sprintf("bench: serving workload: %v", err))
	}
	if err := sys.Bootstrap(wl.Queries[:8]); err != nil {
		panic(fmt.Sprintf("bench: serving bootstrap: %v", err))
	}

	streams = make([]scoreStream, servingHotQueries)
	for i := 0; i < servingHotQueries; i++ {
		q := wl.Queries[i]
		rec := &streamRecorder{inner: sys.Neo.Scorer(q)}
		if _, err := search.BestFirst(q, rec, search.Options{
			Catalog:       sys.Catalog,
			MaxExpansions: sys.Config.SearchExpansions,
		}); err != nil {
			panic(fmt.Sprintf("bench: recording search for %s: %v", q.ID, err))
		}
		qEnc := sys.Featurizer.EncodeQuery(q)
		for _, ps := range rec.subs {
			sub := scoreSub{
				queries: make([][]float64, len(ps)),
				forests: make([][]*treeconv.Tree, len(ps)),
			}
			for j, p := range ps {
				sub.queries[j] = qEnc
				sub.forests[j] = sys.Neo.EncodePlanTrees(p)
			}
			streams[i].subs = append(streams[i].subs, sub)
		}
	}
	snap = sys.Neo.Snapshot()
	// Republish the same weights as a packed float32 snapshot for the
	// fused-f32 leg (the neo-serve default serving configuration).
	sys.Neo.Config.ScorePrecision = valuenet.PrecisionFloat32
	sys.Neo.RestoreSnapshot(sys.Neo.NetVersion())
	snap32 = sys.Neo.Snapshot()
	return snap, snap32, streams
}

// replayServing drives the 8 concurrent search streams through a predictor —
// the raw snapshot (private per-request scoring: every request pays its own
// forward passes) or a shared Scheduler (memoised serving). Two workers replay
// each hot query's stream, modelling the cache-cold stampede right after a
// retraining swap empties the plan cache, when concurrent requests for the
// same hot query cannot be answered by memoised plans and race through
// identical searches.
func replayServing(predict sched.Backend, streams []scoreStream) {
	var wg sync.WaitGroup
	for g := 0; g < servingWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, sub := range streams[g%len(streams)].subs {
				predict.PredictBatch(sub.queries, sub.forests)
			}
		}(g)
	}
	wg.Wait()
}

// ServingBenchmarks builds the fused-serving benchmark pair over a shared
// fixture: the scoring traffic of 8 concurrent searches stampeding over hot
// queries, served by private per-request scoring versus through the shared
// score memo (deduplicating identical rows over the same immutable weights).
// A fresh scheduler per op keeps its cache as cold as a just-swapped
// snapshot's. Scores are verified bit-identical before
// measuring; plan-level equality is locked down by the core and serve test
// suites. fusedF32 runs the same fused traffic against the float32-packed
// form of the same weights — the neo-serve default.
func ServingBenchmarks() (private, fused, fusedF32 func(b *testing.B)) {
	snap, snap32, streams := servingFixture()

	// Safety check: the gate compares throughput of the paths, so first
	// prove the memo produces the same bits as private scoring for one full
	// stream, at each precision against its own private baseline.
	for _, sn := range []*valuenet.Snapshot{snap, snap32} {
		s := sched.New(sn, sched.Options{})
		for _, sub := range streams[0].subs {
			coalesced := s.PredictBatch(sub.queries, sub.forests)
			direct := sn.PredictBatch(sub.queries, sub.forests)
			for i := range direct {
				if coalesced[i] != direct[i] {
					panic(fmt.Sprintf("bench: fused score %v != private score %v", coalesced[i], direct[i]))
				}
			}
		}
	}

	private = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			replayServing(snap, streams)
		}
	}
	bench := func(sn *valuenet.Snapshot) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := sched.New(sn, sched.Options{})
				replayServing(s, streams)
			}
		}
	}
	return private, bench(snap), bench(snap32)
}

// Serving measures the ServingBenchmarks set (the BenchmarkFusedServing
// suite of the regression gate).
func Serving() Suite {
	private, fused, fusedF32 := ServingBenchmarks()
	return Suite{Suite: "serve", Benchmarks: []Result{
		measure("serving/private", private),
		measure("serving/fused", fused),
		measure("serving/fused-f32", fusedF32),
	}}
}

// FileName returns the JSON file name a suite is stored under.
func FileName(suite string) string { return "BENCH_" + suite + ".json" }

// Write serialises the suite as <dir>/BENCH_<suite>.json. The write is
// atomic (temp file in the same directory, then rename), so an interrupted
// run can never leave a truncated or half-written file where a committed CI
// baseline is expected.
func Write(dir string, s Suite) (string, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, FileName(s.Suite))
	err = checkpoint.AtomicWriteFile(path, 0o644, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		return "", err
	}
	return path, nil
}

// Load reads a suite file written by Write.
func Load(path string) (Suite, error) {
	var s Suite
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return s, nil
}

// Compare applies the regression gate: every benchmark present in both the
// baseline and the fresh suite must not regress by more than tolerance× in
// ns/op or allocs/op. The tolerance is deliberately generous (CI runners are
// slow, shared and single-core — the gate catches 2× blowups, not 5%
// jitter). Allocation counts get a small absolute slack so near-zero
// baselines don't flap. Returned problems are empty when the gate passes.
func Compare(baseline, fresh Suite, tolerance float64) []string {
	var problems []string
	base := make(map[string]Result, len(baseline.Benchmarks))
	for _, r := range baseline.Benchmarks {
		base[r.Name] = r
	}
	names := make([]string, 0, len(fresh.Benchmarks))
	freshBy := make(map[string]Result, len(fresh.Benchmarks))
	for _, r := range fresh.Benchmarks {
		names = append(names, r.Name)
		freshBy[r.Name] = r
	}
	sort.Strings(names)
	for _, name := range names {
		b, ok := base[name]
		if !ok {
			continue // new benchmark: becomes part of the baseline when committed
		}
		f := freshBy[name]
		if b.NsPerOp > 0 && f.NsPerOp > b.NsPerOp*tolerance {
			problems = append(problems, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f ns/op (> %.1fx regression)",
				name, f.NsPerOp, b.NsPerOp, tolerance))
		}
		allocBudget := float64(b.AllocsPerOp)*tolerance + 16
		if float64(f.AllocsPerOp) > allocBudget {
			problems = append(problems, fmt.Sprintf(
				"%s: %d allocs/op vs baseline %d allocs/op (> %.1fx regression)",
				name, f.AllocsPerOp, b.AllocsPerOp, tolerance))
		}
	}
	for _, r := range baseline.Benchmarks {
		if _, ok := freshBy[r.Name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: present in baseline but not measured", r.Name))
		}
	}
	return problems
}

// Speedup returns fast's speedup over slow (slowNs / fastNs) looked up by
// benchmark name, or an error when either is missing. The gate uses it for
// hardware-independent ratio checks (batched must actually beat
// per-sample, wherever it runs).
func Speedup(s Suite, slow, fast string) (float64, error) {
	var slowNs, fastNs float64
	for _, r := range s.Benchmarks {
		switch r.Name {
		case slow:
			slowNs = r.NsPerOp
		case fast:
			fastNs = r.NsPerOp
		}
	}
	if slowNs == 0 || fastNs == 0 {
		return 0, fmt.Errorf("bench: suite %s lacks %q or %q", s.Suite, slow, fast)
	}
	return slowNs / fastNs, nil
}
