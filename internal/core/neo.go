package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"neo/internal/engine"
	"neo/internal/fastpath"
	"neo/internal/feature"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/route"
	"neo/internal/sched"
	"neo/internal/search"
	"neo/internal/treeconv"
	"neo/internal/valuenet"
)

// CostFunction selects what the value network minimises (Section 4 /
// Section 6.4.4 of the paper).
type CostFunction int

const (
	// WorkloadCost minimises total latency across the workload:
	// C(Pf) = L(Pf).
	WorkloadCost CostFunction = iota
	// RelativeCost minimises latency relative to a per-query baseline:
	// C(Pf) = L(Pf) / Base(q), penalising regressions on individual queries.
	RelativeCost
)

// String implements fmt.Stringer.
func (c CostFunction) String() string {
	if c == RelativeCost {
		return "relative"
	}
	return "workload"
}

// Config holds Neo's hyperparameters.
type Config struct {
	// ValueNet configures the value-network architecture.
	ValueNet valuenet.Config
	// SearchExpansions is the node-expansion budget of the plan search
	// (the analogue of the paper's 250 ms cutoff).
	SearchExpansions int
	// TrainEpochs is the number of passes over the training samples per
	// retraining round.
	TrainEpochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// MaxTrainSamples caps the number of training samples used per
	// retraining round (a uniform subsample is taken when the experience
	// grows beyond it). Zero means no cap.
	MaxTrainSamples int
	// Cost selects the optimisation objective.
	Cost CostFunction
	// Seed seeds plan-search tie-breaking and minibatch shuffling.
	Seed int64
	// Workers is the worker-pool size RunEpisode and Evaluate use to fan
	// plan search and simulated execution out over goroutines. Results are
	// committed in deterministic order, so episode statistics are
	// bit-identical to the serial path for a fixed seed regardless of the
	// worker count — except when the featurizer injects cardinality error
	// (Featurizer.Error, the Figure 14 protocol), whose perturbations draw
	// from one shared stream in scheduling order; run serially if that
	// experiment needs reproducibility. Zero selects GOMAXPROCS; a negative
	// value forces serial execution.
	Workers int
	// FuseScoring routes every search's batched-scoring submissions through
	// a per-snapshot score memo (internal/sched): each distinct encoded row
	// is scored once per snapshot, and cached rows and duplicates within one
	// submission are answered without a forward pass. Memoised scores are
	// bit-identical to private scoring (the batch kernels compute each row
	// independently in a fixed order), so every search — and everything
	// trained from its plans — is unaffected. The memo is pinned to the
	// serving snapshot and recreated on every snapshot swap, so it never
	// mixes scores from two weight sets.
	FuseScoring bool
	// ScorePrecision selects the numeric format serving snapshots score
	// with: float64 (the exact training kernels, the zero value) or float32
	// (packed tiled-GEMM panels). Conversion happens once per snapshot
	// publication, inside the atomic swap — training and checkpoints stay
	// bit-identical float64 regardless of this setting.
	ScorePrecision valuenet.Precision
	// Routing selects how queries are dispatched between the statistics-free
	// greedy fast path (internal/fastpath) and the full DNN-guided best-first
	// search: route.Full (the zero value — every query takes the full
	// search, the historical behaviour), route.Fastpath (forced greedy) or
	// route.Auto (per-class heuristic bootstrap, demoted online by
	// observed-latency regret; see ObserveLatency).
	Routing route.Mode
	// RoutePolicy overrides the auto-routing thresholds; zero fields select
	// route.DefaultPolicy values.
	RoutePolicy route.Policy
	// TrainWorkers is the number of data-parallel gradient workers each
	// retraining minibatch is sharded over (valuenet.Config.TrainWorkers).
	// Trained weights are bit-identical for every worker count — the shard
	// partition and gradient-reduction order depend only on the batch size —
	// so parallel training is always safe to enable. Useful parallelism is
	// bounded by the number of 8-sample shards a minibatch splits into
	// (ceil(BatchSize/8)); raise BatchSize alongside TrainWorkers to feed
	// more workers. Zero selects GOMAXPROCS; a negative value forces serial
	// training.
	TrainWorkers int
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		ValueNet:         valuenet.DefaultConfig(),
		SearchExpansions: 256,
		TrainEpochs:      10,
		BatchSize:        16,
		MaxTrainSamples:  3000,
		Cost:             WorkloadCost,
		Seed:             1,
	}
}

// Neo is the learned optimizer: it featurizes queries, maintains experience,
// trains the value network, and searches for plans with it.
//
// Concurrency: plan search (Optimize, OptimizeGreedy, Scorer,
// PredictNormalized) scores against an immutable snapshot of the value
// network and is safe to call from any number of goroutines, including
// while RetrainAsync trains the live network in the background. Calls that
// mutate the experience or draw from the training rng (Bootstrap, Explore,
// RunEpisode) must not overlap each other.
type Neo struct {
	Engine     *engine.Engine
	Featurizer *feature.Featurizer
	// Net is the live network the training loop mutates. Searches never
	// read it directly — they score through the snapshot published after
	// each retraining round — so reading Net is safe only while no training
	// round is in flight.
	Net        *valuenet.Network
	Experience *Experience
	Config     Config

	// rngMu guards rng, which drives episode shuffling and minibatch
	// shuffling. One shared stream, drawn in a fixed order, keeps training
	// reproducible for a fixed seed. The stream is fed by rngSrc, a counting
	// source: (seed, draw count) fully describe its state, which is what
	// checkpoints capture and RestoreRNG replays.
	rngMu   sync.Mutex
	rng     *rand.Rand      // guarded by rngMu
	rngSrc  *countingSource // guarded by rngMu
	rngSeed int64           // guarded by rngMu

	// mu guards the cheap mutable state shared between concurrent planners
	// and the training loop: per-query baselines (RelativeCost and
	// normalised reporting) and training-time accounting.
	mu sync.Mutex
	// baseline holds per-query baseline latencies (used by RelativeCost and
	// by the normalised-latency metrics the figures report).
	baseline map[string]float64 // guarded by mu
	// trainTime accumulates wall-clock time spent training the network,
	// used by the Figure 11 training-time breakdown.
	trainTime time.Duration // guarded by mu

	// encMu guards the query-encoding cache separately from mu: a cold
	// encode can be expensive (featurizers may execute sub-queries), and it
	// must not stall baseline reads or serialize the whole worker pool.
	encMu         sync.Mutex
	queryEncCache map[string][]float64 // guarded by encMu

	// trainMu serializes retraining rounds (Retrain / RetrainAsync).
	trainMu sync.Mutex
	// snap is the read-only network snapshot all searches score with,
	// tagged with its version. It is swapped atomically at the end of each
	// retraining round, so in-flight searches finish against the weights
	// they started with while new searches pick up the freshly trained
	// network (double buffering). Version, weights and the score memo
	// travel in one pointer so a reader can never observe new weights under
	// an old version — or an old memo answering for new weights — or vice
	// versa.
	snap atomic.Pointer[netSnapshot]

	// fuse aggregates scoring statistics across every score memo this Neo
	// creates over its lifetime (memos are recreated on each snapshot swap),
	// so /stats counters are monotonic. Nil when FuseScoring is off.
	fuse *sched.Counters

	// router dispatches each Optimize between the greedy fast path and the
	// full best-first search (Config.Routing) and accounts decisions,
	// planning latencies and execution regret per query class.
	router *route.Router
}

// netSnapshot pairs a frozen network with the version it was published as
// and, when fused scoring is enabled, the score memo pinned to exactly these
// weights.
type netSnapshot struct {
	net     *valuenet.Snapshot
	version uint64
	sched   *sched.Scheduler
}

// countingSource wraps a math/rand source and counts how many values have
// been drawn from it. Go's sources expose no state, but every draw — through
// any rand.Rand method — advances the source by exactly one step, so (seed,
// draws) identifies the state exactly: recreate the source from the seed and
// discard the same number of draws to resume the stream.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (s *countingSource) Int63() int64 { s.draws++; return s.src.Int63() }

// Uint64 implements rand.Source64.
func (s *countingSource) Uint64() uint64 { s.draws++; return s.src.Uint64() }

// Seed implements rand.Source.
func (s *countingSource) Seed(seed int64) { s.src.Seed(seed); s.draws = 0 }

// skip advances the source by n draws.
func (s *countingSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.draws = n
}

// New creates a Neo instance bound to a target engine and featurizer.
// Zero-valued hyperparameters are filled from DefaultConfig field by field;
// explicitly set fields are preserved. Config.MaxTrainSamples is exempt
// (zero meaningfully disables the cap), and a zero Config.Cost already is
// the default WorkloadCost.
func New(eng *engine.Engine, feat *feature.Featurizer, cfg Config) *Neo {
	def := DefaultConfig()
	if cfg.SearchExpansions == 0 {
		cfg.SearchExpansions = def.SearchExpansions
	}
	if cfg.TrainEpochs == 0 {
		cfg.TrainEpochs = def.TrainEpochs
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = def.BatchSize
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	// Workers normalization lives here, once, for every layer above (the
	// pkg/neo facade and the experiment harness pass their value through).
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 0 {
		cfg.Workers = 1
	}
	if cfg.TrainWorkers == 0 {
		cfg.TrainWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.TrainWorkers < 0 {
		cfg.TrainWorkers = 1
	}
	if len(cfg.ValueNet.QueryLayers) == 0 {
		cfg.ValueNet = def.ValueNet
	}
	// The value network reads its worker count from its own config; the
	// normalized core setting is authoritative.
	cfg.ValueNet.TrainWorkers = cfg.TrainWorkers
	net := valuenet.New(feat.QueryVectorSize(), feat.PlanVectorSize(), cfg.ValueNet)
	src := newCountingSource(cfg.Seed)
	n := &Neo{
		Engine:        eng,
		Featurizer:    feat,
		Net:           net,
		Experience:    NewExperience(),
		Config:        cfg,
		rng:           rand.New(src),
		rngSrc:        src,
		rngSeed:       cfg.Seed,
		baseline:      make(map[string]float64),
		queryEncCache: make(map[string][]float64),
		router:        route.New(cfg.Routing, cfg.RoutePolicy),
	}
	if cfg.FuseScoring {
		n.fuse = &sched.Counters{}
	}
	n.snap.Store(n.newNetSnapshot(n.freezeNet(), 0))
	return n
}

// freezeNet converts the live network's current weights into a serving
// snapshot at the configured scoring precision (the packing step of a
// snapshot publication). Callers must guarantee no training round is
// mutating the weights, exactly as for Net.Snapshot.
func (n *Neo) freezeNet() *valuenet.Snapshot {
	return n.Net.SnapshotPrecision(n.Config.ScorePrecision)
}

// SnapshotInfo reports the serving snapshot's scoring precision and memory
// footprint. Safe for concurrent use.
func (n *Neo) SnapshotInfo() valuenet.SnapshotInfo { return n.Snapshot().Info() }

// newNetSnapshot wraps a frozen network for publication, attaching a fresh
// score memo pinned to it when fused scoring is enabled. All memos share
// one Counters so scoring statistics survive swaps.
func (n *Neo) newNetSnapshot(snap *valuenet.Snapshot, version uint64) *netSnapshot {
	ns := &netSnapshot{net: snap, version: version}
	if n.fuse != nil {
		ns.sched = sched.New(snap, sched.Options{Counters: n.fuse})
	}
	return ns
}

// TrainingTime returns the cumulative wall-clock time spent training the
// value network.
func (n *Neo) TrainingTime() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.trainTime
}

// Snapshot returns the read-only value-network snapshot searches currently
// score with. Safe for concurrent use.
func (n *Neo) Snapshot() *valuenet.Snapshot { return n.snap.Load().net }

// NetVersion returns the number of snapshot swaps performed so far. It
// increments whenever a retraining round publishes new weights; callers that
// cache plans keyed on the network (pkg/neo's plan cache) use it to detect
// staleness. The version is read from the same atomic pointer that carries
// the weights, so two NetVersion reads bracketing a search that returned the
// same value prove the search scored with that version's snapshot.
func (n *Neo) NetVersion() uint64 { return n.snap.Load().version }

// publishSnapshot freezes the live network's weights and swaps them in as
// the serving snapshot, in one atomic store together with the bumped
// version. Callers must hold trainMu (which serializes version increments).
func (n *Neo) publishSnapshot() {
	n.snap.Store(n.newNetSnapshot(n.freezeNet(), n.snap.Load().version+1))
}

// RestoreSnapshot freezes the live network's current weights and publishes
// them as the serving snapshot under an explicit version — used when loading
// a checkpoint, so the restored system reports the same NetVersion the saved
// one did and downstream plan caches key correctly.
func (n *Neo) RestoreSnapshot(version uint64) {
	n.trainMu.Lock()
	defer n.trainMu.Unlock()
	n.snap.Store(n.newNetSnapshot(n.freezeNet(), version))
}

// RNGState returns the seed and draw count that describe the training RNG's
// exact position in its stream. Safe for concurrent use.
func (n *Neo) RNGState() (seed int64, draws uint64) {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rngSeed, n.rngSrc.draws
}

// RestoreRNG recreates the training RNG from a (seed, draws) pair captured
// by RNGState: the stream continues exactly where the saved run left off, so
// resumed training shuffles minibatches identically to an uninterrupted run.
func (n *Neo) RestoreRNG(seed int64, draws uint64) {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	src := newCountingSource(seed)
	src.skip(draws)
	n.rngSrc = src
	n.rngSeed = seed
	n.rng = rand.New(src)
}

// WithTrainingPaused runs fn while holding the training lock, so no
// retraining round can mutate the network's weights or optimizer state while
// fn reads them (checkpointing uses this). Planning and feedback ingestion
// keep running; calls that draw from the training RNG outside a retraining
// round (RunEpisode's episode shuffle) must not overlap fn.
func (n *Neo) WithTrainingPaused(fn func()) {
	n.trainMu.Lock()
	defer n.trainMu.Unlock()
	fn()
}

// Baselines returns a copy of the per-query baseline latencies. Safe for
// concurrent use.
func (n *Neo) Baselines() map[string]float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]float64, len(n.baseline))
	for id, v := range n.baseline {
		out[id] = v
	}
	return out
}

// RestoreBaselines replaces the per-query baselines with a set captured by
// Baselines.
func (n *Neo) RestoreBaselines(baselines map[string]float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.baseline = make(map[string]float64, len(baselines))
	for id, v := range baselines {
		n.baseline[id] = v
	}
}

// RestoreTrainingTime replaces the cumulative training-time counter (part of
// a checkpoint, so the Figure 11 accounting survives restarts).
func (n *Neo) RestoreTrainingTime(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.trainTime = d
}

// ResetEncodingCache drops every cached query encoding. Call it after
// swapping the featurizer's inputs (e.g. restoring a checkpointed embedding
// model) so stale encodings cannot leak into new searches.
func (n *Neo) ResetEncodingCache() {
	n.encMu.Lock()
	defer n.encMu.Unlock()
	n.queryEncCache = make(map[string][]float64)
}

// SetBaseline records the per-query baseline latencies used by the
// RelativeCost objective and by normalised reporting (typically the latency
// of the expert's plan on the target engine). Safe for concurrent use.
func (n *Neo) SetBaseline(id string, latency float64) {
	if latency > 0 {
		n.mu.Lock()
		n.baseline[id] = latency
		n.mu.Unlock()
	}
}

// Baseline returns the baseline latency for a query (and whether one is set).
// Safe for concurrent use.
func (n *Neo) Baseline(id string) (float64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.baseline[id]
	return v, ok
}

// cost converts an experience entry's latency into the configured cost.
func (n *Neo) cost(e Entry) float64 {
	if n.Config.Cost == RelativeCost {
		if base, ok := n.Baseline(e.Query.ID); ok && base > 0 {
			return e.Latency / base
		}
	}
	return e.Latency
}

// encodeQuery caches query-level encodings for the training and feedback
// paths, which revisit the same experience queries. Serving encodes
// directly (see Scorer) so distinct served queries do not grow the cache.
// Safe for concurrent use.
func (n *Neo) encodeQuery(q *query.Query) []float64 {
	n.encMu.Lock()
	defer n.encMu.Unlock()
	if enc, ok := n.queryEncCache[q.ID]; ok {
		return enc
	}
	enc := n.Featurizer.EncodeQuery(q)
	n.queryEncCache[q.ID] = enc
	return enc
}

// Bootstrap collects demonstration experience from an expert optimizer
// (Section 2, "Expertise Collection"): each training query's expert plan is
// executed on the target engine, the plan/latency pair is added to the
// experience, and the latency is recorded as the query's baseline. It then
// trains the value network on the collected demonstrations.
func (n *Neo) Bootstrap(queries []*query.Query, expert func(*query.Query) (*plan.Plan, error)) error {
	for _, q := range queries {
		p, err := expert(q)
		if err != nil {
			return fmt.Errorf("core: expert failed on query %s: %w", q.ID, err)
		}
		lat, _, err := n.Engine.Execute(p)
		if err != nil {
			return fmt.Errorf("core: executing expert plan for %s: %w", q.ID, err)
		}
		n.Experience.Add(q, p, lat)
		n.SetBaseline(q.ID, lat)
	}
	n.Retrain()
	return nil
}

// Explore executes additional (typically randomly generated) plans for the
// given queries and adds them to the experience, then retrains. Executing a
// handful of alternative plans per query alongside the expert demonstration
// gives the value network within-query contrast — it sees both good and bad
// plans for the same query — which substantially improves early plan ranking
// when the training workload is small. (The paper collects only the expert
// plan per query; this is an optional enrichment, enabled by default in the
// experiment harness and documented in DESIGN.md.)
func (n *Neo) Explore(queries []*query.Query, planner func(*query.Query) *plan.Plan, perQuery int) error {
	if perQuery <= 0 {
		return nil
	}
	for _, q := range queries {
		for i := 0; i < perQuery; i++ {
			p := planner(q)
			if p == nil || !p.IsComplete() {
				continue
			}
			lat, _, err := n.Engine.Execute(p)
			if err != nil {
				return fmt.Errorf("core: exploring plan for %s: %w", q.ID, err)
			}
			n.Experience.Add(q, p, lat)
		}
	}
	n.Retrain()
	return nil
}

// BootstrapFromPlans is Bootstrap for pre-computed expert plans.
func (n *Neo) BootstrapFromPlans(plans []*plan.Plan) error {
	for _, p := range plans {
		lat, _, err := n.Engine.Execute(p)
		if err != nil {
			return fmt.Errorf("core: executing expert plan for %s: %w", p.Query.ID, err)
		}
		n.Experience.Add(p.Query, p, lat)
		n.SetBaseline(p.Query.ID, lat)
	}
	n.Retrain()
	return nil
}

// trainingSamples converts the experience into value-network training
// samples: for every stored complete plan, the plan itself plus the partial
// plans along its bottom-up construction, each labelled with the minimum
// cost of any experienced complete plan that contains it.
func (n *Neo) trainingSamples() []valuenet.Sample {
	var samples []valuenet.Sample
	for _, entry := range n.Experience.Entries() {
		qEnc := n.encodeQuery(entry.Query)
		for _, partial := range constructionStates(entry.Plan) {
			target, ok := n.Experience.MinCostContaining(partial, n.cost)
			if !ok {
				target = n.cost(entry)
			}
			samples = append(samples, valuenet.Sample{
				Query:  qEnc,
				Plan:   n.Featurizer.EncodePlan(partial),
				Target: target,
			})
		}
	}
	return samples
}

// constructionStates returns the sequence of partial plans that build up to
// the complete plan p: the initial all-unspecified state, the all-leaves
// state, every intermediate forest produced by applying p's joins bottom-up,
// and finally p itself.
func constructionStates(p *plan.Plan) []*plan.Plan {
	if !p.IsComplete() {
		return []*plan.Plan{p}
	}
	var states []*plan.Plan
	states = append(states, plan.Initial(p.Query))

	// Collect p's join nodes and the size of every subtree in one walk.
	var joins []*plan.Node
	sizes := make(map[*plan.Node]int)
	var measure func(node *plan.Node) int
	measure = func(node *plan.Node) int {
		if node == nil {
			return 0
		}
		size := 1 + measure(node.Left) + measure(node.Right)
		sizes[node] = size
		if !node.IsLeaf() {
			joins = append(joins, node)
		}
		return size
	}
	measure(p.Roots[0])
	// Sort by subtree size ascending so children come before parents,
	// keeping the walk order for equal sizes (disjoint sibling joins) so
	// the construction sequence — and with it the training targets — stays
	// deterministic.
	sort.SliceStable(joins, func(a, b int) bool {
		return sizes[joins[a]] < sizes[joins[b]]
	})

	// Start from the forest of specified leaves.
	var leaves []*plan.Node
	p.Roots[0].Walk(func(node *plan.Node) {
		if node.IsLeaf() {
			leaves = append(leaves, node.Clone())
		}
	})
	current := map[string]*plan.Node{}
	for _, l := range leaves {
		current[l.Table] = l
	}
	// forest lists the distinct roots by walking the leaves in plan order
	// (never by ranging over the map): map iteration order is random, and a
	// random root order would randomise gradient-accumulation order during
	// training, making identically-seeded runs irreproducible.
	forest := func() []*plan.Node {
		out := make([]*plan.Node, 0, len(current))
		seen := map[*plan.Node]bool{}
		for _, l := range leaves {
			node := current[l.Table]
			if !seen[node] {
				seen[node] = true
				out = append(out, node)
			}
		}
		return out
	}
	states = append(states, &plan.Plan{Query: p.Query, Roots: forest()})

	for _, j := range joins {
		// Build the joined subtree from the current forest roots covering
		// the left and right table sets.
		leftTables := j.Left.Tables()
		rightTables := j.Right.Tables()
		leftRoot := current[leftTables[0]]
		rightRoot := current[rightTables[0]]
		joined := plan.Join2(j.Join, leftRoot, rightRoot)
		for _, t := range append(leftTables, rightTables...) {
			current[t] = joined
		}
		states = append(states, &plan.Plan{Query: p.Query, Roots: forest()})
	}
	return states
}

// Retrain rebuilds the training set from the experience, (re)trains the
// live value network — one shared batched forward/backward pass per
// minibatch, sharded over Config.TrainWorkers data-parallel gradient
// workers (bit-identical for every worker count) — and atomically swaps the
// freshly trained weights in as the serving snapshot. It returns the final
// training loss. Retraining rounds are serialized; plan searches may run
// concurrently — they keep scoring with the previous snapshot until the
// swap.
func (n *Neo) Retrain() float64 {
	n.trainMu.Lock()
	defer n.trainMu.Unlock()
	samples := n.trainingSamples()
	if len(samples) == 0 {
		return 0
	}
	n.rngMu.Lock()
	if n.Config.MaxTrainSamples > 0 && len(samples) > n.Config.MaxTrainSamples {
		n.rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		samples = samples[:n.Config.MaxTrainSamples]
	}
	start := time.Now() //neo:lint-ok walltime training-time accounting for the retrain budget; never feeds the model
	loss := n.Net.Train(samples, n.Config.TrainEpochs, n.Config.BatchSize, n.rng)
	n.rngMu.Unlock()
	elapsed := time.Since(start) //neo:lint-ok walltime training-time accounting for the retrain budget; never feeds the model
	n.mu.Lock()
	n.trainTime += elapsed
	n.mu.Unlock()
	n.publishSnapshot()
	return loss
}

// RetrainAsync retrains the value network in the background. Searches keep
// scoring with the previously published snapshot while training runs; when
// the round finishes, the new weights are swapped in atomically and the
// final training loss is delivered on the returned channel (buffered, so
// the result never blocks even if nobody receives it). Rounds are
// serialized with Retrain. Concurrent planning (Optimize, Evaluate,
// pkg/neo's PlanAll) is safe while a round is in flight; concurrent
// experience-mutating calls (RunEpisode, Bootstrap, Explore) are not.
func (n *Neo) RetrainAsync() <-chan float64 {
	done := make(chan float64, 1)
	go func() { done <- n.Retrain() }()
	return done
}

// scoreBackend is the predictor a netScorer scores through: the raw frozen
// snapshot, or the shared micro-batching scheduler that fuses submissions
// across concurrent searches (both produce bit-identical scores per row).
type scoreBackend interface {
	PredictBatch(queries [][]float64, forests [][]*treeconv.Tree) []float64
}

// netScorer scores plans for one query with a frozen value-network
// snapshot. ScoreBatch — the search hot path — encodes every plan of the
// batch and runs one shared batched forward pass; all plans share the
// query's cached encoding, so the network's query tower runs once per
// batch. With fused scoring the backend is the snapshot's score memo, which
// skips rows it has already scored.
type netScorer struct {
	backend scoreBackend
	feat    *feature.Featurizer
	qEnc    []float64

	// queries/forests are reused across ScoreBatch calls: PredictBatch
	// keeps no reference to them once it returns.
	queries [][]float64
	forests [][]*treeconv.Tree
}

// ScoreBatch implements search.BatchScorer.
func (s *netScorer) ScoreBatch(ps []*plan.Plan) []float64 {
	s.queries = s.queries[:0]
	s.forests = s.forests[:0]
	for _, p := range ps {
		s.queries = append(s.queries, s.qEnc)
		s.forests = append(s.forests, s.feat.EncodePlan(p))
	}
	return s.backend.PredictBatch(s.queries, s.forests)
}

// Score implements search.Scorer (a batch of one).
func (s *netScorer) Score(p *plan.Plan) float64 {
	return s.ScoreBatch([]*plan.Plan{p})[0]
}

// Scorer returns the batched value-network scorer for the given query; it
// implements both search.BatchScorer (the primary contract) and
// search.Scorer. The scorer is pinned to the network snapshot current at
// creation time, so a search runs against one consistent set of weights
// even if a background retraining round swaps the snapshot mid-search; with
// Config.FuseScoring it scores through that snapshot's shared score memo
// (bit-identical scores either way). The query is encoded afresh rather than
// through the encoding cache, so serving many distinct queries does not grow
// it. Each returned scorer carries its own scratch state, so concurrent
// searches use separate Scorer instances (see pkg/neo's PlanAll).
func (n *Neo) Scorer(q *query.Query) search.BatchScorer {
	ns := n.snap.Load()
	var backend scoreBackend = ns.net
	if ns.sched != nil {
		backend = ns.sched
	}
	return &netScorer{backend: backend, feat: n.Featurizer, qEnc: n.Featurizer.EncodeQuery(q)}
}

// FusionStats reports the score memo's cumulative statistics (Enabled
// reports whether Config.FuseScoring is on; all counters are zero when it
// is not). Counters aggregate across snapshot swaps, so they are monotonic
// over the process lifetime. Safe for concurrent use.
func (n *Neo) FusionStats() sched.Stats {
	if n.fuse == nil {
		return sched.Stats{}
	}
	st := n.fuse.Stats()
	st.Enabled = true
	return st
}

// Optimize plans q: the router (Config.Routing) dispatches the query either
// to the statistics-free greedy fast path — microsecond planning, no
// value-network inference — or to the full DNN-guided best-first search.
// Every call records its routing decision in the per-class counters (see
// RouteStats). For fast-path plans the returned Result carries the greedy
// cost model's score and the number of ordering steps as Expansions; no
// network is consulted until ObserveLatency scores the executed plan for
// regret.
func (n *Neo) Optimize(q *query.Query) (*plan.Plan, *search.Result, error) {
	if dec := n.router.Decide(q); dec.Fastpath {
		fr, err := fastpath.Plan(q, n.Featurizer.Catalog)
		if err != nil {
			return nil, nil, err
		}
		n.router.RecordFastpathLatency(dec.Class, fr.Elapsed)
		res := &search.Result{
			Plan:       fr.Plan,
			Score:      fastpath.Cost(fr.Plan, n.Featurizer.Catalog),
			Expansions: fr.Steps,
			Elapsed:    fr.Elapsed,
		}
		return fr.Plan, res, nil
	}
	opts := search.Options{
		Catalog:       n.Featurizer.Catalog,
		MaxExpansions: n.Config.SearchExpansions,
	}
	res, err := search.BestFirst(q, n.Scorer(q), opts)
	if err != nil {
		return nil, nil, err
	}
	return res.Plan, res, nil
}

// RouteStats snapshots the router's per-class decision counters, fast-path
// planning-latency percentiles and regret accounting. Safe for concurrent
// use.
func (n *Neo) RouteStats() route.StatsSnapshot { return n.router.Stats() }

// ObserveLatency feeds one executed query's measured latency into the
// router's regret accounting. For a class currently served by the fast
// path, the observation is compared against the value network's estimate of
// what the full best-first search would have achieved: the network predicts
// the best cost *reachable* from a partial plan, so its prediction for the
// query's initial state — one inference — stands in for running the search.
// Classes whose mean regret crosses the policy threshold are re-routed to
// the full search. A no-op (and inference-free) unless routing is Auto and
// the class is on the fast path, so callers can invoke it unconditionally
// on every execution.
func (n *Neo) ObserveLatency(q *query.Query, observedMS float64) {
	if observedMS <= 0 || !n.router.NeedsOutcome(q) {
		return
	}
	if n.Config.Cost == RelativeCost {
		// Under the relative objective the network predicts latency divided
		// by the per-query baseline; bring the observation into the same
		// units (skip the sample when no baseline is known yet).
		base, ok := n.Baseline(q.ID)
		if !ok || base <= 0 {
			return
		}
		observedMS /= base
	}
	// Predict (not PredictNormalized): the estimate must be in the original
	// cost domain so the observed/estimated ratio is unit-free.
	initial := plan.Initial(q)
	estimate := n.Snapshot().Predict(n.encodeQuery(q), n.Featurizer.EncodePlan(initial))
	n.router.RecordOutcome(route.Classify(q).Key(), observedMS, estimate)
}

// OptimizeGreedy builds a plan greedily (the "hurry-up"/Q-learning-style
// ablation of Section 4.2).
func (n *Neo) OptimizeGreedy(q *query.Query) (*plan.Plan, *search.Result, error) {
	opts := search.Options{Catalog: n.Featurizer.Catalog}
	res, err := search.Greedy(q, n.Scorer(q), opts)
	if err != nil {
		return nil, nil, err
	}
	return res.Plan, res, nil
}

// EpisodeStats summarises one training episode.
type EpisodeStats struct {
	// Episode is the 1-based episode number.
	Episode int
	// TotalLatency is the summed latency of the plans chosen this episode.
	TotalLatency float64
	// NormalizedLatency is TotalLatency divided by the summed baseline
	// latency of the same queries (the paper's "normalized latency", where
	// 1.0 equals the baseline optimizer).
	NormalizedLatency float64
	// TrainLoss is the value-network loss after retraining.
	TrainLoss float64
	// QueryLatencies maps query ID to the latency of the plan Neo chose.
	QueryLatencies map[string]float64
}

// planExec is the outcome of planning and simulating one query of an
// episode or evaluation batch: the chosen plan and its deterministic
// (noise-free) simulated latency.
type planExec struct {
	plan *plan.Plan
	base float64
	err  error
}

// planAndSimulate fans plan search plus deterministic plan simulation out
// over a pool of workers. The engine's run-to-run noise is deliberately NOT
// applied here: the caller commits the returned base latencies in input
// order, so the engine's noise stream is drawn in exactly the order the
// serial loop would draw it, and results are bit-identical to serial
// execution for a fixed seed no matter how many workers raced.
func (n *Neo) planAndSimulate(queries []*query.Query, workers int) []planExec {
	out := make([]planExec, len(queries))
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 {
		for i, q := range queries {
			out[i] = n.planAndSimulateOne(q)
			if out[i].err != nil {
				break
			}
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				out[i] = n.planAndSimulateOne(queries[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func (n *Neo) planAndSimulateOne(q *query.Query) planExec {
	p, _, err := n.Optimize(q)
	if err != nil {
		return planExec{err: err}
	}
	base, _, err := n.Engine.Simulate(p)
	if err != nil {
		return planExec{err: err}
	}
	return planExec{plan: p, base: base}
}

// RunEpisode performs one full training episode (Section 6.3.1): for every
// training query, search for a plan with the current value network, execute
// it on the engine, add the plan/latency pair to the experience, and finally
// retrain the network. Plan search and simulated execution run concurrently
// over Config.Workers workers; see RunEpisodeParallel.
func (n *Neo) RunEpisode(episode int, queries []*query.Query) (*EpisodeStats, error) {
	return n.RunEpisodeParallel(episode, queries, n.Config.Workers)
}

// RunEpisodeParallel is RunEpisode with an explicit worker count: plan
// search and plan simulation fan out over the pool, while the episode's
// shuffle, the engine's noise draws, the experience appends and the final
// retraining all happen in deterministic order — so the returned
// EpisodeStats (and all downstream training state) are bit-identical to the
// serial path for a fixed seed, at a fraction of the wall-clock time. The
// one exception is injected cardinality error (Featurizer.Error), which
// draws from a shared stream in scheduling order; see Config.Workers.
func (n *Neo) RunEpisodeParallel(episode int, queries []*query.Query, workers int) (*EpisodeStats, error) {
	stats := &EpisodeStats{Episode: episode, QueryLatencies: make(map[string]float64)}
	shuffled := append([]*query.Query(nil), queries...)
	n.rngMu.Lock()
	n.rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	n.rngMu.Unlock()

	execs := n.planAndSimulate(shuffled, workers)
	baseTotal := 0.0
	for i, q := range shuffled {
		if err := execs[i].err; err != nil {
			return nil, fmt.Errorf("core: episode %d query %s: %w", episode, q.ID, err)
		}
		lat := n.Engine.Commit(execs[i].base)
		n.Experience.Add(q, execs[i].plan, lat)
		n.ObserveLatency(q, lat)
		stats.TotalLatency += lat
		stats.QueryLatencies[q.ID] = lat
		if base, ok := n.Baseline(q.ID); ok {
			baseTotal += base
		} else {
			baseTotal += lat
		}
	}
	if baseTotal > 0 {
		stats.NormalizedLatency = stats.TotalLatency / baseTotal
	}
	stats.TrainLoss = n.Retrain()
	return stats, nil
}

// Evaluate optimizes and executes each query without adding the results to
// the experience (held-out evaluation). It returns the total latency and the
// per-query latencies. Plan search and simulation run concurrently over
// Config.Workers workers; see EvaluateParallel.
func (n *Neo) Evaluate(queries []*query.Query) (float64, map[string]float64, error) {
	return n.EvaluateParallel(queries, n.Config.Workers)
}

// EvaluateParallel is Evaluate with an explicit worker count. Like
// RunEpisodeParallel, searches and plan simulations fan out while the
// engine's noise draws commit in input order, so per-query plans and
// latencies are identical to the serial path for a fixed seed (with the
// same Featurizer.Error exception; see Config.Workers).
func (n *Neo) EvaluateParallel(queries []*query.Query, workers int) (float64, map[string]float64, error) {
	execs := n.planAndSimulate(queries, workers)
	perQuery := make(map[string]float64, len(queries))
	total := 0.0
	for i, q := range queries {
		if execs[i].err != nil {
			return 0, nil, execs[i].err
		}
		lat := n.Engine.Commit(execs[i].base)
		perQuery[q.ID] = lat
		total += lat
	}
	return total, perQuery, nil
}

// PredictNormalized exposes the raw value-network output for a plan of a
// query (used by the Figure 14 robustness analysis). It reads the serving
// snapshot, so it is safe to call while a retraining round is in flight.
func (n *Neo) PredictNormalized(q *query.Query, p *plan.Plan) float64 {
	return n.Snapshot().PredictNormalized(n.encodeQuery(q), n.Featurizer.EncodePlan(p))
}

// EncodePlanTrees is a convenience wrapper exposing the featurizer's plan
// encoding (useful for analysis tools and tests).
func (n *Neo) EncodePlanTrees(p *plan.Plan) []*treeconv.Tree {
	return n.Featurizer.EncodePlan(p)
}
