// Package serve implements the neo-serve daemon: an HTTP front end over a
// trained pkg/neo System that serves plans from the value-network snapshot
// and plan cache. It runs in two modes.
//
// Standalone (Config.Replica nil) is the original online-learning daemon:
// /feedback latencies land in the local experience pool, the value network
// retrains in the background every N feedbacks (publishing new weights with
// an atomic snapshot swap that invalidates the plan cache), and the learned
// state is checkpointed periodically and on graceful shutdown — so a warm
// restart serves bit-identical plans.
//
// Replica (Config.Replica set) is the serving half of the distributed tier:
// the daemon scores from a read-only snapshot it pulls from a neo-trainer,
// never trains, and forwards /feedback experience to the trainer in batched,
// CRC-checked containers with retry/timeout/backoff — a dead trainer
// degrades the replica to frozen-snapshot serving, never to failed requests.
// Snapshot loads arrive via POST /admin/snapshot (driven by the trainer's
// rollout coordinator: canary one replica, compare /stats plan quality,
// promote fleet-wide). See OPERATIONS.md for the deployment guide.
//
// Endpoints:
//
//	POST /optimize        {query spec}              -> chosen plan
//	POST /feedback        {query spec, latency_ms}  -> experience/queue status
//	GET  /stats                                     -> serving counters
//	GET  /healthz                                   -> 200 ok
//	POST /admin/snapshot  {version}                 -> load a published snapshot (replica mode)
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neo/internal/cluster/proto"
	"neo/internal/core"
	"neo/pkg/neo"
)

// Config tunes the daemon.
type Config struct {
	// CheckpointPath is where checkpoints are written (atomically, via temp
	// file + rename). Empty disables checkpointing.
	CheckpointPath string
	// CheckpointEvery is the periodic checkpoint interval started by Start.
	// Zero disables the loop (shutdown still checkpoints).
	CheckpointEvery time.Duration
	// RetrainEvery triggers a background retraining round after every N
	// feedbacks. Zero disables automatic retraining. Rounds never queue: a
	// trigger arriving while a round is in flight is skipped (its feedback
	// is in the experience and will be picked up by the next round).
	RetrainEvery int
	// MaxExperience bounds the experience pool: when a feedback pushes the
	// pool past the limit, the oldest entries are dropped. This keeps a
	// long-running daemon's memory and checkpoint size bounded (checkpoints
	// refuse to load implausibly large experience sections). Zero selects
	// the default (100 000); negative disables trimming.
	MaxExperience int
	// Replica switches the daemon into replica mode: feedback is forwarded
	// to the configured trainer instead of training locally, and snapshots
	// arrive via /admin/snapshot. RetrainEvery is forced to zero — replicas
	// never train. Nil selects the standalone online-learning mode.
	Replica *ReplicaConfig
}

// defaultMaxExperience bounds the experience pool when Config.MaxExperience
// is zero — far below the checkpoint loader's hard limit, far above what a
// retraining round can consume (core caps training samples anyway).
const defaultMaxExperience = 100_000

// Server is the daemon. Create one with New, expose it as an http.Handler,
// call Start for the periodic checkpoint loop and Close on shutdown.
type Server struct {
	sys   *neo.System
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	optimizes   atomic.Uint64
	feedbacks   atomic.Uint64
	retrains    atomic.Uint64
	checkpoints atomic.Uint64
	retraining  atomic.Bool
	lastLoss    atomic.Uint64 // float64 bits

	// ckptMu serializes Checkpoint calls (periodic loop vs shutdown).
	ckptMu sync.Mutex

	// swapMu orders snapshot loads against in-flight planning: /optimize and
	// /feedback searches hold the read side, a replica's /admin/snapshot load
	// (which replaces the network weights in place) holds the write side. In
	// standalone mode the write side is never taken — retraining swaps are
	// already atomic-pointer safe — so the RLock cost is a single uncontended
	// atomic per request.
	swapMu sync.RWMutex

	// repl is the replica-mode state (forwarding queue, trainer client,
	// quality window); nil in standalone mode.
	repl *replicaState

	// lifeMu guards closed and orders wg.Add against Close's wg.Wait: a
	// handler still in flight after the HTTP drain times out must not Add to
	// a WaitGroup another goroutine is Waiting on from zero.
	lifeMu sync.Mutex
	closed bool

	wg   sync.WaitGroup
	stop chan struct{}
	once sync.Once
}

// New creates a server over an assembled (and typically bootstrapped or
// checkpoint-restored) system.
func New(sys *neo.System, cfg Config) *Server {
	if cfg.MaxExperience == 0 {
		cfg.MaxExperience = defaultMaxExperience
	}
	if cfg.Replica != nil {
		// Replicas never train: their weights come exclusively from trainer
		// snapshots, so local retraining would fork the fleet's model state.
		cfg.RetrainEvery = 0
	}
	s := &Server{sys: sys, cfg: cfg, mux: http.NewServeMux(), start: time.Now(), stop: make(chan struct{})}
	s.mux.HandleFunc("POST /optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /feedback", s.handleFeedback)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if cfg.Replica != nil {
		s.repl = newReplicaState(*cfg.Replica)
		s.mux.HandleFunc("POST /admin/snapshot", s.handleAdminSnapshot)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Start launches the background loops: the periodic checkpoint loop (when a
// path and interval are configured) and, in replica mode, the experience
// forwarder.
func (s *Server) Start() {
	if s.cfg.CheckpointPath != "" && s.cfg.CheckpointEvery > 0 {
		s.goRun(func() {
			ticker := time.NewTicker(s.cfg.CheckpointEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					s.Checkpoint() // best effort; failures surface in /stats staying flat
				case <-s.stop:
					return
				}
			}
		})
	}
	if s.repl != nil {
		s.goRun(func() { s.repl.forwardLoop(s.stop) })
	}
}

// goRun registers fn with the lifecycle WaitGroup and runs it in a
// goroutine, refusing (silently) once shutdown has begun.
func (s *Server) goRun(fn func()) {
	s.lifeMu.Lock()
	if s.closed {
		s.lifeMu.Unlock()
		return
	}
	s.wg.Add(1)
	s.lifeMu.Unlock()
	go func() {
		defer s.wg.Done()
		fn()
	}()
}

// Close stops the background loops, waits for any in-flight retraining
// round's bookkeeping, drains a replica's forwarding queue to the trainer,
// and writes a final checkpoint — the graceful-shutdown half of the serve
// lifecycle. Safe to call more than once.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		s.lifeMu.Lock()
		s.closed = true
		s.lifeMu.Unlock()
		close(s.stop)
		s.wg.Wait()
		if s.repl != nil {
			// Final flush: queued experience a dying replica holds is the
			// trainer's training signal — hand it over, don't drop it.
			s.repl.drain()
		}
		err = s.Checkpoint()
	})
	return err
}

// Checkpoint writes the system's learned state to the configured path,
// atomically. It briefly pauses retraining rounds; serving keeps running.
func (s *Server) Checkpoint() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if err := s.sys.SaveCheckpointFile(s.cfg.CheckpointPath); err != nil {
		return err
	}
	s.checkpoints.Add(1)
	return nil
}

// The JSON wire types are owned by the cluster protocol package, so the
// router, the trainer's coordinator and pkg/neo.Client speak exactly the
// format this daemon serves. The aliases keep the serve API unchanged.
type (
	// QuerySpec is the JSON representation of a query.
	QuerySpec = proto.QuerySpec
	// JoinSpec is one equi-join predicate.
	JoinSpec = proto.JoinSpec
	// PredicateSpec is one single-table filter.
	PredicateSpec = proto.PredicateSpec
	// OptimizeResponse is the /optimize reply.
	OptimizeResponse = proto.OptimizeResponse
	// FeedbackRequest reports the observed latency of a query's plan.
	FeedbackRequest = proto.FeedbackRequest
	// FeedbackResponse is the /feedback reply.
	FeedbackResponse = proto.FeedbackResponse
)

var cmpOps = map[string]neo.CmpOp{
	"=": neo.Eq, "==": neo.Eq, "<>": neo.Ne, "!=": neo.Ne,
	"<": neo.Lt, "<=": neo.Le, ">": neo.Gt, ">=": neo.Ge,
	"like": neo.Like,
}

// buildQuery validates the spec against the catalog and converts it.
func (s *Server) buildQuery(spec *QuerySpec) (*neo.Query, error) {
	joins := make([]neo.JoinPredicate, len(spec.Joins))
	for i, j := range spec.Joins {
		lt, lc, err := splitColumnRef(j.Left)
		if err != nil {
			return nil, fmt.Errorf("joins[%d].left: %w", i, err)
		}
		rt, rc, err := splitColumnRef(j.Right)
		if err != nil {
			return nil, fmt.Errorf("joins[%d].right: %w", i, err)
		}
		joins[i] = neo.JoinPredicate{LeftTable: lt, LeftColumn: lc, RightTable: rt, RightColumn: rc}
	}
	preds := make([]neo.Predicate, len(spec.Predicates))
	for i, p := range spec.Predicates {
		table, column, err := splitColumnRef(p.Column)
		if err != nil {
			return nil, fmt.Errorf("predicates[%d].column: %w", i, err)
		}
		op, ok := cmpOps[strings.ToLower(p.Op)]
		if !ok {
			return nil, fmt.Errorf("predicates[%d]: unknown op %q", i, p.Op)
		}
		value, err := parseValue(p.Value)
		if err != nil {
			return nil, fmt.Errorf("predicates[%d].value: %w", i, err)
		}
		preds[i] = neo.Predicate{Table: table, Column: column, Op: op, Value: value}
	}
	q := neo.NewQuery(spec.ID, spec.Relations, joins, preds)
	// The internal query ID is always the structural signature: experience,
	// baselines and encoding caches key on the ID, and client-supplied IDs
	// are not guaranteed unique per structure — two different queries under
	// one reused ID would silently cross-contaminate training targets. The
	// client's ID is echoed back in responses only.
	q.ID = q.Signature()
	if err := q.Validate(s.sys.Catalog); err != nil {
		return nil, err
	}
	return q, nil
}

func splitColumnRef(ref string) (table, column string, err error) {
	parts := strings.SplitN(ref, ".", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", "", fmt.Errorf("column reference %q is not of the form table.column", ref)
	}
	return parts[0], parts[1], nil
}

func parseValue(raw json.RawMessage) (neo.Value, error) {
	var i int64
	if err := json.Unmarshal(raw, &i); err == nil {
		return neo.IntValue(i), nil
	}
	var str string
	if err := json.Unmarshal(raw, &str); err == nil {
		return neo.StringValue(str), nil
	}
	return neo.Value{}, fmt.Errorf("value %s is neither an integer nor a string", string(raw))
}

// optimizeStable plans q and returns the network version the plan was served
// from. A background snapshot swap can race the search; in that case the
// search is retried so the reported version really is the plan's version.
// After a few retries (swaps arriving faster than searches complete — not a
// realistic steady state) the latest attempt is returned labelled with its
// pre-search version, which the plan is at least as new as. The read side of
// swapMu keeps a replica's in-place snapshot load from replacing weights
// mid-search.
func (s *Server) optimizeStable(q *neo.Query) (*neo.Plan, *neo.SearchResult, uint64, error) {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	for attempt := 0; ; attempt++ {
		v := s.sys.Neo.NetVersion()
		p, res, err := s.sys.Optimize(q)
		if err != nil {
			return nil, nil, 0, err
		}
		if s.sys.Neo.NetVersion() == v || attempt >= 2 {
			return p, res, v, nil
		}
	}
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var spec QuerySpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding query: %w", err))
		return
	}
	q, err := s.buildQuery(&spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	p, res, version, err := s.optimizeStable(q)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.optimizes.Add(1)
	id := spec.ID
	if id == "" {
		id = q.ID
	}
	writeJSON(w, OptimizeResponse{
		ID:         id,
		Plan:       p.String(),
		SQL:        q.SQL(),
		Score:      res.Score,
		Expansions: res.Expansions,
		NetVersion: version,
	})
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req FeedbackRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding feedback: %w", err))
		return
	}
	if req.LatencyMS <= 0 || math.IsNaN(req.LatencyMS) || math.IsInf(req.LatencyMS, 0) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("latency_ms must be a positive finite number"))
		return
	}
	q, err := s.buildQuery(&req.Query)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Fast-path rejection for obviously stale feedback: after a snapshot
	// swap the plan cache is empty, so running the search first would spend
	// a full expansion budget on a request that gets a 409 anyway. The
	// definitive check against the served plan's version stays below.
	if req.NetVersion != 0 && req.NetVersion != s.sys.Neo.NetVersion() {
		httpError(w, http.StatusConflict, fmt.Errorf(
			"stale feedback: plan was measured under net version %d but plans are now served from version %d; re-optimize and re-measure",
			req.NetVersion, s.sys.Neo.NetVersion()))
		return
	}
	// Attach the latency to the plan currently served for this query — a
	// plan-cache hit in the common case, so feedback costs no search.
	p, _, version, err := s.optimizeStable(q)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if req.NetVersion != 0 && req.NetVersion != version {
		httpError(w, http.StatusConflict, fmt.Errorf(
			"stale feedback: plan was measured under net version %d but plans are now served from version %d; re-optimize and re-measure",
			req.NetVersion, version))
		return
	}
	// Route-regret accounting: a measured latency for a fast-path-routed
	// class is compared against the value net's estimate for the full
	// search's plan (a no-op outside auto routing, in both modes below).
	s.sys.Neo.ObserveLatency(q, req.LatencyMS)
	if s.repl != nil {
		// Replica path: the entry goes to the trainer, not a local pool. The
		// quality window feeds the rollout coordinator's canary comparison.
		s.feedbacks.Add(1)
		s.repl.recordLatency(req.LatencyMS)
		entry := core.Entry{Query: q, Plan: p, Latency: req.LatencyMS}
		depth, queued := s.repl.enqueue(entry)
		if !queued {
			// The shutdown drain already ran; forward this straggler directly
			// (best effort) rather than silently discarding an accepted
			// request's experience.
			s.repl.forwardNow(r.Context(), []core.Entry{entry})
		}
		writeJSON(w, FeedbackResponse{Experience: depth, Queued: true})
		return
	}
	s.sys.Neo.Experience.Add(q, p, req.LatencyMS)
	if s.cfg.MaxExperience > 0 && s.sys.Neo.Experience.Len() > s.cfg.MaxExperience {
		s.sys.Neo.Experience.Trim(s.cfg.MaxExperience)
	}
	count := s.feedbacks.Add(1)
	triggered := false
	if s.cfg.RetrainEvery > 0 && count%uint64(s.cfg.RetrainEvery) == 0 {
		triggered = s.triggerRetrain()
	}
	writeJSON(w, FeedbackResponse{
		Experience:       s.sys.Neo.Experience.Len(),
		RetrainTriggered: triggered,
	})
}

// triggerRetrain starts a background retraining round unless one is already
// in flight. When the round finishes the new network snapshot has been
// swapped in atomically (invalidating the plan cache on its next lookup) and
// the final loss lands in /stats.
func (s *Server) triggerRetrain() bool {
	if !s.retraining.CompareAndSwap(false, true) {
		return false
	}
	// Register with the lifecycle WaitGroup before starting the round, and
	// refuse if shutdown has begun: a late feedback must not race Close's
	// wg.Wait or start training the daemon is about to checkpoint away.
	s.lifeMu.Lock()
	if s.closed {
		s.lifeMu.Unlock()
		s.retraining.Store(false)
		return false
	}
	s.wg.Add(1)
	s.lifeMu.Unlock()
	done := s.sys.RetrainAsync()
	go func() {
		defer s.wg.Done()
		loss := <-done
		s.lastLoss.Store(math.Float64bits(loss))
		s.retrains.Add(1)
		s.retraining.Store(false)
	}()
	return true
}

// Stats is the /stats reply.
type Stats struct {
	UptimeSeconds float64            `json:"uptime_seconds"`
	NetVersion    uint64             `json:"net_version"`
	Experience    int                `json:"experience"`
	Optimizes     uint64             `json:"optimizes"`
	Feedbacks     uint64             `json:"feedbacks"`
	Retrains      uint64             `json:"retrains"`
	Retraining    bool               `json:"retraining"`
	LastTrainLoss float64            `json:"last_train_loss"`
	Checkpoints   uint64             `json:"checkpoints"`
	PlanCache     neo.PlanCacheStats `json:"plan_cache"`
	// Fusion reports the score memo shared by all in-flight /optimize
	// searches: batches counts forward passes run for cache misses,
	// cache_hits the rows answered without one. fused_batches and
	// avg_fused_size are deprecated and always zero. All-zero
	// (enabled=false) when the system was opened without fused scoring.
	Fusion neo.FusionStats `json:"fusion"`
	// Snapshot reports the serving snapshot's scoring precision and memory
	// footprint: "float64" is the exact training format, "float32" the
	// packed inference-kernel format converted once per snapshot
	// publication (see the -score-precision flag).
	Snapshot neo.SnapshotInfo `json:"snapshot"`
	// Storage reports the disk backend's buffer-pool counters — hit rate,
	// evictions, bytes read from the heap files. Omitted (nil) when the
	// system runs a simulated engine, which touches no storage.
	Storage *neo.StorageStats `json:"storage,omitempty"`
	// Cluster reports the replica-mode state — forwarding queue, trainer
	// link health, plan-quality window. Omitted (nil) in standalone mode.
	Cluster *proto.ClusterStats `json:"cluster,omitempty"`
	// Routing reports the query router's per-class decision counters,
	// fast-path planning-latency percentiles (µs) and regret accounting.
	// Omitted (nil) when routing is "full" (the default), where every query
	// takes the full search and there is nothing to report.
	Routing *neo.RouteStats `json:"routing,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.snapshotStats())
}

func (s *Server) snapshotStats() Stats {
	var storagePtr *neo.StorageStats
	if st, ok := s.sys.StorageStats(); ok {
		storagePtr = &st
	}
	var clusterPtr *proto.ClusterStats
	if s.repl != nil {
		cs := s.repl.clusterStats(s.sys.Neo.NetVersion())
		clusterPtr = &cs
	}
	var routingPtr *neo.RouteStats
	if rs := s.sys.RouteStats(); rs.Mode != "full" {
		routingPtr = &rs
	}
	return Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		NetVersion:    s.sys.Neo.NetVersion(),
		Experience:    s.sys.Neo.Experience.Len(),
		Optimizes:     s.optimizes.Load(),
		Feedbacks:     s.feedbacks.Load(),
		Retrains:      s.retrains.Load(),
		Retraining:    s.retraining.Load(),
		LastTrainLoss: math.Float64frombits(s.lastLoss.Load()),
		Checkpoints:   s.checkpoints.Load(),
		PlanCache:     s.sys.PlanCacheStats(),
		Fusion:        s.sys.FusionStats(),
		Snapshot:      s.sys.SnapshotInfo(),
		Storage:       storagePtr,
		Cluster:       clusterPtr,
		Routing:       routingPtr,
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
