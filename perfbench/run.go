package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neo/internal/search"
	"neo/internal/serve"
	"neo/internal/treeconv"
	"neo/internal/valuenet"
	"neo/pkg/neo"
)

// counters is a snapshot of every public counter a layer exposes.
type counters struct {
	mem    runtime.MemStats
	cache  neo.PlanCacheStats
	route  neo.RouteStats
	fusion neo.FusionStats
	pool   neo.StorageStats
	stats  serve.Stats
	train  time.Duration
}

func readCounters(in *instance) (counters, error) {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.cache = in.sys.PlanCacheStats()
	c.route = in.sys.RouteStats()
	c.fusion = in.sys.FusionStats()
	c.pool, _ = in.sys.StorageStats()
	c.train = in.sys.Neo.TrainingTime()
	w := httptest.NewRecorder()
	in.srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if w.Code != http.StatusOK {
		return c, fmt.Errorf("/stats: status %d", w.Code)
	}
	return c, json.Unmarshal(w.Body.Bytes(), &c.stats)
}

// post sends body to one of the server's handlers in-process and decodes
// the reply into out. It returns the handler's own time, from request
// decode to encoded reply.
func (in *instance) post(path string, body []byte, out any) (time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	start := time.Now()
	in.srv.ServeHTTP(w, req)
	elapsed := time.Since(start)
	if w.Code != http.StatusOK {
		return elapsed, fmt.Errorf("%s: status %d: %s", path, w.Code, strings.TrimSpace(w.Body.String()))
	}
	return elapsed, json.Unmarshal(w.Body.Bytes(), out)
}

// execRec is one executed plan's result counts.
type execRec struct {
	intermediate, output float64
	truncated            bool
}

// event is a reply seen by a learn-loop session, for model freshness:
// an /optimize reply's net version, or a /feedback reply that triggered a
// retraining round (with the version served when it did).
type event struct {
	at      time.Duration
	version uint64
	trigger bool
}

// client is one closed-loop session's state and log.
type client struct {
	id      int
	zipf    *zipfSampler
	n       int // queries attempted
	rec     *recorder
	optMS   []float64
	queryMS []float64
	failed  int
	errs    []string
	execs   []execRec
	events  []event
	hits    []int // serve.optimize spans that were plan-cache hits
	// ownLookups counts plan-cache lookups made besides the /optimize
	// handler's: the check's System.Optimize and /feedback's re-plan, both
	// hits unless a retraining round swapped the network in between.
	ownLookups int
}

// runResult is what one pass (untraced or traced) leaves behind.
type runResult struct {
	clients []*client
	elapsed time.Duration
	start   counters
	end     counters
	// prefix is the pool snapshot after exactOps queries (exec-evict).
	prefix    neo.StorageStats
	prefixSet bool
	// served holds, per query index, the plan string and search effort
	// the pass obtained (pickFresh workloads).
	served []servedPlan
}

type servedPlan struct {
	ok                      bool
	plan                    string
	expansions, evaluations int
}

// pass drives one timed pass of the workload against in for the given
// duration. With traced set, every client records spans and search-cold
// runs its search through the benchmark's own call path so that the layers
// inside it are visible.
type pass struct {
	w        workloadDef
	in       *instance
	inputs   []input
	trueCard []float64
	seed     int64
	traced   bool

	epoch    time.Time
	deadline time.Time
	next     atomic.Int64
	res      runResult
}

func (p *pass) run(d time.Duration) (runResult, error) {
	var err error
	if p.res.start, err = readCounters(p.in); err != nil {
		return p.res, err
	}
	p.res.served = make([]servedPlan, len(p.inputs))
	p.epoch = time.Now()
	p.deadline = p.epoch.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < p.w.clients; i++ {
		c := &client{id: i}
		if p.w.pick == pickZipf {
			c.zipf = newZipfSampler(p.seed*1000+int64(i), len(p.inputs))
		}
		if p.traced {
			c.rec = &recorder{epoch: p.epoch}
		}
		p.res.clients = append(p.res.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.session(c)
		}()
	}
	wg.Wait()
	p.res.elapsed = time.Since(p.epoch)
	p.res.end, err = readCounters(p.in)
	return p.res, err
}

func (p *pass) session(c *client) {
	for time.Now().Before(p.deadline) {
		var idx int
		switch p.w.pick {
		case pickFresh:
			idx = int(p.next.Add(1) - 1)
			if idx >= len(p.inputs) {
				return
			}
		case pickZipf:
			idx = c.zipf.next()
		default:
			idx = c.n % len(p.inputs)
		}
		c.n++
		if c.rec != nil {
			c.rec.req = int64(c.id)<<32 | int64(c.n)
		}
		var err error
		switch {
		case p.w.execute:
			err = p.execQuery(c, idx)
		case p.traced:
			err = p.tracedSearch(c, idx)
		default:
			err = p.optimizeOnly(c, idx)
		}
		if err != nil {
			c.failed++
			if len(c.errs) < 5 {
				c.errs = append(c.errs, fmt.Sprintf("query %d: %v", idx, err))
			}
		}
		if p.w.clients == 1 && c.n == p.w.exactOps {
			p.res.prefix, p.res.prefixSet = p.in.sys.StorageStats()
		}
	}
}

// optimizeOnly is search-cold's untraced query: one /optimize.
func (p *pass) optimizeOnly(c *client, idx int) error {
	var reply serve.OptimizeResponse
	d, err := p.in.post("/optimize", p.inputs[idx].body, &reply)
	if err != nil {
		return err
	}
	ms := float64(d) / 1e6
	c.optMS = append(c.optMS, ms)
	c.queryMS = append(c.queryMS, ms)
	p.res.served[idx] = servedPlan{ok: true, plan: reply.Plan, expansions: reply.Expansions}
	return nil
}

// tracedSearch is search-cold's traced query. It does the /optimize
// handler's work through the layers' public functions, one span each:
// decode the spec, encode the query, best-first search scoring through the
// serving snapshot, encode the reply.
func (p *pass) tracedSearch(c *client, idx int) error {
	rec, sys := c.rec, p.in.sys
	start := time.Now()
	root := rec.begin("request", -1)
	s := rec.begin("serve.decode", root)
	q, err := decodeQuery(p.inputs[idx].body, sys.Catalog)
	rec.end(s, 0)
	if err != nil {
		rec.drop(root)
		return err
	}
	s = rec.begin("feature.EncodeQuery", root)
	sc := &tracedScorer{rec: rec, feat: sys.Featurizer, snap: sys.Neo.Snapshot(), qEnc: sys.Featurizer.EncodeQuery(q)}
	rec.end(s, 0)
	s = rec.begin("search.BestFirst", root)
	sc.parent = s
	res, err := search.BestFirst(q, sc, search.Options{Catalog: sys.Catalog, MaxExpansions: sys.Config.SearchExpansions})
	rec.end(s, 0)
	if err != nil {
		rec.drop(root)
		return err
	}
	s = rec.begin("serve.encode", root)
	reply, err := json.Marshal(serve.OptimizeResponse{
		ID: p.inputs[idx].spec.ID, Plan: res.Plan.String(), SQL: q.SQL(),
		Score: res.Score, Expansions: res.Expansions, NetVersion: sys.Neo.NetVersion(),
	})
	rec.end(s, len(reply))
	rec.end(root, 0)
	if err != nil {
		return err
	}
	ms := float64(time.Since(start)) / 1e6
	c.optMS = append(c.optMS, ms)
	c.queryMS = append(c.queryMS, ms)
	p.res.served[idx] = servedPlan{ok: true, plan: res.Plan.String(), expansions: res.Expansions, evaluations: res.Evaluations}
	return nil
}

// tracedScorer is the serving scorer (the query's encoding plus one
// batched snapshot forward pass per expansion) with a span around each
// featurization and each forward pass.
type tracedScorer struct {
	rec     *recorder
	parent  int
	feat    *neo.Featurizer
	snap    *valuenet.Snapshot
	qEnc    []float64
	queries [][]float64
	forests [][]*treeconv.Tree
}

// ScoreBatch implements search.BatchScorer.
func (t *tracedScorer) ScoreBatch(ps []*neo.Plan) []float64 {
	t.queries, t.forests = t.queries[:0], t.forests[:0]
	s := t.rec.begin("feature.EncodePlan", t.parent)
	for _, p := range ps {
		t.queries = append(t.queries, t.qEnc)
		t.forests = append(t.forests, t.feat.EncodePlan(p))
	}
	t.rec.end(s, len(ps))
	s = t.rec.begin("valuenet.PredictBatch", t.parent)
	scores := t.snap.PredictBatch(t.queries, t.forests)
	t.rec.end(s, len(ps))
	return scores
}

// execQuery is a learn-loop or exec-evict session's query: /optimize,
// decode the spec and fetch the served plan from System.Optimize (checking
// it is the plan the reply named), execute it, and post its latency to
// /feedback where the workload learns.
func (p *pass) execQuery(c *client, idx int) error {
	rec, sys := c.rec, p.in.sys
	in := p.inputs[idx]
	start := time.Now()
	root := rec.begin("request", -1)
	var plan *neo.Plan
	var hits []int
	for attempt := 0; ; attempt++ {
		var before neo.PlanCacheStats
		if rec != nil {
			before = sys.PlanCacheStats()
		}
		var reply serve.OptimizeResponse
		s := rec.begin("serve.optimize", root)
		d, err := p.in.post("/optimize", in.body, &reply)
		rec.end(s, 0)
		c.optMS = append(c.optMS, float64(d)/1e6)
		if err != nil {
			rec.drop(root)
			return err
		}
		if rec != nil {
			if after := sys.PlanCacheStats(); after.Hits == before.Hits+1 && after.Misses == before.Misses {
				hits = append(hits, s)
			}
		}
		if p.w.feedback {
			c.events = append(c.events, event{at: time.Since(p.epoch), version: reply.NetVersion})
		}
		s = rec.begin("serve.decode", root)
		q, err := decodeQuery(in.body, sys.Catalog)
		rec.end(s, 0)
		if err != nil {
			rec.drop(root)
			return err
		}
		v := sys.Neo.NetVersion()
		c.ownLookups++
		s = rec.begin("neo.Optimize", root)
		plan, _, err = sys.Optimize(q)
		rec.end(s, 0)
		if err != nil {
			rec.drop(root)
			return err
		}
		if v != reply.NetVersion || sys.Neo.NetVersion() != v {
			// A retraining round swapped the network between the reply and
			// the check; ask again under the new version.
			if attempt < 3 {
				continue
			}
			rec.drop(root)
			return fmt.Errorf("net version kept moving (%d served, %d now)", reply.NetVersion, sys.Neo.NetVersion())
		}
		if got := plan.String(); got != reply.Plan {
			rec.drop(root)
			return fmt.Errorf("served plan %q differs from System.Optimize's %q", reply.Plan, got)
		}
		break
	}
	s := rec.begin("engine.Execute", root)
	lat, res, err := sys.Engine.Execute(plan)
	rec.end(s, 0)
	if err != nil {
		rec.drop(root)
		return err
	}
	c.execs = append(c.execs, execRec{intermediate: res.TotalIntermediateRows, output: res.OutputRows, truncated: res.Truncated})
	if res.Truncated {
		rec.drop(root)
		return fmt.Errorf("result truncated at the executor's row budget")
	}
	if res.OutputRows != p.trueCard[idx] {
		rec.drop(root)
		return fmt.Errorf("result has %v rows, true cardinality is %v", res.OutputRows, p.trueCard[idx])
	}
	if p.w.feedback {
		body, err := json.Marshal(serve.FeedbackRequest{Query: in.spec, LatencyMS: lat})
		if err != nil {
			rec.drop(root)
			return err
		}
		var fb serve.FeedbackResponse
		c.ownLookups++
		s = rec.begin("serve.feedback", root)
		_, err = p.in.post("/feedback", body, &fb)
		rec.end(s, 0)
		if err != nil {
			rec.drop(root)
			return err
		}
		if fb.RetrainTriggered {
			c.events = append(c.events, event{at: time.Since(p.epoch), version: sys.Neo.NetVersion(), trigger: true})
		}
	}
	rec.end(root, 0)
	c.hits = append(c.hits, hits...)
	c.queryMS = append(c.queryMS, float64(time.Since(start))/1e6)
	return nil
}
