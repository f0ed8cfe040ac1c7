package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"neo/pkg/neo"
)

// testSystem assembles and bootstraps a small system (1-hot encoding: no
// embedding training, so the integration test stays fast under -race). It
// serves at float32 precision — the neo-serve default — so the whole
// lifecycle (optimize, retrain swap, checkpoint, warm restart) runs through
// the packed inference kernels.
func testSystem(t testing.TB) (*neo.System, []*neo.Query) {
	t.Helper()
	sys, err := neo.Open(neo.Config{
		Dataset:          "imdb",
		Engine:           "postgres",
		Encoding:         neo.OneHot,
		Scale:            0.15,
		Seed:             7,
		SearchExpansions: 24,
		Episodes:         1,
		ScorePrecision:   "float32",
		ValueNet: &neo.ValueNetConfig{
			QueryLayers:  []int{16, 8},
			TreeChannels: []int{8, 8},
			HeadLayers:   []int{8},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := sys.GenerateWorkload(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Bootstrap(wl.Queries[:4]); err != nil {
		t.Fatal(err)
	}
	return sys, wl.Queries
}

// specFor converts a workload query into the JSON representation the daemon
// accepts.
func specFor(q *neo.Query) QuerySpec {
	spec := QuerySpec{ID: q.ID, Relations: q.Relations}
	for _, j := range q.Joins {
		spec.Joins = append(spec.Joins, JoinSpec{
			Left:  j.LeftTable + "." + j.LeftColumn,
			Right: j.RightTable + "." + j.RightColumn,
		})
	}
	for _, p := range q.Predicates {
		var raw json.RawMessage
		if p.Value.Kind == neo.IntValue(0).Kind {
			raw, _ = json.Marshal(p.Value.Int)
		} else {
			raw, _ = json.Marshal(p.Value.Str)
		}
		spec.Predicates = append(spec.Predicates, PredicateSpec{
			Column: p.Table + "." + p.Column,
			Op:     p.Op.String(),
			Value:  raw,
		})
	}
	return spec
}

func postJSON(t testing.TB, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func getStats(t testing.TB, base string) Stats {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func optimizePlans(t testing.TB, base string, queries []*neo.Query) map[string]string {
	t.Helper()
	plans := make(map[string]string, len(queries))
	for _, q := range queries {
		var resp OptimizeResponse
		if code := postJSON(t, base+"/optimize", specFor(q), &resp); code != http.StatusOK {
			t.Fatalf("optimize %s: status %d", q.ID, code)
		}
		if resp.Plan == "" {
			t.Fatalf("optimize %s: empty plan", q.ID)
		}
		plans[q.ID] = resp.Plan
	}
	return plans
}

// TestServeLifecycle drives the whole daemon in process: concurrent
// /optimize and /feedback clients, a feedback-triggered retraining round
// whose snapshot swap invalidates the plan cache, a graceful-shutdown
// checkpoint, and a warm restart that serves bit-identical plans. Run under
// -race in CI.
func TestServeLifecycle(t *testing.T) {
	sys, queries := testSystem(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "serve.ckpt")

	const retrainEvery = 4
	srv := New(sys, Config{CheckpointPath: ckpt, RetrainEvery: retrainEvery})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Health + initial serving state.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	initial := getStats(t, ts.URL)
	versionBefore := initial.NetVersion
	if initial.Snapshot.Precision != "float32" || initial.Snapshot.PanelBytes == 0 {
		t.Fatalf("stats snapshot section not reporting float32 serving: %+v", initial.Snapshot)
	}

	// Concurrent optimize + feedback clients.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range queries[:4] {
				var opt OptimizeResponse
				if code := postJSON(t, ts.URL+"/optimize", specFor(q), &opt); code != http.StatusOK {
					t.Errorf("worker %d optimize: status %d", w, code)
					return
				}
				var fb FeedbackResponse
				req := FeedbackRequest{Query: specFor(q), LatencyMS: float64(20 + 7*w + i)}
				if code := postJSON(t, ts.URL+"/feedback", req, &fb); code != http.StatusOK {
					t.Errorf("worker %d feedback: status %d", w, code)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// 16 feedbacks at retrain-every=4 must have triggered at least one
	// background round; wait for it to land.
	deadline := time.Now().Add(30 * time.Second)
	var st Stats
	for {
		st = getStats(t, ts.URL)
		if st.Retrains >= 1 && !st.Retraining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no retraining round completed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.NetVersion <= versionBefore {
		t.Fatalf("net version %d did not advance past %d after retraining", st.NetVersion, versionBefore)
	}
	if st.Feedbacks != 16 || st.Experience <= 4 {
		t.Fatalf("unexpected serving counters: %+v", st)
	}

	// The snapshot swap must invalidate the plan cache: the next optimize
	// re-keys the cache to the new network version.
	finalPlans := optimizePlans(t, ts.URL, queries)
	st = getStats(t, ts.URL)
	if st.PlanCache.Version != st.NetVersion {
		t.Fatalf("plan cache version %d still behind net version %d after swap",
			st.PlanCache.Version, st.NetVersion)
	}
	if st.PlanCache.Size == 0 {
		t.Fatal("plan cache empty after re-optimizing")
	}

	// Graceful shutdown writes the final checkpoint; Close is idempotent.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("shutdown checkpoint missing: %v", err)
	}

	// Warm restart: a fresh system restored from the checkpoint serves
	// bit-identical plans for every query.
	sys2, err := neo.Open(sys.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.LoadCheckpointFile(ckpt); err != nil {
		t.Fatal(err)
	}
	srv2 := New(sys2, Config{CheckpointPath: ckpt, RetrainEvery: retrainEvery})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()
	if got, want := getStats(t, ts2.URL).NetVersion, st.NetVersion; got != want {
		t.Fatalf("warm restart at net version %d, want %d", got, want)
	}
	restartPlans := optimizePlans(t, ts2.URL, queries)
	for id, want := range finalPlans {
		if got := restartPlans[id]; got != want {
			t.Fatalf("query %s: warm restart served a different plan:\n  before: %s\n  after:  %s", id, want, got)
		}
	}
}

// TestServeStaleFeedbackAndExperienceCap pins the two feedback safety rails:
// feedback carrying a superseded net_version is rejected with 409 (its
// latency belongs to a plan that is no longer served), and the experience
// pool is trimmed to the configured cap.
func TestServeStaleFeedbackAndExperienceCap(t *testing.T) {
	sys, queries := testSystem(t)
	cap := sys.Neo.Experience.Len() + 3
	srv := New(sys, Config{MaxExperience: cap})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var opt OptimizeResponse
	if code := postJSON(t, ts.URL+"/optimize", specFor(queries[0]), &opt); code != http.StatusOK {
		t.Fatalf("optimize: status %d", code)
	}

	// Correct version: accepted.
	req := FeedbackRequest{Query: specFor(queries[0]), LatencyMS: 12, NetVersion: opt.NetVersion}
	if code := postJSON(t, ts.URL+"/feedback", req, nil); code != http.StatusOK {
		t.Fatalf("matching net_version: status %d", code)
	}
	// Superseded version: rejected with 409, experience unchanged.
	before := sys.Neo.Experience.Len()
	req.NetVersion = opt.NetVersion - 1
	if code := postJSON(t, ts.URL+"/feedback", req, nil); code != http.StatusConflict {
		t.Fatalf("stale net_version: status %d, want 409", code)
	}
	if got := sys.Neo.Experience.Len(); got != before {
		t.Fatalf("stale feedback grew the experience: %d -> %d", before, got)
	}

	// The pool never exceeds the cap no matter how many feedbacks arrive.
	for i := 0; i < 8; i++ {
		req := FeedbackRequest{Query: specFor(queries[i%3]), LatencyMS: float64(10 + i)}
		if code := postJSON(t, ts.URL+"/feedback", req, nil); code != http.StatusOK {
			t.Fatalf("feedback %d: status %d", i, code)
		}
		if got := sys.Neo.Experience.Len(); got > cap {
			t.Fatalf("experience %d exceeds cap %d", got, cap)
		}
	}
	if got := sys.Neo.Experience.Len(); got != cap {
		t.Fatalf("experience = %d after trimming, want cap %d", got, cap)
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	sys, queries := testSystem(t)
	srv := New(sys, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}

	bad := []QuerySpec{
		{Relations: []string{"no_such_table"}},
		{Relations: []string{"title"}, Predicates: []PredicateSpec{{Column: "missing-dot", Op: "=", Value: json.RawMessage(`1`)}}},
		{Relations: []string{"title"}, Predicates: []PredicateSpec{{Column: "title.kind", Op: "~~", Value: json.RawMessage(`"x"`)}}},
		{Relations: []string{"title"}, Predicates: []PredicateSpec{{Column: "title.kind", Op: "=", Value: json.RawMessage(`[1,2]`)}}},
	}
	for i, spec := range bad {
		if code := postJSON(t, ts.URL+"/optimize", spec, nil); code != http.StatusBadRequest {
			t.Errorf("bad spec %d: status %d, want 400", i, code)
		}
	}

	// Feedback with a non-positive latency.
	req := FeedbackRequest{Query: specFor(queries[0]), LatencyMS: 0}
	if code := postJSON(t, ts.URL+"/feedback", req, nil); code != http.StatusBadRequest {
		t.Errorf("zero latency: status %d, want 400", code)
	}

	// Wrong method.
	resp, err = http.Get(ts.URL + "/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET /optimize should not be served")
	}
}

// fusedSystem is testSystem with the cross-request inference scheduler
// enabled, as neo-serve runs in production.
func fusedSystem(t testing.TB) (*neo.System, []*neo.Query) {
	t.Helper()
	sys, err := neo.Open(neo.Config{
		Dataset:          "imdb",
		Engine:           "postgres",
		Encoding:         neo.OneHot,
		Scale:            0.15,
		Seed:             7,
		SearchExpansions: 24,
		Episodes:         1,
		FuseScoring:      true,
		ValueNet: &neo.ValueNetConfig{
			QueryLayers:  []int{16, 8},
			TreeChannels: []int{8, 8},
			HeadLayers:   []int{8},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := sys.GenerateWorkload(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Bootstrap(wl.Queries[:4]); err != nil {
		t.Fatal(err)
	}
	return sys, wl.Queries
}

// TestServeFusedScoring drives concurrent /optimize requests for distinct
// query structures (distinct predicate literals defeat the plan cache, so
// every request really searches) through one shared score memo and checks
// that /stats reports the scoring: passes happened, and the counters are
// internally consistent.
func TestServeFusedScoring(t *testing.T) {
	sys, _ := fusedSystem(t)
	srv := New(sys, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := func(year int) QuerySpec {
		return QuerySpec{
			Relations: []string{"title", "movie_keyword"},
			Joins:     []JoinSpec{{Left: "movie_keyword.movie_id", Right: "title.id"}},
			Predicates: []PredicateSpec{
				{Column: "title.production_year", Op: ">=", Value: json.RawMessage(fmt.Sprintf("%d", 1900+year))},
			},
		}
	}

	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var opt OptimizeResponse
				if code := postJSON(t, ts.URL+"/optimize", spec(round*8+g), &opt); code != http.StatusOK {
					t.Errorf("optimize: status %d", code)
				}
			}(g)
		}
		wg.Wait()
	}

	st := getStats(t, ts.URL)
	if !st.Fusion.Enabled {
		t.Fatal("fusion reported disabled on a FuseScoring system")
	}
	if st.Fusion.Submissions == 0 || st.Fusion.Batches == 0 {
		t.Fatalf("no scoring reached the scheduler: %+v", st.Fusion)
	}
	if st.Fusion.Batches > st.Fusion.Submissions || st.Fusion.Rows < st.Fusion.Submissions {
		t.Errorf("fusion counters inconsistent: %+v", st.Fusion)
	}
}
