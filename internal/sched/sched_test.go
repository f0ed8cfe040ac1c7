package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"neo/internal/treeconv"
)

// fakeBackend scores each row independently and deterministically (query sum
// scaled, plus the forest's node count), mimicking the row-independence the
// real batch kernels guarantee. It also counts the passes it executes.
type fakeBackend struct {
	calls atomic.Int64
}

func (f *fakeBackend) PredictBatch(queries [][]float64, forests [][]*treeconv.Tree) []float64 {
	f.calls.Add(1)
	out := make([]float64, len(queries))
	for i, q := range queries {
		sum := 0.0
		for _, v := range q {
			sum += v
		}
		nodes := 0
		for _, t := range forests[i] {
			nodes += t.NumNodes()
		}
		out[i] = sum*10 + float64(nodes)
	}
	return out
}

// randomSubmission builds a deterministic pseudo-random (queries, forests)
// batch of the given size.
func randomSubmission(rng *rand.Rand, rows int) ([][]float64, [][]*treeconv.Tree) {
	queries := make([][]float64, rows)
	forests := make([][]*treeconv.Tree, rows)
	for i := 0; i < rows; i++ {
		q := make([]float64, 4)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		queries[i] = q
		leafA := treeconv.NewLeaf([]float64{rng.Float64()})
		leafB := treeconv.NewLeaf([]float64{rng.Float64()})
		forests[i] = []*treeconv.Tree{treeconv.NewNode([]float64{rng.Float64()}, leafA, leafB)}
	}
	return queries, forests
}

// TestFusedMatchesDirect hammers one scheduler from many goroutines and
// checks every submission's scores are bit-identical to a private backend
// call with the same rows — the scatter must preserve submission order
// exactly, no matter how submissions were fused.
func TestFusedMatchesDirect(t *testing.T) {
	backend := &fakeBackend{}
	direct := &fakeBackend{}
	s := New(backend, Options{})

	const goroutines = 8
	const iters = 50
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < iters; i++ {
				queries, forests := randomSubmission(rng, 1+rng.Intn(8))
				got := s.PredictBatch(queries, forests)
				want := direct.PredictBatch(queries, forests)
				if len(got) != len(want) {
					errs <- fmt.Errorf("goroutine %d iter %d: %d scores for %d rows", g, i, len(got), len(want))
					return
				}
				for r := range want {
					if got[r] != want[r] {
						errs <- fmt.Errorf("goroutine %d iter %d row %d: fused %v != direct %v", g, i, r, got[r], want[r])
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := s.Counters().Stats()
	if st.Submissions != goroutines*iters {
		t.Errorf("submissions = %d, want %d", st.Submissions, goroutines*iters)
	}
	if st.Batches == 0 || st.Batches > st.Submissions {
		t.Errorf("implausible batch count %d for %d submissions", st.Batches, st.Submissions)
	}
}

// TestEmptySubmission returns nil without touching the backend.
func TestEmptySubmission(t *testing.T) {
	backend := &fakeBackend{}
	s := New(backend, Options{})
	if out := s.PredictBatch(nil, nil); out != nil {
		t.Fatalf("empty submission returned %v", out)
	}
	if backend.calls.Load() != 0 {
		t.Fatalf("empty submission reached the backend")
	}
}

// TestSharedCountersAcrossSchedulers: a successor scheduler created with the
// same Counters keeps the statistics monotonic across a swap.
func TestSharedCountersAcrossSchedulers(t *testing.T) {
	counters := &Counters{}
	backend := &fakeBackend{}
	rng := rand.New(rand.NewSource(5))

	s1 := New(backend, Options{Counters: counters})
	q, f := randomSubmission(rng, 2)
	s1.PredictBatch(q, f)

	s2 := New(backend, Options{Counters: counters})
	q, f = randomSubmission(rng, 3)
	s2.PredictBatch(q, f)

	st := counters.Stats()
	if st.Submissions != 2 || st.Rows != 5 {
		t.Errorf("stats across swap = %+v, want 2 submissions / 5 rows", st)
	}
}

// TestMemoisedDuplicateRows: identical rows — within one submission, and
// across submissions over the scheduler's lifetime — are scored by the
// backend exactly once and served bit-identically from then on.
func TestMemoisedDuplicateRows(t *testing.T) {
	backend := &fakeBackend{}
	s := New(backend, Options{})
	rng := rand.New(rand.NewSource(21))
	queries, forests := randomSubmission(rng, 4)

	first := s.PredictBatch(queries, forests)
	if got := backend.calls.Load(); got != 1 {
		t.Fatalf("first submission: %d backend passes, want 1", got)
	}
	for round := 0; round < 5; round++ {
		again := s.PredictBatch(queries, forests)
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("round %d row %d: memoised %v != original %v", round, i, again[i], first[i])
			}
		}
	}
	if got := backend.calls.Load(); got != 1 {
		t.Errorf("identical resubmissions reached the backend: %d passes, want 1", got)
	}
	st := s.Counters().Stats()
	if st.CacheHits != 5*4 {
		t.Errorf("cache hits = %d, want 20", st.CacheHits)
	}

	// In-batch duplicates: one submission repeating the same row scores it
	// once and fans the result out.
	dupQ := [][]float64{queries[0], queries[0], queries[0]}
	dupF := [][]*treeconv.Tree{forests[0], forests[0], forests[0]}
	dup := s.PredictBatch(dupQ, dupF)
	for i := 1; i < len(dup); i++ {
		if dup[i] != dup[0] {
			t.Errorf("in-batch duplicate row %d scored differently: %v vs %v", i, dup[i], dup[0])
		}
	}
	if dup[0] != first[0] {
		t.Errorf("duplicate of a cached row scored %v, want %v", dup[0], first[0])
	}

	// Structurally different rows over the same values must NOT collide:
	// a deeper tree reusing a cached leaf's vector is a distinct row.
	leaf := treeconv.NewLeaf(forests[0][0].Data)
	deep := [][]*treeconv.Tree{{treeconv.NewNode(forests[0][0].Data, leaf, nil)}}
	fresh := s.PredictBatch([][]float64{queries[0]}, deep)
	want := backend.PredictBatch([][]float64{queries[0]}, deep)
	if fresh[0] != want[len(want)-1] {
		t.Errorf("structurally distinct row served a stale score: %v != %v", fresh[0], want[len(want)-1])
	}
}
