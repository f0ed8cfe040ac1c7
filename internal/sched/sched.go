// Package sched implements the per-snapshot score memo that fused scoring
// routes every search's batched-scoring submissions through. Scores are
// cached per row, keyed by a 128-bit hash of the row's exact encoded values,
// for the lifetime of the scheduler's backend. Concurrent searches for the
// same hot query — the plan-cache-stampede window right after a retraining
// round empties the plan cache — submit thousands of identical rows; each
// distinct row is scored once and every duplicate (within one submission or
// across submissions) is served from the cache.
//
// A submission hashes its rows, answers cached rows and in-submission
// duplicates, and runs the remaining distinct rows in one PredictBatch call
// on the caller's goroutine. Because the backend is immutable and the batch
// kernels compute every row independently in a fixed order, a cached score
// is the same float64, bit for bit, that a fresh pass would produce, so
// every search stays bit-identical to running against the raw network.
//
// Lifecycle: a Scheduler is pinned to one immutable backend (a value-network
// snapshot). When a retraining round publishes new weights, the owner
// creates a fresh Scheduler for the new snapshot, so one cache never mixes
// scores from two weight sets; searches still pinned to the old snapshot
// keep using the old scheduler, which needs no draining.
package sched

import (
	"math"
	"sync"
	"sync/atomic"

	"neo/internal/treeconv"
)

// Backend is the forward pass cache misses run through. *valuenet.Snapshot
// (and *valuenet.Network) satisfy it; it must be safe for concurrent use,
// immutable for the scheduler's lifetime, and must compute each row
// independently of its batch neighbours (which the repo's batch kernels
// guarantee — see ARCHITECTURE.md).
type Backend interface {
	PredictBatch(queries [][]float64, forests [][]*treeconv.Tree) []float64
}

// DefaultCacheRows bounds the per-snapshot score cache (entries are ~40
// bytes, so the bound costs a few MB).
const DefaultCacheRows = 1 << 16

// Options tunes a Scheduler.
type Options struct {
	// Counters, when non-nil, aggregates statistics across this scheduler's
	// lifetime — and, because the owner passes the same Counters to every
	// successor scheduler, across snapshot swaps too.
	Counters *Counters
}

// Counters aggregates scoring statistics. All methods are safe for
// concurrent use; one Counters instance is typically shared by the whole
// chain of schedulers a Neo creates across snapshot swaps, so /stats
// counters are monotonic over the process lifetime.
type Counters struct {
	batches     atomic.Uint64 // backend forward passes executed
	submissions atomic.Uint64
	rows        atomic.Uint64
	cacheHits   atomic.Uint64 // rows answered without backend work
}

// Stats is a point-in-time view of a Counters, shaped for /stats JSON.
type Stats struct {
	// Enabled reports whether fused scoring is configured at all (set by the
	// owner; a zero Counters reports false).
	Enabled bool `json:"enabled"`
	// Batches counts backend forward passes executed through schedulers.
	Batches uint64 `json:"batches"`
	// FusedBatches is always zero.
	//
	// Deprecated: submissions are no longer fused across requests; the
	// field is kept so /stats keeps its shape.
	FusedBatches uint64 `json:"fused_batches"`
	// Submissions counts ScoreBatch-level submissions accepted.
	Submissions uint64 `json:"submissions"`
	// Rows counts individual plans submitted for scoring.
	Rows uint64 `json:"rows"`
	// CacheHits counts rows answered by memoisation or in-submission
	// deduplication instead of backend compute.
	CacheHits uint64 `json:"cache_hits"`
	// AvgFusedSize is always zero.
	//
	// Deprecated: submissions are no longer fused across requests; the
	// field is kept so /stats keeps its shape.
	AvgFusedSize float64 `json:"avg_fused_size"`
}

// Stats returns the current counter values.
func (c *Counters) Stats() Stats {
	return Stats{
		Batches:     c.batches.Load(),
		Submissions: c.submissions.Load(),
		Rows:        c.rows.Load(),
		CacheHits:   c.cacheHits.Load(),
	}
}

// Scheduler memoises PredictBatch scores against one fixed backend. Safe for
// concurrent use. It runs no background goroutine, so an abandoned Scheduler
// costs nothing and needs no finalisation.
type Scheduler struct {
	backend  Backend
	counters *Counters

	mu    sync.Mutex
	cache map[rowKey]float64 // guarded by mu
}

// New creates a scheduler over a fixed backend.
func New(backend Backend, opts Options) *Scheduler {
	if opts.Counters == nil {
		opts.Counters = &Counters{}
	}
	return &Scheduler{
		backend:  backend,
		counters: opts.Counters,
		cache:    make(map[rowKey]float64),
	}
}

// Counters returns the scheduler's (possibly shared) statistics counters.
func (s *Scheduler) Counters() *Counters { return s.counters }

// rowKey is a 128-bit hash of one row's exact encoded values (query vector
// plus forest structure and node vectors). 128 bits make an accidental
// collision — which would silently hand one row another row's score —
// vanishingly unlikely: at 2^40 distinct rows the birthday bound puts the
// collision probability near 2^-49.
type rowKey struct{ hi, lo uint64 }

// hashRow folds every float64 bit pattern of the row into two independent
// multiply-xor lanes (FNV-style chaining with distinct large odd primes, so
// each word's contribution depends on its position), avalanched once at the
// end — about two multiplies per float, cheap enough that hashing stays a
// small fraction of a forward pass even for wide histogram encodings. Tree
// structure is disambiguated with explicit tags so e.g. a left-leaning and a
// right-leaning tree over the same values hash differently.
func hashRow(query []float64, forest []*treeconv.Tree) rowKey {
	h := rowKey{hi: 0x9e3779b97f4a7c15, lo: 0xc2b2ae3d27d4eb4f}
	h = h.mix(uint64(len(query)))
	for _, v := range query {
		h.hi = (h.hi ^ math.Float64bits(v)) * 0x00000100000001b3
		h.lo = (h.lo ^ math.Float64bits(v)) * 0x9ddfea08eb382d69
	}
	h = h.mix(uint64(len(forest)))
	for _, t := range forest {
		h = hashTree(h, t)
	}
	return h.mix(0)
}

func hashTree(h rowKey, t *treeconv.Tree) rowKey {
	if t == nil {
		return h.mix(0x0f0f0f0f0f0f0f0f)
	}
	h = h.mix(0x5555555555555555)
	for _, v := range t.Data {
		h.hi = (h.hi ^ math.Float64bits(v)) * 0x00000100000001b3
		h.lo = (h.lo ^ math.Float64bits(v)) * 0x9ddfea08eb382d69
	}
	h = hashTree(h, t.Left)
	return hashTree(h, t.Right)
}

// mix applies a full splitmix64-style avalanche to both lanes, used for
// structural tags and final whitening.
func (k rowKey) mix(x uint64) rowKey {
	hi := k.hi ^ x
	hi ^= hi >> 30
	hi *= 0xbf58476d1ce4e5b9
	hi ^= hi >> 27
	hi *= 0x94d049bb133111eb
	hi ^= hi >> 31
	lo := k.lo ^ x
	lo ^= lo >> 33
	lo *= 0xff51afd7ed558ccd
	lo ^= lo >> 29
	lo *= 0xc4ceb9fe1a85ec53
	lo ^= lo >> 32
	return rowKey{hi: hi, lo: lo}
}

// storeCached inserts freshly computed scores, evicting arbitrary entries
// once the cap is reached (cheap, and the cache dies with its snapshot on
// the next retraining swap anyway).
func (s *Scheduler) storeCached(keys []rowKey, scores []float64) {
	s.mu.Lock()
	for i, k := range keys {
		if _, exists := s.cache[k]; !exists && len(s.cache) >= DefaultCacheRows {
			for victim := range s.cache {
				delete(s.cache, victim)
				break
			}
		}
		s.cache[k] = scores[i]
	}
	s.mu.Unlock()
}

// PredictBatch scores one batch of encoded (query, forest) rows: memoised
// rows and duplicates within the batch are answered without backend work,
// and the remaining distinct rows run through the backend in one pass on
// the caller's goroutine. It has the exact signature and semantics of the
// backend's PredictBatch — same scores, bit for bit — so callers treat a
// Scheduler as a drop-in predictor. The returned slice is owned by the
// caller.
func (s *Scheduler) PredictBatch(queries [][]float64, forests [][]*treeconv.Tree) []float64 {
	rows := len(queries)
	if rows == 0 {
		return nil
	}
	s.counters.submissions.Add(1)
	s.counters.rows.Add(uint64(rows))

	keys := make([]rowKey, rows)
	for i := range queries {
		keys[i] = hashRow(queries[i], forests[i])
	}

	// rowMap maps each row to its index in the deduplicated to-score list,
	// or -1 when the row was answered from the cache.
	var (
		out     = make([]float64, rows)
		rowMap  = make([]int, rows)
		uniq    = make(map[rowKey]int, rows)
		missQ   [][]float64
		missF   [][]*treeconv.Tree
		missKey []rowKey
	)
	s.mu.Lock()
	for i, k := range keys {
		if v, ok := s.cache[k]; ok {
			out[i] = v
			rowMap[i] = -1
		} else if ui, ok := uniq[k]; ok {
			rowMap[i] = ui
		} else {
			ui := len(missQ)
			uniq[k] = ui
			rowMap[i] = ui
			missQ = append(missQ, queries[i])
			missF = append(missF, forests[i])
			missKey = append(missKey, k)
		}
	}
	s.mu.Unlock()
	if hits := rows - len(missQ); hits > 0 {
		s.counters.cacheHits.Add(uint64(hits))
	}
	if len(missQ) == 0 {
		return out
	}

	scores := s.backend.PredictBatch(missQ, missF)
	for i, ui := range rowMap {
		if ui >= 0 {
			out[i] = scores[ui]
		}
	}
	s.storeCached(missKey, scores)
	s.counters.batches.Add(1)
	return out
}
