package main

import (
	"math"
	"math/rand"
	"sort"
)

// tailBeyond is how many samples must lie above the reported tail value: the
// tail is the highest percentile that still has this many samples beyond it,
// so it is never set by a handful of outliers.
const tailBeyond = 10

// quantile returns the q-quantile (0 <= q <= 1) of sorted samples by linear
// interpolation between closest ranks; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tail returns the value of the highest percentile with at least tailBeyond
// samples beyond it, and that percentile: the (n-tailBeyond)-th smallest of
// n sorted samples. With too few samples for any such percentile it returns
// the maximum at percentile 100 and ok=false.
func tail(sorted []float64) (v, pct float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	if n <= tailBeyond {
		return sorted[n-1], 100, false
	}
	k := n - tailBeyond
	return sorted[k-1], 100 * float64(k) / float64(n), true
}

// summary is the distribution of one timed quantity.
type summary struct {
	n         int
	p50, tail float64
	tailPct   float64
	tailOK    bool
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{n: len(s), p50: quantile(s, 0.5)}
	out.tail, out.tailPct, out.tailOK = tail(s)
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zipfExponent skews learn-loop's query popularity: rank r is drawn with
// probability proportional to (1+r)^-1.1, so a few dozen queries carry most
// of the traffic while the long tail keeps missing the plan cache.
const zipfExponent = 1.1

// zipfSampler draws query indices in [0, n) Zipf-skewed, deterministically
// for a given seed.
type zipfSampler struct{ z *rand.Zipf }

func newZipfSampler(seed int64, n int) *zipfSampler {
	return &zipfSampler{z: rand.NewZipf(rand.New(rand.NewSource(seed)), zipfExponent, 1, uint64(n-1))}
}

func (s *zipfSampler) next() int { return int(s.z.Uint64()) }
