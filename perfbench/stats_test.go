package main

import (
	"reflect"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		v, pct float64
		wantOK bool
	}{
		{n: 11, v: 1, pct: 100.0 / 11, wantOK: true},
		{n: 100, v: 90, pct: 90, wantOK: true},
		{n: 1000, v: 990, pct: 99, wantOK: true},
		{n: 437, v: 427, pct: 100 * 427.0 / 437, wantOK: true},
		{n: 10, v: 10, pct: 100, wantOK: false}, // too few: the maximum
		{n: 1, v: 1, pct: 100, wantOK: false},
	} {
		s := seq(tc.n)
		v, pct, ok := tail(s)
		if v != tc.v || pct != tc.pct || ok != tc.wantOK {
			t.Errorf("n=%d: tail = (%v, %v, %v), want (%v, %v, %v)", tc.n, v, pct, ok, tc.v, tc.pct, tc.wantOK)
		}
		if ok {
			beyond := 0
			for _, x := range s {
				if x > v {
					beyond++
				}
			}
			if beyond != tailBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
			}
		}
	}
	if v, pct, ok := tail(nil); v != 0 || pct != 0 || ok {
		t.Errorf("tail(nil) = (%v, %v, %v), want zeros", v, pct, ok)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := quantile(s, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile(s, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := quantile(s, 1); got != 4 {
		t.Errorf("q1 = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
}

func TestZipfSamplerIsSeededAndSkewed(t *testing.T) {
	draw := func(seed int64) []int {
		z := newZipfSampler(seed, 300)
		out := make([]int, 5000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two samplers with one seed drew different sequences")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("samplers with different seeds drew the same sequence")
	}
	counts := make([]int, 300)
	for _, i := range a {
		if i < 0 || i >= 300 {
			t.Fatalf("draw %d outside [0, 300)", i)
		}
		counts[i]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[50] {
		t.Errorf("popularity not decreasing with rank: %d, %d, %d", counts[0], counts[1], counts[50])
	}
}
