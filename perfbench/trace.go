package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer's public function.
// Times are nanoseconds since the traced run's epoch.
type span struct {
	name   string
	req    int64 // request the span belongs to
	parent int   // index of the enclosing span in the same recorder; -1 for a request root
	start  int64
	end    int64
	items  int // plans encoded or rows predicted, where the call has a batch
}

// recorder collects one client's spans in memory. A nil recorder records
// nothing, so the untraced run shares the request code at the cost of a nil
// check per call.
type recorder struct {
	epoch time.Time
	spans []span
	req   int64
}

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, req: r.req, parent: parent, start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

func (r *recorder) end(i, items int) {
	if r == nil {
		return
	}
	r.spans[i].end = int64(time.Since(r.epoch))
	r.spans[i].items = items
}

// drop discards the spans of the request started at root (a retried or
// failed request is not part of the breakdown).
func (r *recorder) drop(root int) {
	if r != nil {
		r.spans = r.spans[:root]
	}
}

// selfTimes returns each span's duration minus the part of it covered by
// its children (the union of their intervals, clipped to the span).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach int64
		reach = s.start
		for _, v := range ivs {
			if v.a < reach {
				v.a = reach
			}
			if v.b > v.a {
				covered += v.b - v.a
				reach = v.b
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// checkSelfSums verifies that, for every request, the self times of all its
// spans add up to the request's wall time, which holds exactly when every
// span lies inside its parent and siblings never overlap. It returns the
// number of requests that break the rule.
func checkSelfSums(spans []span, self []int64) int {
	sum := map[int64]int64{}
	wall := map[int64]int64{}
	for i, s := range spans {
		sum[s.req] += self[i]
		if s.parent < 0 {
			wall[s.req] += s.end - s.start
		}
	}
	bad := 0
	for req, w := range wall {
		if sum[req] != w {
			bad++
		}
	}
	return bad
}

// layerTotals aggregates a traced run: per span name, total self time (ns),
// call count, items and the sorted durations (ms).
type layerTotals struct {
	selfNS map[string]int64
	calls  map[string]int
	items  map[string]int
	durMS  map[string][]float64
	reqs   int
	wallMS []float64
}

func aggregate(spans []span, self []int64) layerTotals {
	t := layerTotals{selfNS: map[string]int64{}, calls: map[string]int{}, items: map[string]int{}, durMS: map[string][]float64{}}
	for i, s := range spans {
		d := float64(s.end-s.start) / 1e6
		t.selfNS[s.name] += self[i]
		t.calls[s.name]++
		t.items[s.name] += s.items
		t.durMS[s.name] = append(t.durMS[s.name], d)
		if s.parent < 0 {
			t.reqs++
			t.wallMS = append(t.wallMS, d)
		}
	}
	return t
}

// perRequestMS is a span name's mean self time per request, in ms. Summed
// over every span name (the request root included) it is the mean request
// wall time.
func (t layerTotals) perRequestMS(names ...string) float64 {
	var ns int64
	for _, n := range names {
		ns += t.selfNS[n]
	}
	return ratio(float64(ns)/1e6, float64(t.reqs))
}

// writeSpans dumps the spans as tab-separated lines: request, name, parent
// index, start and end in ns since the run's epoch, items.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tname\tparent\tstart_ns\tend_ns\titems")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", s.req, s.name, s.parent, s.start, s.end, s.items)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
