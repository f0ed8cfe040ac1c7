package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{name: "request", req: 1, parent: -1, start: 0, end: 100},
		{name: "a", req: 1, parent: 0, start: 10, end: 30},
		{name: "b", req: 1, parent: 0, start: 40, end: 90},
		{name: "c", req: 1, parent: 2, start: 50, end: 60},
		{name: "c", req: 1, parent: 2, start: 55, end: 70}, // overlaps its sibling
		{name: "d", req: 1, parent: 1, start: 25, end: 45}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []int64{100 - 20 - 50, 20 - 5, 50 - 20, 10, 15, 20}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	// Overlapping siblings and a child outside its parent double-count:
	// the request's self times no longer add up to its wall time.
	if bad := checkSelfSums(spans, got); bad != 1 {
		t.Errorf("checkSelfSums found %d bad requests, want 1", bad)
	}
}

func TestSelfTimesOfAWellFormedTraceAddUpToWallTime(t *testing.T) {
	spans := []span{
		{name: "request", req: 1, parent: -1, start: 0, end: 1000},
		{name: "search.BestFirst", req: 1, parent: 0, start: 100, end: 900},
		{name: "feature.EncodePlan", req: 1, parent: 1, start: 150, end: 300, items: 12},
		{name: "valuenet.PredictBatch", req: 1, parent: 1, start: 300, end: 500, items: 12},
		{name: "request", req: 2, parent: -1, start: 1000, end: 1400},
		{name: "engine.Execute", req: 2, parent: 4, start: 1010, end: 1390},
	}
	self := selfTimes(spans)
	if bad := checkSelfSums(spans, self); bad != 0 {
		t.Fatalf("%d requests' self times do not add up", bad)
	}
	agg := aggregate(spans, self)
	var sum float64
	for name := range agg.selfNS {
		sum += agg.perRequestMS(name)
	}
	meanWall := (1000.0 + 400.0) / 2 / 1e6
	if math.Abs(sum-meanWall) > 1e-12 {
		t.Errorf("per-request self times sum to %v ms, want the mean wall time %v ms", sum, meanWall)
	}
	if got := agg.perRequestMS("search.BestFirst"); got != 450.0/2/1e6 {
		t.Errorf("search self time per request = %v ms, want %v", got, 450.0/2/1e6)
	}
	if agg.items["valuenet.PredictBatch"] != 12 || agg.calls["valuenet.PredictBatch"] != 1 {
		t.Errorf("PredictBatch items/calls = %d/%d, want 12/1", agg.items["valuenet.PredictBatch"], agg.calls["valuenet.PredictBatch"])
	}
}

func TestRecorderNestsAndDrops(t *testing.T) {
	var none *recorder
	if i := none.begin("x", -1); i != -1 {
		t.Fatalf("nil recorder returned span %d", i)
	}
	none.end(-1, 0)
	none.drop(-1)

	r := &recorder{epoch: time.Now(), req: 7}
	root := r.begin("request", -1)
	child := r.begin("serve.decode", root)
	r.end(child, 3)
	r.end(root, 0)
	if len(r.spans) != 2 || r.spans[child].parent != root || r.spans[child].items != 3 || r.spans[child].req != 7 {
		t.Fatalf("spans = %+v", r.spans)
	}
	if s := r.spans[child]; s.start < r.spans[root].start || s.end > r.spans[root].end || s.end < s.start {
		t.Fatalf("child %+v not inside root %+v", s, r.spans[root])
	}
	failed := r.begin("request", -1)
	r.begin("serve.optimize", failed)
	r.drop(failed)
	if len(r.spans) != 2 {
		t.Fatalf("drop left %d spans, want 2", len(r.spans))
	}
}

func TestRetrainLagPairsTriggersWithTheNextNewerVersion(t *testing.T) {
	s := time.Second
	events := []event{
		{at: 1 * s, version: 0},
		{at: 2 * s, version: 0, trigger: true},
		{at: 3 * s, version: 0},
		{at: 5 * s, version: 1}, // lag 3 s
		{at: 6 * s, version: 1, trigger: true},
		{at: 4 * s, version: 0, trigger: true}, // out of order; lag 1 s
		{at: 9 * s, version: 1},                // the last trigger never sees version 2
	}
	got := retrainLag(events)
	if want := []float64{3, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("retrainLag = %v, want %v", got, want)
	}
}
