package core

import (
	"testing"

	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/valuenet"
)

// republishAt freezes the live network at the given scoring precision and
// swaps it in as the serving snapshot, keeping the published version.
func republishAt(n *Neo, p valuenet.Precision) {
	n.Config.ScorePrecision = p
	n.RestoreSnapshot(n.NetVersion())
}

// optimizeBoth runs both search strategies on every query and returns the
// chosen plans keyed by query ID.
func optimizeBoth(t *testing.T, n *Neo, queries []*query.Query) (best, greedy map[string]*plan.Plan) {
	t.Helper()
	best = make(map[string]*plan.Plan, len(queries))
	greedy = make(map[string]*plan.Plan, len(queries))
	for _, q := range queries {
		p, _, err := n.Optimize(q)
		if err != nil {
			t.Fatalf("Optimize(%s): %v", q.ID, err)
		}
		best[q.ID] = p
		pg, _, err := n.OptimizeGreedy(q)
		if err != nil {
			t.Fatalf("OptimizeGreedy(%s): %v", q.ID, err)
		}
		greedy[q.ID] = pg
	}
	return best, greedy
}

// TestPlanChoiceParityFloat32 is the correctness bar for the packed float32
// kernels: on the seeded reference workload, the BestFirst and Greedy plan
// choices of a bootstrapped Neo are identical whether the serving snapshot
// scores in float64 or packed float32. Scores may differ within the 1e-5
// relative tolerance; the argmin over candidate plans must not: float32
// keeps ~7 significant digits while the workload's smallest nonzero decision
// margin is ~2e-3, and exact ties resolve by deterministic candidate order
// under both precisions.
func TestPlanChoiceParityFloat32(t *testing.T) {
	rig := newRig(t, "postgres")
	if err := rig.neo.Bootstrap(rig.wl.Queries[:8], rig.expertFunc()); err != nil {
		t.Fatal(err)
	}

	wantBest, wantGreedy := optimizeBoth(t, rig.neo, rig.wl.Queries)

	republishAt(rig.neo, valuenet.PrecisionFloat32)
	if got := rig.neo.Snapshot().Precision(); got != valuenet.PrecisionFloat32 {
		t.Fatalf("published snapshot precision = %v, want float32", got)
	}
	gotBest, gotGreedy := optimizeBoth(t, rig.neo, rig.wl.Queries)
	for id, want := range wantBest {
		if got := gotBest[id].Signature(); got != want.Signature() {
			t.Errorf("float32 BestFirst plan for %s diverged from float64:\n  f64: %s\n  got: %s",
				id, want.Signature(), got)
		}
	}
	for id, want := range wantGreedy {
		if got := gotGreedy[id].Signature(); got != want.Signature() {
			t.Errorf("float32 Greedy plan for %s diverged from float64:\n  f64: %s\n  got: %s",
				id, want.Signature(), got)
		}
	}
	republishAt(rig.neo, valuenet.PrecisionFloat64)
}
