package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"neo/internal/serve"
	"neo/internal/workload"
	"neo/pkg/neo"
)

// input is one distinct query as the program receives it: the /optimize
// body. The benchmark keeps no *neo.Query of its own; whatever it needs to
// execute or check a query it decodes from this body, as the server does.
type input struct {
	spec serve.QuerySpec
	body []byte
}

// generateInputs returns n structurally distinct queries of the seeded JOB
// workload over db, interleaved by relation count (3, 4, ..., 7, 3, 4, ...).
// Distinct signatures guarantee that a query's first /optimize can never hit
// a plan cached for another one. The generator draws sizes uniformly, so the
// interleaving keeps its mix but makes every prefix of the list, which is
// what one timed pass gets through, hold the same share of each size
// whatever the seed: a pass's latency then varies with the seed only
// through the queries themselves, not through how many large ones it drew.
func generateInputs(db *neo.Database, n int, seed int64) ([]input, error) {
	// A seeded JOB workload repeats a signature for a few percent of its
	// queries; generating 25% extra leaves room for the duplicates dropped
	// and for uneven size buckets.
	wl, err := workload.JOB(db, n+n/4+16, seed)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	bySize := map[int][]*neo.Query{}
	var sizes []int
	for _, q := range wl.Queries {
		sig := q.Signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		k := len(q.Relations)
		if _, ok := bySize[k]; !ok {
			sizes = append(sizes, k)
		}
		bySize[k] = append(bySize[k], q)
	}
	sort.Ints(sizes)
	var out []input
	for len(out) < n {
		progress := false
		for _, k := range sizes {
			if len(bySize[k]) == 0 || len(out) == n {
				continue
			}
			q := bySize[k][0]
			bySize[k] = bySize[k][1:]
			spec := specFor(q)
			body, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			out = append(out, input{spec: spec, body: body})
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("seed %d yields only %d distinct queries, want %d", seed, len(out), n)
		}
	}
	return out, nil
}

// specFor converts a generated query into the JSON spec a client posts.
func specFor(q *neo.Query) serve.QuerySpec {
	spec := serve.QuerySpec{ID: q.ID, Relations: q.Relations}
	for _, j := range q.Joins {
		spec.Joins = append(spec.Joins, serve.JoinSpec{
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
		spec.Predicates = append(spec.Predicates, serve.PredicateSpec{
			Column: p.Table + "." + p.Column,
			Op:     p.Op.String(),
			Value:  raw,
		})
	}
	return spec
}

var cmpOps = map[string]neo.CmpOp{
	"=": neo.Eq, "<>": neo.Ne, "<": neo.Lt, "<=": neo.Le,
	">": neo.Gt, ">=": neo.Ge, "like": neo.Like,
}

// decodeQuery turns an /optimize body into a validated query the way the
// server's handler does: decode into serve.QuerySpec, build with
// neo.NewQuery, key the query on its structural signature, and validate it
// against the catalog.
func decodeQuery(body []byte, cat *neo.Catalog) (*neo.Query, error) {
	var spec serve.QuerySpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, err
	}
	joins := make([]neo.JoinPredicate, len(spec.Joins))
	for i, j := range spec.Joins {
		lt, lc, ok1 := strings.Cut(j.Left, ".")
		rt, rc, ok2 := strings.Cut(j.Right, ".")
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("join %d: malformed column reference", i)
		}
		joins[i] = neo.JoinPredicate{LeftTable: lt, LeftColumn: lc, RightTable: rt, RightColumn: rc}
	}
	preds := make([]neo.Predicate, len(spec.Predicates))
	for i, p := range spec.Predicates {
		table, column, ok := strings.Cut(p.Column, ".")
		op, known := cmpOps[strings.ToLower(p.Op)]
		if !ok || !known {
			return nil, fmt.Errorf("predicate %d: malformed column or operator", i)
		}
		var iv int64
		var sv string
		value := neo.IntValue(0)
		if err := json.Unmarshal(p.Value, &iv); err == nil {
			value = neo.IntValue(iv)
		} else if err := json.Unmarshal(p.Value, &sv); err == nil {
			value = neo.StringValue(sv)
		} else {
			return nil, fmt.Errorf("predicate %d: value is neither an integer nor a string", i)
		}
		preds[i] = neo.Predicate{Table: table, Column: column, Op: op, Value: value}
	}
	q := neo.NewQuery(spec.ID, spec.Relations, joins, preds)
	q.ID = q.Signature()
	if err := q.Validate(cat); err != nil {
		return nil, err
	}
	return q, nil
}
