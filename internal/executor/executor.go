// Package executor implements the physical execution substrate that the
// simulated database engines share. It executes complete execution plans
// against the in-memory column store, materialising (sampled) intermediate
// results so that every plan node is annotated with realistic input/output
// cardinalities, access-path information and ordering properties.
//
// The executor deliberately separates *what* is computed (true join results,
// which depend only on the data and the join order) from *how much it would
// cost on a given engine* (which depends on the physical operators chosen
// and on engine-specific coefficients, modelled in package engine). All
// joins are physically evaluated with hash tables for speed; the chosen
// operator (hash/merge/loop) only affects the recorded statistics that the
// engines price.
package executor

import (
	"fmt"
	"math"

	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/storage"
)

// DefaultMaxRows is the sampling cap on materialised intermediate results.
// Intermediates larger than the cap are uniformly down-sampled and a scale
// factor is tracked, so reported cardinalities remain (approximately)
// correct while execution time stays bounded even for catastrophic plans.
const DefaultMaxRows = 50000

// NodeStats records everything the engine cost models need to know about one
// executed plan node.
type NodeStats struct {
	// OutputRows is the (scale-corrected) number of rows the node produces.
	OutputRows float64
	// LeftRows and RightRows are the input cardinalities of a join node.
	LeftRows, RightRows float64
	// BaseRows is the size of the scanned base table (scan nodes only).
	BaseRows float64
	// Selectivity is OutputRows/BaseRows for scan nodes.
	Selectivity float64
	// IndexOnPredicate reports whether an equality predicate on the scanned
	// table matches an indexed column (scan nodes only).
	IndexOnPredicate bool
	// InnerIndexOnJoinKey reports whether the right (inner/build) child is a
	// base-relation index scan whose join column is indexed, enabling an
	// index-nested-loop strategy (join nodes only).
	InnerIndexOnJoinKey bool
	// LeftSorted and RightSorted report whether the join inputs arrive
	// sorted on the join key (join nodes only).
	LeftSorted, RightSorted bool
	// CrossProduct reports that no join predicate connected the inputs.
	CrossProduct bool
}

// Result is the outcome of executing a complete plan.
type Result struct {
	// Root points at the plan's root node.
	Root *plan.Node
	// Nodes maps every plan node to its execution statistics.
	Nodes map[*plan.Node]*NodeStats
	// OutputRows is the (scale-corrected) cardinality of the final result.
	OutputRows float64
	// TotalIntermediateRows sums the output cardinalities of every node; a
	// crude engine-independent measure of how much work the plan implies.
	TotalIntermediateRows float64
	// Truncated reports that an operator hit its row budget and stopped
	// early, so cardinalities are lower bounds. The in-memory executor never
	// sets it (it samples instead); the disk executor sets it when a
	// runaway plan exceeds its per-operator budget.
	Truncated bool
}

// Executor executes plans against one database.
type Executor struct {
	db *storage.Database
	// MaxRows caps materialised intermediate results (see DefaultMaxRows).
	MaxRows int
}

// New creates an executor over the given database.
func New(db *storage.Database) *Executor {
	return &Executor{db: db, MaxRows: DefaultMaxRows}
}

// relation is a materialised (possibly sampled) intermediate result: a bag
// of composite rows, each holding one row id per contributing base table.
type relation struct {
	tables []string       // base table names, in slot order
	slot   map[string]int // table name -> slot index
	rows   [][]int32      // composite rows
	mult   float64        // sampling scale factor (>= 1)
	sorted *schema0       // column the rows are sorted on, if any
}

// schema0 names a column of a base table (local alias to avoid importing
// schema for one struct).
type schema0 struct {
	table, column string
}

func newRelation(tables []string) *relation {
	r := &relation{tables: tables, slot: make(map[string]int, len(tables)), mult: 1}
	for i, t := range tables {
		r.slot[t] = i
	}
	return r
}

func (r *relation) card() float64 { return float64(len(r.rows)) * r.mult }

// Execute runs a complete plan and returns per-node statistics.
func (e *Executor) Execute(p *plan.Plan) (*Result, error) {
	if !p.IsComplete() {
		return nil, fmt.Errorf("executor: plan for query %s is not complete: %s", p.Query.ID, p)
	}
	res := &Result{Root: p.Roots[0], Nodes: make(map[*plan.Node]*NodeStats)}
	rel, err := e.executeNode(p.Roots[0], p.Query, res)
	if err != nil {
		return nil, err
	}
	res.OutputRows = rel.card()
	for _, ns := range res.Nodes {
		res.TotalIntermediateRows += ns.OutputRows
	}
	return res, nil
}

// Count returns the true cardinality of the query result (the COUNT(*) the
// paper's example queries compute), by executing a canonical left-deep hash
// plan.
func (e *Executor) Count(q *query.Query) (float64, error) {
	p, err := canonicalPlan(q)
	if err != nil {
		return 0, err
	}
	res, err := e.Execute(p)
	if err != nil {
		return 0, err
	}
	return res.OutputRows, nil
}

// canonicalPlan builds any valid complete plan for the query (left-deep,
// hash joins, table scans), used for true-cardinality computation.
func canonicalPlan(q *query.Query) (*plan.Plan, error) {
	if len(q.Relations) == 0 {
		return nil, fmt.Errorf("executor: query %s has no relations", q.ID)
	}
	remaining := make(map[string]bool, len(q.Relations))
	for _, r := range q.Relations {
		remaining[r] = true
	}
	cur := plan.Leaf(q.Relations[0], plan.TableScan)
	delete(remaining, q.Relations[0])
	for len(remaining) > 0 {
		// Pick a remaining relation connected to the current tree.
		picked := ""
		cover := cur.TableSet()
		for _, r := range q.Relations {
			if !remaining[r] {
				continue
			}
			if q.Connected(cover, map[string]bool{r: true}) {
				picked = r
				break
			}
		}
		if picked == "" {
			// Disconnected join graph: fall back to a cross product with the
			// first remaining relation.
			for _, r := range q.Relations {
				if remaining[r] {
					picked = r
					break
				}
			}
		}
		cur = plan.Join2(plan.HashJoin, cur, plan.Leaf(picked, plan.TableScan))
		delete(remaining, picked)
	}
	return &plan.Plan{Query: q, Roots: []*plan.Node{cur}}, nil
}

func (e *Executor) executeNode(n *plan.Node, q *query.Query, res *Result) (*relation, error) {
	if n.IsLeaf() {
		return e.executeScan(n, q, res)
	}
	left, err := e.executeNode(n.Left, q, res)
	if err != nil {
		return nil, err
	}
	right, err := e.executeNode(n.Right, q, res)
	if err != nil {
		return nil, err
	}
	return e.executeJoin(n, q, left, right, res)
}

func (e *Executor) executeScan(n *plan.Node, q *query.Query, res *Result) (*relation, error) {
	tab := e.db.Table(n.Table)
	if tab == nil {
		return nil, fmt.Errorf("executor: unknown table %q", n.Table)
	}
	preds := q.PredicatesOn(n.Table)
	rel := newRelation([]string{n.Table})
	cols := make([]*storage.Column, len(preds))
	for i, p := range preds {
		cols[i] = tab.Column(p.Column)
		if cols[i] == nil {
			return nil, fmt.Errorf("executor: unknown column %s.%s", p.Table, p.Column)
		}
	}
	for row := 0; row < tab.NumRows(); row++ {
		ok := true
		for i, p := range preds {
			if !p.Matches(cols[i].Value(row)) {
				ok = false
				break
			}
		}
		if ok {
			rel.rows = append(rel.rows, []int32{int32(row)})
		}
	}
	e.maybeSample(rel)
	// Base-table output is treated as sorted on the primary key (clustered
	// storage), which lets merge joins on primary keys avoid a sort.
	if pk := tab.Schema.PrimaryKey; pk != "" {
		rel.sorted = &schema0{table: n.Table, column: pk}
	}

	ns := &NodeStats{
		OutputRows:  rel.card(),
		BaseRows:    float64(tab.NumRows()),
		Selectivity: safeDiv(rel.card(), float64(tab.NumRows())),
	}
	for _, p := range preds {
		if p.Op == query.Eq && e.db.Catalog.HasIndex(p.Table, p.Column) {
			ns.IndexOnPredicate = true
		}
	}
	res.Nodes[n] = ns
	return rel, nil
}

func (e *Executor) executeJoin(n *plan.Node, q *query.Query, left, right *relation, res *Result) (*relation, error) {
	joins := q.JoinsBetween(setOf(left.tables), setOf(right.tables))
	out := newRelation(append(append([]string{}, left.tables...), right.tables...))
	out.mult = left.mult * right.mult

	ns := &NodeStats{
		LeftRows:  left.card(),
		RightRows: right.card(),
	}

	if len(joins) == 0 {
		// Cross product: cap the amount of work.
		ns.CrossProduct = true
		limit := e.maxRows()
		for _, lr := range left.rows {
			for _, rr := range right.rows {
				out.rows = append(out.rows, combine(lr, rr))
				if len(out.rows) >= limit {
					break
				}
			}
			if len(out.rows) >= limit {
				break
			}
		}
		// Correct the scale factor for the rows we did not enumerate.
		trueCard := float64(len(left.rows)) * float64(len(right.rows))
		if float64(len(out.rows)) < trueCard && len(out.rows) > 0 {
			out.mult *= trueCard / float64(len(out.rows))
		}
	} else {
		primary := joins[0]
		// Orient the primary join predicate: key column on the left input,
		// probe column on the right input.
		leftCol, rightCol := orient(primary, left)
		rightStorageTab := e.db.Table(rightCol.table)
		leftStorageTab := e.db.Table(leftCol.table)
		if rightStorageTab == nil || leftStorageTab == nil {
			return nil, fmt.Errorf("executor: join %s references unknown table", primary)
		}
		rightColumn := rightStorageTab.Column(rightCol.column)
		leftColumn := leftStorageTab.Column(leftCol.column)
		if rightColumn == nil || leftColumn == nil {
			return nil, fmt.Errorf("executor: join %s references unknown column", primary)
		}
		// Build a hash table on the right input keyed by its join value.
		build := make(map[string][]int, len(right.rows))
		rslot := right.slot[rightCol.table]
		for i, rr := range right.rows {
			key := rightColumn.Value(int(rr[rslot])).String()
			build[key] = append(build[key], i)
		}
		lslot := left.slot[leftCol.table]
		rest := joins[1:]
		limit := e.joinLimit()
		for _, lr := range left.rows {
			key := leftColumn.Value(int(lr[lslot])).String()
			for _, ri := range build[key] {
				rr := right.rows[ri]
				if !e.extraJoinsMatch(rest, left, right, lr, rr) {
					continue
				}
				out.rows = append(out.rows, combine(lr, rr))
			}
			if len(out.rows) > limit {
				break
			}
		}
		// If we broke out early, extrapolate the cardinality from the
		// fraction of the left input processed. This is rare (only truly
		// pathological intermediate blow-ups hit it).
		// Determine sortedness for merge-join costing.
		ns.LeftSorted = left.sorted != nil && left.sorted.table == leftCol.table && left.sorted.column == leftCol.column
		ns.RightSorted = right.sorted != nil && right.sorted.table == rightCol.table && right.sorted.column == rightCol.column
		// Index-nested-loop availability: the right child is a base-relation
		// leaf scanned by index, and its join column is indexed.
		if n.Right.IsLeaf() && n.Right.Scan == plan.IndexScan && e.db.Catalog.HasIndex(rightCol.table, rightCol.column) && len(right.tables) == 1 {
			ns.InnerIndexOnJoinKey = true
		}
		// Merge-join output is sorted on the join key.
		if n.Join == plan.MergeJoin {
			out.sorted = &schema0{table: leftCol.table, column: leftCol.column}
		}
	}
	e.maybeSample(out)
	ns.OutputRows = out.card()
	res.Nodes[n] = ns
	return out, nil
}

// extraJoinsMatch applies the non-primary join predicates as filters.
func (e *Executor) extraJoinsMatch(joins []query.JoinPredicate, left, right *relation, lr, rr []int32) bool {
	for _, j := range joins {
		lv, rv, ok := e.joinValues(j, left, right, lr, rr)
		if !ok {
			continue
		}
		if !lv.Equal(rv) {
			return false
		}
	}
	return true
}

func (e *Executor) joinValues(j query.JoinPredicate, left, right *relation, lr, rr []int32) (storage.Value, storage.Value, bool) {
	get := func(table, column string) (storage.Value, bool) {
		if s, ok := left.slot[table]; ok {
			return e.db.Table(table).Column(column).Value(int(lr[s])), true
		}
		if s, ok := right.slot[table]; ok {
			return e.db.Table(table).Column(column).Value(int(rr[s])), true
		}
		return storage.Value{}, false
	}
	lv, ok1 := get(j.LeftTable, j.LeftColumn)
	rv, ok2 := get(j.RightTable, j.RightColumn)
	return lv, rv, ok1 && ok2
}

// orient returns the (table, column) of the primary join predicate that
// belongs to the left input and to the right input, respectively.
func orient(j query.JoinPredicate, left *relation) (schema0, schema0) {
	if _, ok := left.slot[j.LeftTable]; ok {
		return schema0{j.LeftTable, j.LeftColumn}, schema0{j.RightTable, j.RightColumn}
	}
	return schema0{j.RightTable, j.RightColumn}, schema0{j.LeftTable, j.LeftColumn}
}

func (e *Executor) maxRows() int {
	if e.MaxRows > 0 {
		return e.MaxRows
	}
	return DefaultMaxRows
}

// joinLimit is how many rows a hash join may emit before it stops probing:
// four times the sampling cap, as slack before maybeSample downsamples. The
// multiply saturates, so a cap near math.MaxInt lifts the limit instead of
// wrapping it negative.
func (e *Executor) joinLimit() int {
	if limit := e.maxRows(); limit <= math.MaxInt/4 {
		return limit * 4
	}
	return math.MaxInt
}

// maybeSample downsamples a relation that exceeds the cap, adjusting its
// scale factor so card() stays correct.
//
// The sample is exact-count: exactly limit evenly spaced rows are kept and
// mult is scaled by n/limit, so card() at the sampled node equals the true
// materialized count exactly. Downstream nodes join a uniform 1-in-(n/limit)
// subsample, so their card() values are estimates whose relative error
// shrinks as O(1/sqrt(limit·selectivity)); with the default 50k cap this is
// well under a percent for the join selectivities the workloads produce.
// (The previous float-stride loop could emit fewer than limit rows while
// still dividing by the intended count, silently inflating mult.)
func (e *Executor) maybeSample(r *relation) {
	limit := e.maxRows()
	if len(r.rows) <= limit {
		return
	}
	sampled := make([][]int32, limit)
	for i, idx := range sampleIndices(len(r.rows), limit) {
		sampled[i] = r.rows[idx]
	}
	r.mult *= float64(len(r.rows)) / float64(limit)
	r.rows = sampled
	r.sorted = nil
}

// sampleIndices returns exactly limit strictly increasing row indices spread
// evenly over [0, n). Requires n > limit.
func sampleIndices(n, limit int) []int {
	idx := make([]int, limit)
	for i := range idx {
		idx[i] = i * n / limit
	}
	return idx
}

func combine(l, r []int32) []int32 {
	out := make([]int32, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

func setOf(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// TrueJoinCardinalities executes the query with a canonical plan and returns,
// for every subset of relations encountered along that plan, the true join
// cardinality. Used by the robustness experiment (Figure 14) as the "true
// cardinality" feature source.
func (e *Executor) TrueJoinCardinalities(q *query.Query) (map[string]float64, error) {
	p, err := canonicalPlan(q)
	if err != nil {
		return nil, err
	}
	res, err := e.Execute(p)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	p.Roots[0].Walk(func(n *plan.Node) {
		ns := res.Nodes[n]
		if ns == nil {
			return
		}
		out[SubsetKey(n.Tables())] = ns.OutputRows
	})
	return out, nil
}

// SubsetKey canonically encodes a set of relation names.
func SubsetKey(tables []string) string {
	key := ""
	for i, t := range tables {
		if i > 0 {
			key += ","
		}
		key += t
	}
	return key
}

// Selectivity returns the true selectivity of a conjunction of predicates on
// a single table (the fraction of rows matching), computed exactly.
func (e *Executor) Selectivity(table string, preds []query.Predicate) (float64, error) {
	tab := e.db.Table(table)
	if tab == nil {
		return 0, fmt.Errorf("executor: unknown table %q", table)
	}
	if tab.NumRows() == 0 {
		return 0, nil
	}
	matched := 0
	for row := 0; row < tab.NumRows(); row++ {
		ok := true
		for _, p := range preds {
			if p.Table != table {
				continue
			}
			col := tab.Column(p.Column)
			if col == nil {
				return 0, fmt.Errorf("executor: unknown column %s.%s", table, p.Column)
			}
			if !p.Matches(col.Value(row)) {
				ok = false
				break
			}
		}
		if ok {
			matched++
		}
	}
	return float64(matched) / float64(tab.NumRows()), nil
}

// Clamp01 clamps v into [0, 1]; exported for reuse by cost models.
func Clamp01(v float64) float64 { return math.Max(0, math.Min(1, v)) }
