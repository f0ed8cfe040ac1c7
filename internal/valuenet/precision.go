// Scoring precision. Training always runs in float64; a Snapshot — the
// frozen network the search path scores plans against — can additionally be
// published in float32 form. The conversion happens exactly once, at
// snapshot time: weights are re-packed into the tiled-GEMM panels of
// internal/nn, and the scoring pipeline then never touches float64 between the
// input-encode boundary (query/plan vectors → float32 batch rows) and the
// output boundary (normalised prediction → float64 denormalization).
//
// Precision is snapshot-only state: the float64 master weights are carried
// unchanged inside every snapshot (they are what checkpoints save), so
// serving float32 never perturbs training or persistence.
package valuenet

import (
	"fmt"
	"sync"

	"neo/internal/nn"
	"neo/internal/treeconv"
)

// Precision selects the numeric format a snapshot scores with.
type Precision uint8

const (
	// PrecisionFloat64 scores with the float64 training kernels (exact).
	PrecisionFloat64 Precision = iota
	// PrecisionFloat32 scores with the packed float32 tiled-GEMM kernels.
	PrecisionFloat32
)

// String returns the canonical flag spelling.
func (p Precision) String() string {
	switch p {
	case PrecisionFloat32:
		return "float32"
	default:
		return "float64"
	}
}

// ParsePrecision parses a -score-precision flag value. The empty string means
// float64 (the exact, historical behaviour).
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "float64", "f64":
		return PrecisionFloat64, nil
	case "float32", "f32":
		return PrecisionFloat32, nil
	}
	return PrecisionFloat64, fmt.Errorf("valuenet: unknown score precision %q (want float64 or float32)", s)
}

// netF32 is the packed float32 form of a network's three towers.
type netF32 struct {
	qmlp *nn.MLPF32
	conv *treeconv.StackF32
	head *nn.MLPF32
}

// SnapshotInfo describes a snapshot's scoring precision and memory footprint.
type SnapshotInfo struct {
	// Precision is the numeric format scoring runs in ("float64" or
	// "float32").
	Precision string `json:"precision"`
	// Parameters is the number of scalar parameters of the frozen network.
	Parameters int `json:"parameters"`
	// ParamBytes is the float64 master copy's parameter footprint.
	ParamBytes int `json:"param_bytes"`
	// PanelBytes is the footprint of the packed inference panels
	// (0 for a float64 snapshot, which scores with the master weights).
	PanelBytes int `json:"panel_bytes"`
}

// Info reports the snapshot's precision and footprint.
func (s *Snapshot) Info() SnapshotInfo {
	info := SnapshotInfo{
		Precision:  s.prec.String(),
		Parameters: s.net.NumParameters(),
	}
	info.ParamBytes = 8 * info.Parameters
	if s.f32 != nil {
		info.PanelBytes += s.f32.qmlp.Bytes() + s.f32.conv.Bytes() + s.f32.head.Bytes()
	}
	return info
}

// Precision returns the numeric format scoring runs in.
func (s *Snapshot) Precision() Precision { return s.prec }

// SnapshotPrecision deep-copies the network like Snapshot and additionally
// converts the frozen weights for the requested scoring precision. Like
// Snapshot, call it only while no training round is mutating the weights.
func (n *Network) SnapshotPrecision(p Precision) *Snapshot {
	s := &Snapshot{net: n.Clone(), prec: PrecisionFloat64}
	if p == PrecisionFloat64 {
		return s
	}
	s.prec = PrecisionFloat32
	s.f32 = &netF32{
		qmlp: nn.NewMLPF32(s.net.qmlp),
		conv: treeconv.NewStackF32(s.net.conv),
		head: nn.NewMLPF32(s.net.head),
	}
	return s
}

// batchScratch32 is the reusable per-call state of the float32 batched
// forward, mirroring batchScratch.
type batchScratch32 struct {
	conv    treeconv.BatchScratch32
	builder treeconv.BatchBuilder32
	qVecs   [][]float64
	qIndex  []int
	qFlat   []float32
}

var scratch32Pool = sync.Pool{New: func() interface{} { return &batchScratch32{} }}

// forward32 runs the float32 batched forward pass over the packed panels and
// returns normalised predictions as float64 — the output boundary of the
// pipeline.
func (s *Snapshot) forward32(queries [][]float64, forests [][]*treeconv.Tree) []float64 {
	rows := len(queries)
	if rows == 0 {
		return nil
	}
	net := s.net
	st := scratch32Pool.Get().(*batchScratch32)
	defer func() {
		st.conv.Reset()
		scratch32Pool.Put(st)
	}()
	arena := &st.conv.Arena

	// Deduplicate query vectors by slice identity, exactly as the float64
	// batched path does: plan search scores many candidates of one query, so
	// the query tower runs once per distinct query.
	st.qVecs = st.qVecs[:0]
	if cap(st.qIndex) < rows {
		st.qIndex = make([]int, rows)
	}
	st.qIndex = st.qIndex[:rows]
	for si, q := range queries {
		idx := -1
		for u, uq := range st.qVecs {
			if len(uq) == len(q) && (len(q) == 0 || &uq[0] == &q[0]) {
				idx = u
				break
			}
		}
		if idx < 0 {
			idx = len(st.qVecs)
			st.qVecs = append(st.qVecs, q)
		}
		st.qIndex[si] = idx
	}
	st.qFlat = st.qFlat[:0]
	for _, q := range st.qVecs {
		if len(q) != net.queryDim {
			panic("valuenet: PredictBatch query vector dimension mismatch")
		}
		for _, v := range q {
			st.qFlat = append(st.qFlat, float32(v))
		}
	}
	g := s.f32.qmlp.ForwardBatch(st.qFlat, len(st.qVecs), arena)
	qOut := len(g) / len(st.qVecs)

	channels := net.planDim + qOut
	batch := st.builder.Build(forests, channels, func(sample int, node *treeconv.Tree, row []float32) {
		if len(node.Data) != net.planDim {
			panic("valuenet: PredictBatch plan vector dimension mismatch")
		}
		for i, v := range node.Data {
			row[i] = float32(v)
		}
		copy(row[net.planDim:], g[st.qIndex[sample]*qOut:(st.qIndex[sample]+1)*qOut])
	})

	conv := s.f32.conv.ForwardBatch(batch, &st.conv)
	pooled := treeconv.PoolBatch32(conv, arena)
	head := s.f32.head.ForwardBatch(pooled, rows, arena)

	out := make([]float64, rows)
	for i := range out {
		out[i] = float64(head[i])
	}
	return out
}
