// Network snapshots. Training mutates the network's weights in place, so a
// search that scores plans while a retraining round is running would read
// half-updated parameters. Snapshot gives the optimizer a double-buffering
// primitive: it deep-copies the weights into a frozen Network that exposes
// only the inference surface, so searches keep scoring against a consistent
// set of weights while the live network trains in the background, and the
// new weights are published by atomically swapping in a fresh snapshot.
package valuenet

import "neo/internal/treeconv"

// Predictor is the read-only inference surface of the value network, shared
// by the live Network and immutable Snapshots of it. All methods are safe
// for concurrent use as long as nothing trains the underlying weights —
// which, for a Snapshot, is guaranteed by construction.
type Predictor interface {
	// Predict returns the cost prediction in the original cost domain.
	Predict(queryVec []float64, trees []*treeconv.Tree) float64
	// PredictNormalized returns the raw output in normalised log-cost space.
	PredictNormalized(queryVec []float64, trees []*treeconv.Tree) float64
	// PredictBatch is Predict over a batch in one shared forward pass.
	PredictBatch(queries [][]float64, forests [][]*treeconv.Tree) []float64
	// PredictBatchNormalized is PredictNormalized over a batch.
	PredictBatchNormalized(queries [][]float64, forests [][]*treeconv.Tree) []float64
}

var (
	_ Predictor = (*Network)(nil)
	_ Predictor = (*Snapshot)(nil)
)

// Clone returns a deep copy of the network: same architecture and weights,
// fully independent parameter storage. Optimizer state (Adam moments) is not
// copied — a clone serves inference or a fresh training run, not resumption
// of an optimization trajectory.
func (n *Network) Clone() *Network {
	c := New(n.queryDim, n.planDim, n.cfg)
	src, dst := n.Params(), c.Params()
	for i, p := range src {
		copy(dst[i].Value, p.Value)
	}
	c.targetMean, c.targetStd = n.targetMean, n.targetStd
	return c
}

// Snapshot is an immutable point-in-time copy of a network, safe to share
// across any number of concurrent searches. It has no training methods; the
// weights it scores with can never change after creation.
//
// A snapshot always carries the float64 master weights (net); depending on
// the precision it was published with (see SnapshotPrecision), scoring runs
// either directly on them or through the packed float32 kernels converted
// once at snapshot time.
type Snapshot struct {
	net  *Network
	prec Precision
	f32  *netF32 // packed panels; non-nil when prec is float32
}

// Snapshot deep-copies the network's current weights into a frozen float64
// predictor. Call it only when no training round is mutating the weights
// (Neo calls it at the end of each retraining round, under the training
// lock). See SnapshotPrecision for reduced-precision snapshots.
func (n *Network) Snapshot() *Snapshot {
	return n.SnapshotPrecision(PrecisionFloat64)
}

// Predict implements Predictor.
func (s *Snapshot) Predict(queryVec []float64, trees []*treeconv.Tree) float64 {
	if s.prec == PrecisionFloat64 {
		return s.net.Predict(queryVec, trees)
	}
	return s.net.denormalize(s.PredictNormalized(queryVec, trees))
}

// PredictNormalized implements Predictor.
func (s *Snapshot) PredictNormalized(queryVec []float64, trees []*treeconv.Tree) float64 {
	if s.prec == PrecisionFloat64 {
		return s.net.PredictNormalized(queryVec, trees)
	}
	return s.forward32([][]float64{queryVec}, [][]*treeconv.Tree{trees})[0]
}

// PredictBatch implements Predictor.
func (s *Snapshot) PredictBatch(queries [][]float64, forests [][]*treeconv.Tree) []float64 {
	if s.prec == PrecisionFloat64 {
		return s.net.PredictBatch(queries, forests)
	}
	out := s.forward32(queries, forests)
	for i, v := range out {
		out[i] = s.net.denormalize(v)
	}
	return out
}

// PredictBatchNormalized implements Predictor.
func (s *Snapshot) PredictBatchNormalized(queries [][]float64, forests [][]*treeconv.Tree) []float64 {
	if s.prec == PrecisionFloat64 {
		return s.net.PredictBatchNormalized(queries, forests)
	}
	return s.forward32(queries, forests)
}

// NumParameters returns the total number of scalar parameters of the frozen
// network.
func (s *Snapshot) NumParameters() int { return s.net.NumParameters() }
