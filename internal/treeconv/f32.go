// Float32 batched tree convolution for the frozen inference path.
// The float64 batched kernels in batch.go walk node-by-node, dotting each
// parent/left/right triangle against row-major weights; the kernels here
// restructure the same computation as GEMMs over packed panels (nn.PackedF32)
// so the whole batch of nodes runs through the fused-multiply-add micro-
// kernel:
//
//   - each layer's three filter matrices are packed once, at snapshot time,
//     as one panel matrix over the concatenated K = [EP; EL; ER] axis;
//   - per batch, nodes are split once into leaves and interior nodes; leaves
//     gather only their own row and run the GEMM over the EP K-prefix
//     (keeping the float64 path's leaf-skip optimisation), interior nodes
//     gather [x; left; right] rows (zeros for an absent child) and run the
//     full K;
//   - outputs scatter back to node order and the leaky rectifier runs once
//     over the whole activation matrix.
package treeconv

import (
	"math"

	"neo/internal/nn"
)

// Batch32 is the float32 twin of Batch: node i carries
// Data[i*Channels:(i+1)*Channels] and the index slices have the same meaning.
type Batch32 struct {
	Channels int
	N        int
	Samples  int
	Data     []float32
	Left     []int
	Right    []int
	Sample   []int
}

// Row returns node i's feature vector.
func (b *Batch32) Row(i int) []float32 {
	return b.Data[i*b.Channels : (i+1)*b.Channels]
}

// BatchBuilder32 flattens forests into a Batch32, reusing buffers across
// calls. The fill callback converts node vectors to float32 — this is the
// float64→float32 input-encode boundary of the scoring pipeline.
type BatchBuilder32 struct {
	batch Batch32
	next  int
}

// Build mirrors BatchBuilder.Build with float32 rows.
func (bb *BatchBuilder32) Build(forests [][]*Tree, channels int, fill func(sample int, node *Tree, row []float32)) *Batch32 {
	n := 0
	for _, f := range forests {
		for _, t := range f {
			n += t.NumNodes()
		}
	}
	b := &bb.batch
	b.Channels = channels
	b.N = n
	b.Samples = len(forests)
	b.Data = growFloats32(b.Data, n*channels)
	b.Left = growInts(b.Left, n)
	b.Right = growInts(b.Right, n)
	b.Sample = growInts(b.Sample, n)
	bb.next = 0
	for si, f := range forests {
		for _, t := range f {
			if t != nil {
				bb.addTree(t, si, fill)
			}
		}
	}
	return b
}

func (bb *BatchBuilder32) addTree(t *Tree, sample int, fill func(sample int, node *Tree, row []float32)) int {
	b := &bb.batch
	i := bb.next
	bb.next++
	fill(sample, t, b.Row(i))
	b.Sample[i] = sample
	if t.Left != nil {
		b.Left[i] = bb.addTree(t.Left, sample, fill)
	} else {
		b.Left[i] = -1
	}
	if t.Right != nil {
		b.Right[i] = bb.addTree(t.Right, sample, fill)
	} else {
		b.Right[i] = -1
	}
	return i
}

// BatchScratch32 holds the reusable storage of a float32 stack forward: the
// activation arena, the leaf/interior node partition of the current batch,
// and the ping-pong batch headers. Not safe for concurrent use; keep one per
// goroutine.
type BatchScratch32 struct {
	Arena nn.Arena32
	leaf  []int // node indices with no children
	full  []int // node indices with at least one child
	ping  Batch32
	pong  Batch32
}

// Reset recycles the scratch for the next forward pass.
func (s *BatchScratch32) Reset() {
	s.Arena.Reset()
}

// partition splits the batch's nodes into leaves and interior nodes once per
// forward pass; every layer reuses the split (structure does not change
// between layers).
func (s *BatchScratch32) partition(b *Batch32) {
	s.leaf = s.leaf[:0]
	s.full = s.full[:0]
	for n := 0; n < b.N; n++ {
		if b.Left[n] < 0 && b.Right[n] < 0 {
			s.leaf = append(s.leaf, n)
		} else {
			s.full = append(s.full, n)
		}
	}
}

// LayerF32 is one packed tree-convolution layer: the three filter matrices
// packed over the concatenated K = [EP; EL; ER] axis, EP first so the leaf
// kernel can run the GEMM over the EP K-prefix alone.
type LayerF32 struct {
	In, Out int
	W       nn.PackedF32
	Alpha   float32
}

// StackF32 is a frozen float32 tree-convolution stack, packed once from
// trained float64 weights. Immutable after construction; safe for concurrent
// use with per-goroutine scratch.
type StackF32 struct {
	Layers []*LayerF32
}

// NewStackF32 packs a trained stack for float32 inference.
func NewStackF32(s *Stack) *StackF32 {
	out := &StackF32{}
	for _, l := range s.Layers {
		out.Layers = append(out.Layers, &LayerF32{
			In:  l.InChannels,
			Out: l.OutChannels,
			W: nn.PackF32(l.OutChannels, l.Bias.Value,
				[]int{l.InChannels, l.InChannels, l.InChannels},
				l.EP.Value, l.EL.Value, l.ER.Value),
			Alpha: float32(l.Act.Alpha),
		})
	}
	return out
}

// Bytes returns the packed footprint in bytes.
func (s *StackF32) Bytes() int {
	total := 0
	for _, l := range s.Layers {
		total += l.W.Bytes()
	}
	return total
}

// ForwardBatch runs every packed layer over the flattened batch. The returned
// batch aliases scratch storage and is valid until the next Reset.
func (s *StackF32) ForwardBatch(in *Batch32, scratch *BatchScratch32) *Batch32 {
	scratch.partition(in)
	cur, out := in, &scratch.ping
	for _, l := range s.Layers {
		l.forwardBatchInto(cur, out, scratch)
		if out == &scratch.ping {
			cur, out = &scratch.ping, &scratch.pong
		} else {
			cur, out = &scratch.pong, &scratch.ping
		}
	}
	return cur
}

// forwardBatchInto convolves one packed layer: gather → GEMM → scatter for
// the leaf and interior node groups, then one activation pass over the whole
// output matrix.
func (l *LayerF32) forwardBatchInto(in, out *Batch32, scratch *BatchScratch32) {
	ic, oc := l.In, l.Out
	a := &scratch.Arena
	out.Channels = oc
	out.N = in.N
	out.Samples = in.Samples
	out.Left = in.Left
	out.Right = in.Right
	out.Sample = in.Sample
	out.Data = a.Alloc(in.N * oc)

	// Leaves: only the parent filter contributes, so gather just the node row
	// and run the GEMM over the EP K-prefix (kUsed = ic of K = 3ic).
	if nl := len(scratch.leaf); nl > 0 {
		ga := a.Alloc(nl * ic)
		for gi, n := range scratch.leaf {
			copy(ga[gi*ic:(gi+1)*ic], in.Row(n))
		}
		ya := a.Alloc(nl * oc)
		l.W.Gemm(ga, nl, ic, ya)
		for gi, n := range scratch.leaf {
			copy(out.Data[n*oc:(n+1)*oc], ya[gi*oc:(gi+1)*oc])
		}
	}

	// Interior nodes: gather [x; left; right] (zeros for an absent child of a
	// one-child node) and run the full K.
	if nf := len(scratch.full); nf > 0 {
		k := 3 * ic
		ga := a.Alloc(nf * k)
		for gi, n := range scratch.full {
			row := ga[gi*k : (gi+1)*k]
			copy(row[:ic], in.Row(n))
			if li := in.Left[n]; li >= 0 {
				copy(row[ic:2*ic], in.Row(li))
			} else {
				zero32(row[ic : 2*ic])
			}
			if ri := in.Right[n]; ri >= 0 {
				copy(row[2*ic:], in.Row(ri))
			} else {
				zero32(row[2*ic:])
			}
		}
		ya := a.Alloc(nf * oc)
		l.W.Gemm(ga, nf, k, ya)
		for gi, n := range scratch.full {
			copy(out.Data[n*oc:(n+1)*oc], ya[gi*oc:(gi+1)*oc])
		}
	}

	nn.LeakyReLUF32(out.Data[:in.N*oc], l.Alpha)
}

// PoolBatch32 dynamic-pools every sample of the batch, mirroring PoolBatch:
// row s of the result is the elementwise maximum over sample s's node
// vectors; empty samples pool to zero rows.
func PoolBatch32(b *Batch32, a *nn.Arena32) []float32 {
	dim := b.Channels
	pooled := a.Alloc(b.Samples * dim)
	negInf := float32(math.Inf(-1))
	for i := range pooled {
		pooled[i] = negInf
	}
	for n := 0; n < b.N; n++ {
		row := pooled[b.Sample[n]*dim : (b.Sample[n]+1)*dim]
		for i, v := range b.Row(n) {
			if v > row[i] {
				row[i] = v
			}
		}
	}
	for i := range pooled {
		if pooled[i] == negInf {
			pooled[i] = 0
		}
	}
	return pooled
}

func zero32(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

func growFloats32(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}
