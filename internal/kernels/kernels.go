// Package kernels implements the fused numeric kernels that BN
// Fission-n-Fusion substitutes for baseline layer sequences. Each one pairs a
// convolution with the element-wise neighbour the restructuring glues to it:
//
//   - ReLUConvForward — RCF: ReLU applied on the CONV ifmap read, so the
//     rectified tensor is never materialized.
//
//   - FusedBNReLUConvForward — (sub-BN2)-ReLU-CONV2: normalization and ReLU
//     clipping are applied while the following convolution reads its ifmap.
//     The normalized map x̂ is written once (Figure 5a's O2') because the
//     backward pass re-reads it; everything else stays in a per-sample tile.
//
//   - ReLUConvBackward — RCF's backward: CONV's backward with the ReLU mask
//     recovered from the saved pre-activation.
//
//   - FusedConvBackwardReLUBNReduce — CONV2-ReLU-(sub-BN2') backward: the
//     convolution's backward-data pass regenerates its saved ifmap from x̂
//     (so z=ReLU(γx̂+β) is never stored), applies the ReLU mask inline, and
//     accumulates dγ/dβ in the same sweep that writes BN's upstream gradient.
//
// The other two sub-layers need no kernel of their own. Sub-BN1 (the MVF
// statistics Σx, Σx²) runs as an epilogue of whatever CONV-like node produces
// the BN input: internal/core's epilogueStats calls
// layers.BatchNorm.ComputeStatsMVF on the fresh ofmap. Sub-BN1' (BN's
// element-wise input gradient) runs as layers.BatchNorm.BackwardInput on the
// sub-BN2' stash just before that producer's own backward.
//
// Every kernel is bit-compatible (to float32 round-off) with the baseline
// composition in internal/layers; internal/core's equivalence tests enforce
// this, which is the paper's correctness claim for the restructuring.
package kernels

import (
	"fmt"

	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// ReLUConvForward computes y = conv(ReLU(x), w) without materializing the
// rectified tensor (the paper's RCF): each sample is rectified into a
// cache-sized per-chunk tile, which the one blocked ForwardSample kernel then
// convolves. The tile holds exactly what layers.ReLUForward would write, so
// the result is bit-identical to the unfused ReLU→CONV, non-finite inputs
// and weights included. Returns only y; the backward pass recovers the ReLU
// mask from the saved pre-activation x.
func ReLUConvForward(conv layers.Conv2D, x, w *tensor.Tensor) (*tensor.Tensor, error) {
	if err := convCheck(conv, x, w); err != nil {
		return nil, err
	}
	a := conv.Alloc()
	y := a.Get(conv.OutShape(x.Shape())...)
	n, cin, h, wd := x.Dims4()
	_, cout, oh, ow := y.Dims4()
	geom := conv.SampleGeom(h, wd)
	inLen, outLen := cin*h*wd, cout*oh*ow
	xd, wdat, yd := x.Data, w.Data, y.Data
	// Sample split on the conv's pool: per-sample outputs are disjoint, so
	// pooled execution is bit-identical to serial. Each chunk owns one tile
	// of the dispatcher-carved slab, so workers never touch the arena.
	slab := a.Floats(conv.Pool().NumChunks(n) * inLen)
	conv.Pool().RunChunked(n, func(chunk, nLo, nHi int) {
		tile := slab[chunk*inLen : (chunk+1)*inLen]
		for in := nLo; in < nHi; in++ {
			for i, v := range xd[in*inLen : (in+1)*inLen] {
				if v > 0 {
					tile[i] = v
				} else {
					tile[i] = 0
				}
			}
			geom.ForwardSample(tile, wdat, yd[in*outLen:(in+1)*outLen], nil)
		}
	})
	a.PutFloats(slab)
	return y, nil
}

// FusedBNReLUConvForward computes y = conv(ReLU(BN(x)), w) for the
// restructured graph. It performs exactly two feature-map-sized sweeps:
// read x / write x̂ (the surviving O2' of Figure 5a), with the convolution
// consuming the normalized, rectified values from an on-chip-sized
// per-sample tile — the full-batch rectified tensor never exists. Each
// element is normalized exactly once as it enters the tile, matching how the
// MKL-DNN fused kernel normalizes per register block, so the arithmetic is
// identical to the baseline composition. Returns y and x̂.
func FusedBNReLUConvForward(conv layers.Conv2D, bn layers.BatchNorm, x *tensor.Tensor,
	stats *layers.BNStats, gamma, beta, w *tensor.Tensor) (y, xhat *tensor.Tensor, err error) {
	if x.Rank() != 4 || x.Dim(1) != bn.Channels {
		return nil, nil, fmt.Errorf("kernels: bn input %v, want rank 4 with %d channels", x.Shape(), bn.Channels)
	}
	if err := convCheck(conv, x, w); err != nil {
		return nil, nil, err
	}
	n, c, h, wd := x.Dims4()
	a := conv.Alloc()
	inv := bn.InvStdScratch(stats)
	xhat = a.Get(x.Shape()...)
	y = a.Get(conv.OutShape(x.Shape())...)
	_, cout, oh, ow := y.Dims4()

	// Samples split on the conv's pool; each chunk owns a private per-sample
	// tile of rectified normalized activations (1/N of a batch tensor, the
	// cache-resident working set), and all writes (x̂, y) are per-sample
	// disjoint — pooled execution is bit-identical to serial. The tiles live
	// in one dispatcher-allocated slab indexed by chunk, so workers never
	// touch the arena and the scratch recycles across steps.
	tileLen := c * h * wd
	slab := a.Floats(conv.Pool().NumChunks(n) * tileLen)
	sp := fusedFwdSpec{
		xd: x.Data, xh: xhat.Data, yd: y.Data, wdat: w.Data,
		mean: stats.Mean.Data, inv: inv, g: gamma.Data, b: beta.Data, slab: slab,
		c: c, h: h, wd: wd, cout: cout, outLen: cout * oh * ow,
		tileLen: tileLen, geom: conv.SampleGeom(h, wd),
	}
	// The serial path runs the chunk body as a plain method call on the
	// stack spec — no closure, no heap traffic on the one-worker steady
	// state. The pooled path hands a copy to the dispatched closure, so only
	// that copy escapes.
	if conv.Pool().Serial() {
		sp.run(0, 0, n)
	} else {
		pooled := sp
		conv.Pool().RunChunked(n, func(chunk, nLo, nHi int) {
			pooled.run(chunk, nLo, nHi)
		})
	}
	a.PutFloats(slab)
	bn.Alloc().PutFloats(inv)
	return y, xhat, nil
}

// fusedFwdSpec carries FusedBNReLUConvForward's loop state into its chunk
// body, so the serial path can invoke it without allocating a closure.
type fusedFwdSpec struct {
	xd, xh, yd, wdat      []float32
	mean, inv, g, b, slab []float32
	c, h, wd, cout        int
	outLen, tileLen       int
	geom                  layers.ConvGeom
}

// run is the per-chunk body: normalize+rectify one sample into the chunk's
// private tile, then convolve the sample from the tile with the blocked
// sample kernel (same tap order as the reference loop, so the conv half is
// bit-identical to the layer's own forward over the tile).
//
// hot-path: the fused sub-BN2'-ReLU-CONV2 sweep; the tile is carved from the
// dispatcher's slab, so the body allocates nothing.
func (sp *fusedFwdSpec) run(chunk, nLo, nHi int) {
	c, h, wd := sp.c, sp.h, sp.wd
	tile := sp.slab[chunk*sp.tileLen : (chunk+1)*sp.tileLen]
	for in := nLo; in < nHi; in++ {
		// One pass: read x, write x̂ (O2'), fill the tile with ReLU(γx̂+β).
		for ic := 0; ic < c; ic++ {
			base := (in*c + ic) * h * wd
			mu, is, gc, bc := sp.mean[ic], sp.inv[ic], sp.g[ic], sp.b[ic]
			src := sp.xd[base : base+h*wd]
			dst := sp.xh[base : base+h*wd]
			trow := tile[ic*h*wd : (ic+1)*h*wd]
			for i, xv := range src {
				xh := (xv - mu) * is
				dst[i] = xh
				if z := gc*xh + bc; z > 0 {
					trow[i] = z
				} else {
					trow[i] = 0
				}
			}
		}
		// Convolve this sample from the tile.
		sp.geom.ForwardSample(tile, sp.wdat, sp.yd[in*sp.outLen:(in+1)*sp.outLen], nil)
	}
}

func convCheck(conv layers.Conv2D, x, w *tensor.Tensor) error {
	if x.Rank() != 4 {
		return fmt.Errorf("kernels: conv input must be rank 4, got %v", x.Shape())
	}
	if x.Dim(1) != conv.InChannels {
		return fmt.Errorf("kernels: conv input has %d channels, want %d", x.Dim(1), conv.InChannels)
	}
	if !w.Shape().Equal(conv.WeightShape()) {
		return fmt.Errorf("kernels: conv weight %v, want %v", w.Shape(), conv.WeightShape())
	}
	return nil
}
