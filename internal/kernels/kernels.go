// Package kernels implements the fused numeric kernels that BN
// Fission-n-Fusion substitutes for baseline layer sequences:
//
//   - ConvForwardStats — CONV1-(sub-BN1): the convolution accumulates Σx and
//     Σx² of its own outputs per channel while writing them, then closes the
//     statistics with the MVF identity V(X) = E(X²) − E(X)². One sweep
//     instead of three (paper Figure 5a: O1, I2, I3 → O1').
//
//   - FusedBNReLUConvForward — (sub-BN2)-ReLU-CONV2: normalization and ReLU
//     clipping are applied while the following convolution reads its ifmap.
//     The normalized map x̂ is written once (Figure 5a's O2') because the
//     backward pass re-reads it; everything else stays in registers.
//
//   - ReLUConvForward — RCF alone: ReLU applied on the CONV ifmap read,
//     for the RCF-only evaluation scenario.
//
//   - FusedConvBackwardReLUBNReduce — CONV2-ReLU-(sub-BN2') backward: the
//     convolution's backward-data pass regenerates its saved ifmap from x̂
//     (so z=ReLU(γx̂+β) is never stored), applies the ReLU mask inline, and
//     accumulates dγ/dβ in the same sweep that writes BN's upstream gradient.
//
//   - FusedBNInputConvBackward — (sub-BN1')-CONV1 backward: BN's element-wise
//     input gradient is produced in the same pass that feeds CONV1's backward.
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

// ConvForwardStats computes y = conv(x, w) and, in the same output sweep,
// the per-channel mini-batch statistics of y via the MVF identity. The
// accumulators are float32, mirroring the paper's observation that single
// precision suffices for E(X²) on activation-scale data.
func ConvForwardStats(conv layers.Conv2D, x, w *tensor.Tensor) (*tensor.Tensor, *layers.BNStats, error) {
	y, err := conv.Forward(x, w)
	if err != nil {
		return nil, nil, err
	}
	n, c, h, wd := y.Dims4()
	m := float32(n * h * wd)
	a := conv.Alloc()
	sum := a.Floats(c)
	sumsq := a.Floats(c)
	// Epilogue over the freshly written ofmap tile. In the MKL-DNN
	// implementation this happens before the tile leaves registers; here it
	// is a separate loop over data that is still cache-resident, which keeps
	// the arithmetic identical. On a pool each sample writes a private
	// per-channel partial that is reduced in sample order below — the serial
	// loop adds one per-sample partial per channel in the same order, so the
	// pooled statistics are bit-identical. All scratch comes from the conv's
	// arena on the dispatching goroutine (workers never touch the arena).
	psum := a.Floats(n * c)
	psumsq := a.Floats(n * c)
	conv.Pool().Run(n, func(nLo, nHi int) {
		for in := nLo; in < nHi; in++ {
			for ic := 0; ic < c; ic++ {
				base := (in*c + ic) * h * wd
				row := y.Data[base : base+h*wd]
				// 4-wide unroll: s and sq each stay a single accumulator
				// chain adding elements in ascending order, so the sums are
				// bit-identical to the rolled loop; the unroll only breaks
				// the loop-carried add/mul dependency interleaving.
				var s, sq float32
				i := 0
				for ; i+4 <= len(row); i += 4 {
					v0, v1, v2, v3 := row[i], row[i+1], row[i+2], row[i+3]
					s += v0
					s += v1
					s += v2
					s += v3
					sq += v0 * v0
					sq += v1 * v1
					sq += v2 * v2
					sq += v3 * v3
				}
				for ; i < len(row); i++ {
					v := row[i]
					s += v
					sq += v * v
				}
				psum[in*c+ic] = s
				psumsq[in*c+ic] = sq
			}
		}
	})
	// det-reduce: per-sample Σx/Σx² partials combined in sample order — the
	// serial epilogue's association, so the fused stats are bit-identical.
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			sum[ic] += psum[in*c+ic]
			sumsq[ic] += psumsq[in*c+ic]
		}
	}
	mean := a.Get(c)
	variance := a.Get(c)
	for ic := 0; ic < c; ic++ {
		mu := sum[ic] / m
		mean.Data[ic] = mu
		v := sumsq[ic]/m - mu*mu
		if v < 0 {
			v = 0
		}
		variance.Data[ic] = v
	}
	a.PutFloats(psumsq)
	a.PutFloats(psum)
	a.PutFloats(sumsq)
	a.PutFloats(sum)
	return y, &layers.BNStats{Mean: mean, Var: variance, M: n * h * wd}, nil
}

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

// convGroups mirrors Conv2D's zero-value-means-dense convention.
func convGroups(c layers.Conv2D) int {
	if c.Groups <= 1 {
		return 1
	}
	return c.Groups
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
	// The serial path runs the chunk body as a plain method call on a
	// stack spec — no closure, no heap traffic on the one-worker steady
	// state. The pooled path builds its own spec so only that copy escapes
	// into the dispatched closure.
	if conv.Pool().Serial() {
		sp := fusedFwdSpec{
			xd: x.Data, xh: xhat.Data, yd: y.Data, wdat: w.Data,
			mean: stats.Mean.Data, inv: inv, g: gamma.Data, b: beta.Data, slab: slab,
			c: c, h: h, wd: wd, cout: cout, outLen: cout * oh * ow,
			tileLen: tileLen, geom: conv.SampleGeom(h, wd),
		}
		sp.run(0, 0, n)
	} else {
		sp := fusedFwdSpec{
			xd: x.Data, xh: xhat.Data, yd: y.Data, wdat: w.Data,
			mean: stats.Mean.Data, inv: inv, g: gamma.Data, b: beta.Data, slab: slab,
			c: c, h: h, wd: wd, cout: cout, outLen: cout * oh * ow,
			tileLen: tileLen, geom: conv.SampleGeom(h, wd),
		}
		conv.Pool().RunChunked(n, func(chunk, nLo, nHi int) {
			sp.run(chunk, nLo, nHi)
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
