package layers

import (
	"bnff/internal/cachesim/tiles"
)

// This file is the blocked compute core: a packed-panel, register-tiled GEMM
// (gemmBlocked) and blocked direct-convolution sample kernels (ConvGeom's
// forward and gather-form backward) shared by Conv2D, FC, the GEMM oracle,
// and the fused kernels in internal/kernels.
//
// Bit-identity contract: float32 addition is not associative, so every kernel
// here accumulates each output element with a SINGLE accumulator chain over
// the same term order as the straight-line reference loops (k ascending for
// GEMM, (ig, ky, kx) ascending for the convolution forward, the scatter
// loop's order for its gradients; see backwardSample). Register tiling only fans
// out across DIFFERENT output elements — each keeps its own accumulator, and a
// partial tile's spare lanes repeat a real element's chain and store the
// identical value — and cache blocking over k reads C back between k-blocks,
// which extends the same chain: ((0+t0)+t1 stored, then +t2+t3) ≡
// (((0+t0)+t1)+t2)+t3. No term is ever skipped, so NaN/Inf propagate exactly
// as in the reference.

// gemmBlocking returns the blocking derived from the default cache geometry.
// It is computed per call (cheap: a handful of integer divides) because the
// hot-path packages keep no package-level state.
func gemmBlocking() tiles.Blocking {
	return tiles.TileSizes(tiles.DefaultGeometry())
}

// panelLens returns the packed-panel element counts gemmBlocked needs for a
// problem with at most maxM rows, n columns, and depth k.
func panelLens(maxM, n, k int, blk tiles.Blocking) (aLen, bLen int) {
	kc := min(blk.KC, k)
	aLen = min(blk.MC, maxM) * kc
	bLen = kc * min(blk.NC, n)
	return aLen, bLen
}

// gemmBlocked computes C[i,j] += Σ_k A[i,k]·B[k,j] (or ·B[j,k] when bTrans)
// over the m×n×k problem with leading dimensions ldc/lda/ldb, using the
// BLIS-style loop nest: NC-wide column blocks, KC-deep k-blocks with B packed
// into NR-wide L1-resident strips, MC-tall row blocks with A packed into
// MR-tall L2-resident strips, and an MR×NR register micro-kernel innermost.
// packA/packB are caller scratch of at least panelLens(m, n, k, blk).
//
// Accumulation is += into C, so callers seed C (zero, or bias) exactly like
// the reference loops; see the bit-identity contract at the top of the file.
//
// hot-path: the module's GEMM core; panels are caller scratch, everything
// else is slicing and loop-local scalars.
func gemmBlocked(c []float32, ldc int, a []float32, lda int, b []float32, ldb int, bTrans bool, m, n, k int, blk tiles.Blocking, packA, packB []float32) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	for n0 := 0; n0 < n; n0 += blk.NC {
		nc := min(blk.NC, n-n0)
		for k0 := 0; k0 < k; k0 += blk.KC {
			kc := min(blk.KC, k-k0)
			packBPanel(packB, b, ldb, bTrans, k0, kc, n0, nc, blk.NR)
			for m0 := 0; m0 < m; m0 += blk.MC {
				mc := min(blk.MC, m-m0)
				packAPanel(packA, a, lda, m0, mc, k0, kc, blk.MR)
				for is := 0; is < mc; is += blk.MR {
					mh := min(blk.MR, mc-is)
					ap := packA[is*kc : is*kc+mh*kc]
					for js := 0; js < nc; js += blk.NR {
						nw := min(blk.NR, nc-js)
						bp := packB[js*kc : js*kc+nw*kc]
						ct := c[(m0+is)*ldc+n0+js:]
						if mh == 4 && nw == 4 {
							microGEMM4x4(ct, ldc, ap, bp, kc)
						} else {
							microGEMMEdge(ct, ldc, ap, bp, kc, mh, nw)
						}
					}
				}
			}
		}
	}
}

// packAPanel packs the mc×kc block of A at (m0, k0) into MR-tall strips:
// strip is (rows is..is+h) lives at dst[is*kc:], element [kk*h+r] holding
// A[m0+is+r, k0+kk] — so the micro-kernel reads one contiguous h-wide
// column of A per k step. Edge strips pack at their true height.
//
// hot-path: panel packing inside the GEMM core.
func packAPanel(dst, a []float32, lda int, m0, mc, k0, kc, mr int) {
	for is := 0; is < mc; is += mr {
		h := min(mr, mc-is)
		panel := dst[is*kc : is*kc+h*kc]
		for r := 0; r < h; r++ {
			row := a[(m0+is+r)*lda+k0 : (m0+is+r)*lda+k0+kc]
			for kk, v := range row {
				panel[kk*h+r] = v
			}
		}
	}
}

// packBPanel packs the kc×nc block of B at (k0, n0) into NR-wide strips:
// strip js (columns js..js+w) lives at dst[js*kc:], element [kk*w+j] holding
// B[k0+kk, n0+js+j] (or Bᵀ when bTrans) — one contiguous w-wide row of B per
// k step. Edge strips pack at their true width.
//
// hot-path: panel packing inside the GEMM core.
func packBPanel(dst, b []float32, ldb int, bTrans bool, k0, kc, n0, nc, nr int) {
	for js := 0; js < nc; js += nr {
		w := min(nr, nc-js)
		panel := dst[js*kc : js*kc+w*kc]
		if bTrans {
			for j := 0; j < w; j++ {
				row := b[(n0+js+j)*ldb+k0 : (n0+js+j)*ldb+k0+kc]
				for kk, v := range row {
					panel[kk*w+j] = v
				}
			}
		} else {
			for kk := 0; kk < kc; kk++ {
				copy(panel[kk*w:kk*w+w], b[(k0+kk)*ldb+n0+js:(k0+kk)*ldb+n0+js+w])
			}
		}
	}
}

// microGEMM4x4 is the 4×4 register micro-kernel: 16 scalar accumulators the
// compiler keeps in registers, fed by one 4-wide packed A column and one
// 4-wide packed B row per k step. Each accumulator is one output element's
// single chain, seeded from C and stored back once.
//
// hot-path: the innermost GEMM loop.
func microGEMM4x4(c []float32, ldc int, ap, bp []float32, kc int) {
	c0 := c[0:4]
	c1 := c[ldc : ldc+4]
	c2 := c[2*ldc : 2*ldc+4]
	c3 := c[3*ldc : 3*ldc+4]
	a00, a01, a02, a03 := c0[0], c0[1], c0[2], c0[3]
	a10, a11, a12, a13 := c1[0], c1[1], c1[2], c1[3]
	a20, a21, a22, a23 := c2[0], c2[1], c2[2], c2[3]
	a30, a31, a32, a33 := c3[0], c3[1], c3[2], c3[3]
	for kk := 0; kk < kc; kk++ {
		av := ap[kk*4 : kk*4+4]
		bv := bp[kk*4 : kk*4+4]
		ar0, ar1, ar2, ar3 := av[0], av[1], av[2], av[3]
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		a00 += ar0 * b0
		a01 += ar0 * b1
		a02 += ar0 * b2
		a03 += ar0 * b3
		a10 += ar1 * b0
		a11 += ar1 * b1
		a12 += ar1 * b2
		a13 += ar1 * b3
		a20 += ar2 * b0
		a21 += ar2 * b1
		a22 += ar2 * b2
		a23 += ar2 * b3
		a30 += ar3 * b0
		a31 += ar3 * b1
		a32 += ar3 * b2
		a33 += ar3 * b3
	}
	c0[0], c0[1], c0[2], c0[3] = a00, a01, a02, a03
	c1[0], c1[1], c1[2], c1[3] = a10, a11, a12, a13
	c2[0], c2[1], c2[2], c2[3] = a20, a21, a22, a23
	c3[0], c3[1], c3[2], c3[3] = a30, a31, a32, a33
}

// microGEMMEdge handles the mh×nw edge tiles (mh ≤ MR, nw ≤ NR) against
// panels packed at true strip height/width, with the same one-chain-per-
// element accumulation.
//
// hot-path: edge-tile twin of microGEMM4x4.
func microGEMMEdge(c []float32, ldc int, ap, bp []float32, kc, mh, nw int) {
	for r := 0; r < mh; r++ {
		crow := c[r*ldc : r*ldc+nw]
		for j := 0; j < nw; j++ {
			acc := crow[j]
			for kk := 0; kk < kc; kk++ {
				acc += ap[kk*mh+r] * bp[kk*nw+j]
			}
			crow[j] = acc
		}
	}
}

// ConvGeom is the precomputed single-sample geometry of a Conv2D, shared by
// the layer's own forward, the GEMM oracle's im2col, and the fused kernels in
// internal/kernels (which convolve from a normalized tile instead of x).
type ConvGeom struct {
	Cin, H, W    int
	Cout, OH, OW int
	KH, KW, S, P int
	CinG, CoutG  int // channels per group on each side
}

// SampleGeom returns the per-sample geometry for inputs of spatial extent
// h×w. The caller is responsible for having validated shapes (checkForward).
func (c Conv2D) SampleGeom(h, w int) ConvGeom {
	g := c.groups()
	return ConvGeom{
		Cin: c.InChannels, H: h, W: w,
		Cout: c.OutChannels,
		OH:   (h+2*c.Pad-c.KernelH)/c.Stride + 1,
		OW:   (w+2*c.Pad-c.KernelW)/c.Stride + 1,
		KH:   c.KernelH, KW: c.KernelW, S: c.Stride, P: c.Pad,
		CinG: c.InChannels / g, CoutG: c.OutChannels / g,
	}
}

// clampRange returns the [lo, hi) kernel-tap range whose input coordinate
// i0+t lands inside [0, lim). Taps outside the range contributed nothing in
// the reference loop (its bounds branch skipped them), so clamping the loop
// is bit-identical. hi never drops below lo.
func clampRange(i0, kdim, lim int) (lo, hi int) {
	lo = 0
	if i0 < 0 {
		lo = -i0
	}
	hi = kdim
	if lim-i0 < hi {
		hi = lim - i0
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// interiorOX returns the [lo, hi) span of output columns whose full KW tap
// row lies inside the input width — the span the 4-column register tile
// covers without bounds checks.
func (g ConvGeom) interiorOX() (lo, hi int) {
	lo = (g.P + g.S - 1) / g.S
	if last := g.W - g.KW + g.P; last >= 0 {
		hi = last/g.S + 1
	}
	if hi > g.OW {
		hi = g.OW
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// tileLanes returns the channel offsets of lanes 1..3 of a four-lane
// register tile over n ≥ 1 real channels. Spare lanes (n < 4) point at the
// last real channel: they recompute its chain and store the identical value
// again.
func tileLanes(n int) (l1, l2, l3 int) {
	last := min(n, 4) - 1
	return min(1, last), min(2, last), min(3, last)
}

// ForwardSample convolves one sample: x is (Cin,H,W) flat, w the full weight
// tensor, y the (Cout,OH,OW) output, bias optional per-OC seeds. Output
// channels of a group run in tiles of four (tileLanes): interior output
// columns through the 4-channel × 4-column convTile, border and remainder
// columns through the 4-channel × 1-column convColumn with the clamped kx
// range. A one-channel tile (every depthwise group) runs the one-lane
// convPoint body. Term order per output element is (ig, ky, kx) ascending on
// a single accumulator chain seeded from the bias — bit-identical to the
// straight-line reference loop.
//
// hot-path: the module's dominant FLOP loop; everything lives in caller
// buffers and loop-local scalars.
func (g ConvGeom) ForwardSample(x, w, y []float32, bias []float32) {
	oxLo, oxHi := g.interiorOX()
	ohow, ocStride := g.OH*g.OW, g.CinG*g.KH*g.KW
	for oc0 := 0; oc0 < g.Cout; oc0 += g.CoutG {
		icLo := (oc0 / g.CoutG) * g.CinG
		ocEnd := oc0 + g.CoutG
		for oc := oc0; oc < ocEnd; oc += 4 {
			wBase := oc * ocStride
			if ocEnd-oc == 1 {
				g.forwardChannel(x, w, y[oc*ohow:(oc+1)*ohow], icLo, wBase, bias, oc)
				continue
			}
			l1, l2, l3 := tileLanes(ocEnd - oc)
			w1, w2, w3 := l1*ocStride, l2*ocStride, l3*ocStride
			y1, y2, y3 := l1*ohow, l2*ohow, l3*ohow
			var b0, b1, b2, b3 float32
			if bias != nil {
				b0, b1, b2, b3 = bias[oc], bias[oc+l1], bias[oc+l2], bias[oc+l3]
			}
			for oy := 0; oy < g.OH; oy++ {
				iy0 := oy*g.S - g.P
				kyLo, kyHi := clampRange(iy0, g.KH, g.H)
				yi := oc*ohow + oy*g.OW
				for ox := 0; ox < g.OW; ox++ {
					if ox >= oxLo && ox+4 <= oxHi {
						g.convTile(x, w, y, icLo, wBase, w1, w2, w3, iy0, kyLo, kyHi, ox*g.S-g.P,
							yi+ox, y1, y2, y3, b0, b1, b2, b3)
						ox += 3
						continue
					}
					a0, a1, a2, a3 := g.convColumn(x, w, icLo, wBase, w1, w2, w3, iy0, kyLo, kyHi, ox*g.S-g.P, b0, b1, b2, b3)
					y[yi+ox], y[yi+ox+y1], y[yi+ox+y2], y[yi+ox+y3] = a0, a1, a2, a3
				}
			}
		}
	}
}

// forwardChannel convolves one output channel column by column: the
// one-lane body of ForwardSample.
//
// hot-path: single-channel tile of ForwardSample.
func (g ConvGeom) forwardChannel(x, w, yc []float32, icLo, wBase int, bias []float32, oc int) {
	var b0 float32
	if bias != nil {
		b0 = bias[oc]
	}
	for oy := 0; oy < g.OH; oy++ {
		iy0 := oy*g.S - g.P
		kyLo, kyHi := clampRange(iy0, g.KH, g.H)
		yRow := yc[oy*g.OW : (oy+1)*g.OW]
		for ox := range yRow {
			yRow[ox] = g.convPoint(x, w, icLo, wBase, iy0, kyLo, kyHi, ox*g.S-g.P, b0)
		}
	}
}

// convPoint computes one output column of one channel with clamped tap
// ranges.
//
// hot-path: one-lane body of ForwardSample.
func (g ConvGeom) convPoint(x, w []float32, icLo, wBase, iy0, kyLo, kyHi, ix0 int, b0 float32) float32 {
	kxLo, kxHi := clampRange(ix0, g.KW, g.W)
	hw := g.H * g.W
	acc := b0
	for ig := 0; ig < g.CinG; ig++ {
		inBase := (icLo + ig) * hw
		wcBase := wBase + ig*g.KH*g.KW
		for ky := kyLo; ky < kyHi; ky++ {
			row := inBase + (iy0+ky)*g.W + ix0
			wrow := wcBase + ky*g.KW
			for kx := kxLo; kx < kxHi; kx++ {
				acc += x[row+kx] * w[wrow+kx]
			}
		}
	}
	return acc
}

// convColumn computes one output column of four channels (weights at wBase
// and wBase+w1..w3) with the clamped kx range: each x load feeds four
// accumulators, one chain per channel in convPoint's (ig, ky, kx) order.
//
// hot-path: border-column body of ForwardSample.
func (g ConvGeom) convColumn(x, w []float32, icLo, wBase, w1, w2, w3, iy0, kyLo, kyHi, ix0 int, b0, b1, b2, b3 float32) (a0, a1, a2, a3 float32) {
	kxLo, kxHi := clampRange(ix0, g.KW, g.W)
	hw, khkw := g.H*g.W, g.KH*g.KW
	a0, a1, a2, a3 = b0, b1, b2, b3
	for ig := 0; ig < g.CinG; ig++ {
		inBase := (icLo + ig) * hw
		wcBase := wBase + ig*khkw
		for ky := kyLo; ky < kyHi; ky++ {
			row := inBase + (iy0+ky)*g.W + ix0
			wrow := wcBase + ky*g.KW
			for kx := kxLo; kx < kxHi; kx++ {
				xv := x[row+kx]
				wi := wrow + kx
				a0 += xv * w[wi]
				a1 += xv * w[wi+w1]
				a2 += xv * w[wi+w2]
				a3 += xv * w[wi+w3]
			}
		}
	}
	return a0, a1, a2, a3
}

// convTile is the 4-channel × 4-column register tile over four adjacent
// interior output columns starting at input column ix0: per tap it loads
// four weights (lanes at wBase and wBase+w1..w3) and four x values and
// issues 16 multiply-adds into 16 accumulators, each one output element's
// chain in convPoint's (ig, ky, kx) order. Results land at y[yi+j] and
// y[yi+j+y1..y3] for column j.
//
// hot-path: interior register tile of ForwardSample.
func (g ConvGeom) convTile(x, w, y []float32, icLo, wBase, w1, w2, w3, iy0, kyLo, kyHi, ix0, yi, y1, y2, y3 int, b0, b1, b2, b3 float32) {
	s := g.S
	hw, khkw := g.H*g.W, g.KH*g.KW
	a00, a01, a02, a03 := b0, b0, b0, b0
	a10, a11, a12, a13 := b1, b1, b1, b1
	a20, a21, a22, a23 := b2, b2, b2, b2
	a30, a31, a32, a33 := b3, b3, b3, b3
	for ig := 0; ig < g.CinG; ig++ {
		inBase := (icLo + ig) * hw
		wcBase := wBase + ig*khkw
		for ky := kyLo; ky < kyHi; ky++ {
			row := inBase + (iy0+ky)*g.W + ix0
			wrow := wcBase + ky*g.KW
			for kx := 0; kx < g.KW; kx++ {
				xi := row + kx
				x0, x1, x2, x3 := x[xi], x[xi+s], x[xi+2*s], x[xi+3*s]
				wi := wrow + kx
				v0, v1, v2, v3 := w[wi], w[wi+w1], w[wi+w2], w[wi+w3]
				a00 += x0 * v0
				a01 += x1 * v0
				a02 += x2 * v0
				a03 += x3 * v0
				a10 += x0 * v1
				a11 += x1 * v1
				a12 += x2 * v1
				a13 += x3 * v1
				a20 += x0 * v2
				a21 += x1 * v2
				a22 += x2 * v2
				a23 += x3 * v2
				a30 += x0 * v3
				a31 += x1 * v3
				a32 += x2 * v3
				a33 += x3 * v3
			}
		}
	}
	y[yi], y[yi+1], y[yi+2], y[yi+3] = a00, a01, a02, a03
	y[yi+y1], y[yi+y1+1], y[yi+y1+2], y[yi+y1+3] = a10, a11, a12, a13
	y[yi+y2], y[yi+y2+1], y[yi+y2+2], y[yi+y2+3] = a20, a21, a22, a23
	y[yi+y3], y[yi+y3+1], y[yi+y3+2], y[yi+y3+3] = a30, a31, a32, a33
}

// tapOutRange returns the [lo, hi) range of output positions o < n whose
// input coordinate o*s+off lands inside [0, lim) — the outputs a kernel tap
// at offset off (tap index minus padding) touches. hi never drops below lo.
func tapOutRange(off, s, lim, n int) (lo, hi int) {
	if off < 0 {
		lo = (-off + s - 1) / s
	}
	if last := lim - 1 - off; last >= 0 {
		hi = min(last/s+1, n)
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// inOutRange returns the [lo, hi) range of output positions o < n whose
// kernel window covers input coordinate i: the o with t = i+p−o·s in
// [0, kdim). Ascending o visits the taps t in descending order.
func inOutRange(i, p, s, kdim, n int) (lo, hi int) {
	if u := i + p - kdim + 1; u > 0 {
		lo = (u + s - 1) / s
	}
	hi = min((i+p)/s+1, n)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// backwardSample accumulates one sample's gradients into dx (Cin,H,W) and
// dw (the weight shape), given its input x, the weights w and the upstream
// gradient dy (Cout,OH,OW). It is the gather form of the scatter loop
//
//	for oc, oy, ox: for ig, ky, kx: dx[ic,iy,ix] += w·dy; dw[oc,ig,ky,kx] += x·dy
//
// with every gradient element on ONE accumulator chain, seeded from the
// buffer it accumulates into, over exactly the scatter's term order: (oy, ox)
// ascending for each dW element, (oc, oy, ox) ascending — ky and kx
// descending — for each dX element. So calling it once per sample in sample
// order is bit-identical to the scatter loop over the batch. No term is
// skipped: 0·Inf = NaN propagates as in the unfused reference.
//
// hot-path: the backward twin of ForwardSample; caller buffers only.
func (g ConvGeom) backwardSample(x, w, dy, dx, dw []float32) {
	g.backwardWeights(x, dy, dw)
	g.backwardData(w, dy, dx)
}

// backwardWeights gathers dW in 4 × 4 register tiles: up to four output
// channels × four input channels of one group. All 16 chains of a tap share
// one tapOutRange window, and each (oy, ox) step loads four x values and four
// dy values for 16 multiply-adds. Each chain still sums x·dy over (oy, ox)
// ascending, seeded from dw. Spare lanes of a partial tile point at its last
// real channel (tileLanes); a group with one input and one output channel
// (depthwise) runs the one-lane dwPoint body.
//
// hot-path: dW half of backwardSample.
func (g ConvGeom) backwardWeights(x, dy, dw []float32) {
	hw, ohow, khkw := g.H*g.W, g.OH*g.OW, g.KH*g.KW
	ocStride := g.CinG * khkw
	for oc0 := 0; oc0 < g.Cout; oc0 += g.CoutG {
		icLo := (oc0 / g.CoutG) * g.CinG
		ocEnd := oc0 + g.CoutG
		for oc := oc0; oc < ocEnd; oc += 4 {
			dyT := dy[oc*ohow:]
			p1, p2, p3 := tileLanes(ocEnd - oc)
			for ig := 0; ig < g.CinG; ig += 4 {
				xT := x[(icLo+ig)*hw:]
				q1, q2, q3 := tileLanes(g.CinG - ig)
				one := p3 == 0 && q3 == 0
				wi := oc*ocStride + ig*khkw
				for ky := 0; ky < g.KH; ky++ {
					oyLo, oyHi := tapOutRange(ky-g.P, g.S, g.H, g.OH)
					for kx := 0; kx < g.KW; kx++ {
						oxLo, oxHi := tapOutRange(kx-g.P, g.S, g.W, g.OW)
						if oyLo == oyHi || oxLo == oxHi {
							continue // the tap only ever meets padding
						}
						t := wi + ky*g.KW + kx
						if one {
							dw[t] = g.dwPoint(xT, dyT, dw[t], ky, kx, oyLo, oyHi, oxLo, oxHi)
							continue
						}
						g.dwTile(xT, dyT, dw, ky, kx, oyLo, oyHi, oxLo, oxHi, t, p1, p2, p3, q1, q2, q3)
					}
				}
			}
		}
	}
}

// dwPoint extends one dW element's chain a0 over the tap's output window.
//
// hot-path: single-channel (depthwise) tile of backwardWeights.
func (g ConvGeom) dwPoint(xc, d []float32, a0 float32, ky, kx, oyLo, oyHi, oxLo, oxHi int) float32 {
	s := g.S
	for oy := oyLo; oy < oyHi; oy++ {
		xr := (oy*s-g.P+ky)*g.W + kx - g.P
		dr := d[oy*g.OW : (oy+1)*g.OW]
		for ox := oxLo; ox < oxHi; ox++ {
			a0 += xc[xr+ox*s] * dr[ox]
		}
	}
	return a0
}

// dwTile extends the 16 dW chains of tap (ky, kx) over its output window.
// The chain of output-channel lane i and input-channel lane j lives at
// dw[t + pi·CinG·KH·KW + qj·KH·KW] and sums x·dy with x from xc's channel qj
// and dy from d's channel pi (p0 = q0 = 0).
//
// hot-path: register tile of backwardWeights.
func (g ConvGeom) dwTile(xc, d, dw []float32, ky, kx, oyLo, oyHi, oxLo, oxHi, t, p1, p2, p3, q1, q2, q3 int) {
	s, hw, ohow, khkw := g.S, g.H*g.W, g.OH*g.OW, g.KH*g.KW
	x1, x2, x3 := q1*hw, q2*hw, q3*hw
	d1, d2, d3 := p1*ohow, p2*ohow, p3*ohow
	ocStride := g.CinG * khkw
	r0, r1, r2, r3 := t, t+p1*ocStride, t+p2*ocStride, t+p3*ocStride
	q1, q2, q3 = q1*khkw, q2*khkw, q3*khkw
	a00, a01, a02, a03 := dw[r0], dw[r0+q1], dw[r0+q2], dw[r0+q3]
	a10, a11, a12, a13 := dw[r1], dw[r1+q1], dw[r1+q2], dw[r1+q3]
	a20, a21, a22, a23 := dw[r2], dw[r2+q1], dw[r2+q2], dw[r2+q3]
	a30, a31, a32, a33 := dw[r3], dw[r3+q1], dw[r3+q2], dw[r3+q3]
	n := oxHi - oxLo
	for oy := oyLo; oy < oyHi; oy++ {
		// Lane rows of the window: dy at unit stride, x at stride s. Equal
		// lengths let one bounds check cover all four lanes.
		xi := (oy*s-g.P+ky)*g.W + kx - g.P + oxLo*s
		f0 := xc[xi : xi+(n-1)*s+1]
		f1, f2, f3 := xc[xi+x1:][:len(f0)], xc[xi+x2:][:len(f0)], xc[xi+x3:][:len(f0)]
		dr := oy*g.OW + oxLo
		e0 := d[dr : dr+n]
		e1, e2, e3 := d[dr+d1:][:len(e0)], d[dr+d2:][:len(e0)], d[dr+d3:][:len(e0)]
		k := 0
		for j, d0 := range e0 {
			x0, xv1, xv2, xv3 := f0[k], f1[k], f2[k], f3[k]
			k += s
			dv1, dv2, dv3 := e1[j], e2[j], e3[j]
			a00 += x0 * d0
			a01 += xv1 * d0
			a02 += xv2 * d0
			a03 += xv3 * d0
			a10 += x0 * dv1
			a11 += xv1 * dv1
			a12 += xv2 * dv1
			a13 += xv3 * dv1
			a20 += x0 * dv2
			a21 += xv1 * dv2
			a22 += xv2 * dv2
			a23 += xv3 * dv2
			a30 += x0 * dv3
			a31 += xv1 * dv3
			a32 += xv2 * dv3
			a33 += xv3 * dv3
		}
	}
	dw[r0], dw[r0+q1], dw[r0+q2], dw[r0+q3] = a00, a01, a02, a03
	dw[r1], dw[r1+q1], dw[r1+q2], dw[r1+q3] = a10, a11, a12, a13
	dw[r2], dw[r2+q1], dw[r2+q2], dw[r2+q3] = a20, a21, a22, a23
	dw[r3], dw[r3+q1], dw[r3+q2], dw[r3+q3] = a30, a31, a32, a33
}

// backwardData gathers dX in tiles of up to four input channels of one
// group, with the same spare-lane clamp as backwardWeights. At stride 1 a
// run of four adjacent pixels whose tap windows are all fully interior —
// ix+P−KW+1 ≥ 0, ix+3+P < OW and ix+3 < W — goes through the 4-channel ×
// 4-column dxTile. Border pixels, stride > 1 and kernels one column wide
// share each dy load across the four channels only (dxQuad: for a 1×1
// kernel its hoisted one-tap body runs faster than the tile), and a
// one-channel group runs the one-lane dxPoint body.
//
// hot-path: dX half of backwardSample.
func (g ConvGeom) backwardData(w, dy, dx []float32) {
	hw, khkw := g.H*g.W, g.KH*g.KW
	tileLo, tileEnd := g.W, 0 // [tileLo, tileEnd): pixels a dxTile run may cover
	if g.S == 1 && g.KW > 1 {
		tileLo, tileEnd = max(g.KW-1-g.P, 0), min(g.W, g.OW-g.P)
	}
	for ic0 := 0; ic0 < g.Cin; ic0 += g.CinG {
		ocLo := (ic0 / g.CinG) * g.CoutG
		dyG := dy[ocLo*g.OH*g.OW:]
		icEnd := ic0 + g.CinG
		for ic := ic0; ic < icEnd; ic += 4 {
			l1, l2, l3 := tileLanes(icEnd - ic)
			wT := w[(ocLo*g.CinG+ic-ic0)*khkw:]
			for iy := 0; iy < g.H; iy++ {
				oyLo, oyHi := inOutRange(iy, g.P, g.S, g.KH, g.OH)
				for ix := 0; ix < g.W; ix++ {
					p := ic*hw + iy*g.W + ix
					if l3 == 0 {
						oxLo, oxHi := inOutRange(ix, g.P, g.S, g.KW, g.OW)
						dx[p] = g.dxPoint(wT, dyG, dx[p], iy, ix, oyLo, oyHi, oxLo, oxHi)
						continue
					}
					if ix >= tileLo && ix+4 <= tileEnd {
						g.dxTile(wT, dyG, dx, iy, ix, oyLo, oyHi, p, l1, l2, l3)
						ix += 3
						continue
					}
					oxLo, oxHi := inOutRange(ix, g.P, g.S, g.KW, g.OW)
					g.dxQuad(wT, dyG, dx, iy, ix, oyLo, oyHi, oxLo, oxHi,
						p, p+l1*hw, p+l2*hw, p+l3*hw, l1*khkw, l2*khkw, l3*khkw)
				}
			}
		}
	}
}

// dxPoint extends one dX element's chain a0 over its (oc, oy, ox) window.
// w starts at the element's (first oc, ic) filter, d at the group's first
// output channel.
//
// hot-path: single-channel (depthwise) tile of backwardData.
func (g ConvGeom) dxPoint(w, d []float32, a0 float32, iy, ix, oyLo, oyHi, oxLo, oxHi int) float32 {
	s, ohow, wStride := g.S, g.OH*g.OW, g.CinG*g.KH*g.KW
	for oc := 0; oc < g.CoutG; oc++ {
		wo, do := oc*wStride, oc*ohow
		for oy := oyLo; oy < oyHi; oy++ {
			wr := wo + (iy+g.P-oy*s)*g.KW + ix + g.P
			dr := do + oy*g.OW
			for ox := oxLo; ox < oxHi; ox++ {
				a0 += w[wr-ox*s] * d[dr+ox]
			}
		}
	}
	return a0
}

// dxQuad extends four dX chains (dx indices i0..i3, filter lanes at offsets
// 0, o1, o2, o3 into w) over the pixel's (oc, oy, ox) window.
//
// hot-path: register tile of backwardData.
func (g ConvGeom) dxQuad(w, d, dx []float32, iy, ix, oyLo, oyHi, oxLo, oxHi, i0, i1, i2, i3, o1, o2, o3 int) {
	s, ohow, wStride := g.S, g.OH*g.OW, g.CinG*g.KH*g.KW
	a0, a1, a2, a3 := dx[i0], dx[i1], dx[i2], dx[i3]
	if oyHi-oyLo == 1 && oxHi-oxLo == 1 {
		// One tap per output channel (every stride-1 1×1 conv): the chain
		// runs over oc alone, so hoist the tap out of the oc loop.
		wi := (iy+g.P-oyLo*s)*g.KW + ix + g.P - oxLo*s
		di := oyLo*g.OW + oxLo
		for oc := 0; oc < g.CoutG; oc++ {
			dv := d[oc*ohow+di]
			wo := oc*wStride + wi
			a0 += w[wo] * dv
			a1 += w[wo+o1] * dv
			a2 += w[wo+o2] * dv
			a3 += w[wo+o3] * dv
		}
		dx[i0], dx[i1], dx[i2], dx[i3] = a0, a1, a2, a3
		return
	}
	for oc := 0; oc < g.CoutG; oc++ {
		wo, do := oc*wStride, oc*ohow
		for oy := oyLo; oy < oyHi; oy++ {
			wr := wo + (iy+g.P-oy*s)*g.KW + ix + g.P
			dr := do + oy*g.OW
			for ox := oxLo; ox < oxHi; ox++ {
				dv := d[dr+ox]
				wi := wr - ox*s
				a0 += w[wi] * dv
				a1 += w[wi+o1] * dv
				a2 += w[wi+o2] * dv
				a3 += w[wi+o3] * dv
			}
		}
	}
	dx[i0], dx[i1], dx[i2], dx[i3] = a0, a1, a2, a3
}

// dxTile extends the 16 dX chains of four input channels (lane l at
// dx[i0+l·H·W], its filters at w[l·KH·KW:]) × four adjacent stride-1 pixels
// ix..ix+3 whose windows are fully interior. For each (oc, oy) it walks kx
// descending, so every chain stays (oc, oy, ox) ascending; each step loads
// four adjacent dy values and four weights for 16 multiply-adds.
//
// hot-path: interior register tile of backwardData.
func (g ConvGeom) dxTile(w, d, dx []float32, iy, ix, oyLo, oyHi, i0, l1, l2, l3 int) {
	hw, khkw := g.H*g.W, g.KH*g.KW
	ohow, wStride := g.OH*g.OW, g.CinG*khkw
	o1, o2, o3 := l1*khkw, l2*khkw, l3*khkw
	r0, r1, r2, r3 := i0, i0+l1*hw, i0+l2*hw, i0+l3*hw
	a00, a01, a02, a03 := dx[r0], dx[r0+1], dx[r0+2], dx[r0+3]
	a10, a11, a12, a13 := dx[r1], dx[r1+1], dx[r1+2], dx[r1+3]
	a20, a21, a22, a23 := dx[r2], dx[r2+1], dx[r2+2], dx[r2+3]
	a30, a31, a32, a33 := dx[r3], dx[r3+1], dx[r3+2], dx[r3+3]
	for oc := 0; oc < g.CoutG; oc++ {
		wo, do := oc*wStride, oc*ohow
		for oy := oyLo; oy < oyHi; oy++ {
			wr := wo + (iy+g.P-oy)*g.KW
			dr := do + oy*g.OW + ix + g.P
			for kx := g.KW - 1; kx >= 0; kx-- {
				di, wi := dr-kx, wr+kx
				d0, d1, d2, d3 := d[di], d[di+1], d[di+2], d[di+3]
				v0, v1, v2, v3 := w[wi], w[wi+o1], w[wi+o2], w[wi+o3]
				a00 += v0 * d0
				a01 += v0 * d1
				a02 += v0 * d2
				a03 += v0 * d3
				a10 += v1 * d0
				a11 += v1 * d1
				a12 += v1 * d2
				a13 += v1 * d3
				a20 += v2 * d0
				a21 += v2 * d1
				a22 += v2 * d2
				a23 += v2 * d3
				a30 += v3 * d0
				a31 += v3 * d1
				a32 += v3 * d2
				a33 += v3 * d3
			}
		}
	}
	dx[r0], dx[r0+1], dx[r0+2], dx[r0+3] = a00, a01, a02, a03
	dx[r1], dx[r1+1], dx[r1+2], dx[r1+3] = a10, a11, a12, a13
	dx[r2], dx[r2+1], dx[r2+2], dx[r2+3] = a20, a21, a22, a23
	dx[r3], dx[r3+1], dx[r3+2], dx[r3+3] = a30, a31, a32, a33
}
