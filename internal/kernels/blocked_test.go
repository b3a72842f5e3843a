package kernels

import (
	"math"
	"testing"

	"bnff/internal/layers"
	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// Edge-geometry coverage for the blocked fused kernels: output widths that
// are not multiples of the 4-wide register tile, strides > 1, and grouped
// consumers. The conv half of the fused forward must match the layer's own
// blocked forward bit for bit when fed the same rectified tile.
func TestFusedForwardEdgeGeometries(t *testing.T) {
	cases := []struct {
		name  string
		conv2 layers.Conv2D
		hw    int
	}{
		{"stride2 pad1 ow5", layers.NewConv2D(4, 6, 3, 2, 1), 9},
		{"stride2 pad0 ow4", layers.NewConv2D(4, 6, 3, 2, 0), 10},
		{"ow7 edge tile", layers.NewConv2D(4, 5, 3, 1, 1), 7},
		{"grouped consumer", func() layers.Conv2D {
			c := layers.NewConv2D(4, 6, 3, 1, 1)
			c.Groups = 2
			return c
		}(), 6},
		{"wide pad borders", layers.NewConv2D(4, 3, 3, 1, 2), 5},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			pool := parallel.New(workers)
			conv1 := layers.NewConv2D(3, 4, 3, 1, 1).WithPool(pool)
			conv2 := tc.conv2.WithPool(pool)
			bn := layers.NewBatchNorm(4)
			rng := tensor.NewRNG(uint64(tc.hw))
			x := tensor.New(3, 3, tc.hw, tc.hw)
			w1 := tensor.New(conv1.WeightShape()...)
			w2 := tensor.New(conv2.WeightShape()...)
			gamma := tensor.New(4)
			beta := tensor.New(4)
			rng.FillNormal(x, 0, 1)
			rng.FillHe(w1, 27)
			rng.FillHe(w2, 36)
			rng.FillUniform(gamma, 0.5, 1.5)
			rng.FillUniform(beta, -0.3, 0.3)

			u, stats, err := convStats(conv1, bn, x, w1)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			y, xhat, err := FusedBNReLUConvForward(conv2, bn, u, stats, gamma, beta, w2)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			// Rebuild the rectified tile from the returned x̂ with the same
			// expression the fused sweep uses; the conv half must then equal
			// the layer's own blocked forward over it bit for bit.
			z := tensor.New(xhat.Shape()...)
			n, c, h, wd := xhat.Dims4()
			for in := 0; in < n; in++ {
				for ic := 0; ic < c; ic++ {
					base := (in*c + ic) * h * wd
					for i := 0; i < h*wd; i++ {
						if v := gamma.Data[ic]*xhat.Data[base+i] + beta.Data[ic]; v > 0 {
							z.Data[base+i] = v
						}
					}
				}
			}
			want, err := conv2.Forward(z, w2)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if d, _ := tensor.MaxAbsDiff(want, y); d != 0 {
				t.Errorf("%s workers=%d: fused conv half differs from layer forward by %v", tc.name, workers, d)
			}
		}
	}
}

// RCF through the blocked sample kernel must still equal ReLU∘conv exactly
// on edge geometries (strides, groups, tile remainders).
func TestReLUConvForwardEdgeGeometries(t *testing.T) {
	cases := []struct {
		name string
		conv layers.Conv2D
		hw   int
	}{
		{"stride2 ow5", layers.NewConv2D(4, 6, 3, 2, 1), 9},
		{"ow6 remainder", layers.NewConv2D(3, 5, 3, 1, 1), 6},
		{"depthwise", layers.NewDepthwiseConv2D(4, 3, 1, 1), 7},
		{"stride2 pad0", layers.NewConv2D(2, 4, 3, 2, 0), 11},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			conv := tc.conv.WithPool(parallel.New(workers))
			rng := tensor.NewRNG(uint64(tc.hw + workers))
			x := tensor.New(2, conv.InChannels, tc.hw, tc.hw)
			w := tensor.New(conv.WeightShape()...)
			rng.FillNormal(x, 0, 1)
			rng.FillHe(w, conv.InChannels*9)
			want, err := conv.Forward(layers.ReLUForward(nil, nil, x), w)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got, err := ReLUConvForward(conv, x, w)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
				t.Errorf("%s workers=%d: RCF differs from ReLU∘conv by %v", tc.name, workers, d)
			}
		}
	}
}

// RCF's non-finite outputs must be exactly unfused ReLU→CONV's: the old
// inline-ReLU kernel skipped every non-positive input, so a ±Inf or NaN
// weight never met the 0 that ReLU writes and 0·Inf = NaN went missing.
func TestReLUConvForwardNonFiniteMaskMatchesUnfused(t *testing.T) {
	conv := layers.NewConv2D(2, 3, 3, 1, 1)
	rng := tensor.NewRNG(33)
	x := tensor.New(2, 2, 5, 5)
	w := tensor.New(conv.WeightShape()...)
	rng.FillNormal(x, 0, 1)
	rng.FillHe(w, 18)
	w.Data[4] = float32(math.Inf(1))
	w.Data[30] = float32(math.NaN())
	x.Data[12] = float32(math.Inf(-1))
	x.Data[40] = float32(math.NaN())
	for _, workers := range []int{1, 4} {
		conv := conv.WithPool(parallel.New(workers))
		want, err := conv.Forward(layers.ReLUForward(nil, nil, x), w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReLUConvForward(conv, x, w)
		if err != nil {
			t.Fatal(err)
		}
		nonFinite := 0
		for i := range want.Data {
			wv, gv := float64(want.Data[i]), float64(got.Data[i])
			if math.IsNaN(wv) != math.IsNaN(gv) || math.IsInf(wv, 0) != math.IsInf(gv, 0) {
				t.Fatalf("workers=%d: y[%d] = %v, unfused ReLU→CONV gives %v", workers, i, gv, wv)
			}
			if math.IsNaN(wv) || math.IsInf(wv, 0) {
				nonFinite++
			}
		}
		if nonFinite == 0 || nonFinite == len(want.Data) {
			t.Fatalf("workers=%d: %d of %d outputs non-finite; the vector does not separate finite from non-finite",
				workers, nonFinite, len(want.Data))
		}
		if !bitsEqual(got.Data, want.Data) {
			t.Errorf("workers=%d: RCF not bit-identical to unfused ReLU→CONV on non-finite input", workers)
		}
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// The fused dγ/dβ sweep must add every masked element's 0·x̂ term, exactly
// as the unfused ReLUBackward → BackwardReduce does. A NaN x̂ (what an Inf
// input normalizes to) or a −Inf x̂ is masked by the ReLU, but 0·NaN and
// 0·(−Inf) are NaN, so the unfused dγ of that channel is NaN; skipping the
// masked term would hide it.
func TestFusedConvBackwardNonFiniteMatchesUnfused(t *testing.T) {
	const n, c, hw = 2, 4, 5
	conv := layers.NewConv2D(c, 3, 3, 1, 1)
	bn := layers.NewBatchNorm(c)
	rng := tensor.NewRNG(35)
	xhat := tensor.New(n, c, hw, hw)
	w := tensor.New(conv.WeightShape()...)
	gamma := tensor.New(c)
	beta := tensor.New(c)
	dy := tensor.New(conv.OutShape(xhat.Shape())...)
	rng.FillNormal(xhat, 0, 1)
	rng.FillHe(w, c*9)
	rng.FillUniform(gamma, 0.5, 1.5)
	rng.FillUniform(beta, -0.3, 0.3)
	rng.FillUniform(dy, -1, 1)
	plane := hw * hw
	for in := 0; in < n; in++ {
		for i := 0; i < plane; i++ {
			xhat.Data[(in*c+1)*plane+i] = float32(math.NaN())
		}
	}
	xhat.Data[(1*c+2)*plane+3] = float32(math.Inf(-1))

	// The unfused composition: z = ReLU(γx̂+β), CONV backward, ReLU mask,
	// then sub-BN2's reductions.
	v := tensor.New(xhat.Shape()...)
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			for i := 0; i < plane; i++ {
				j := (in*c+ic)*plane + i
				v.Data[j] = gamma.Data[ic]*xhat.Data[j] + beta.Data[ic]
			}
		}
	}
	z := layers.ReLUForward(nil, nil, v)
	for _, workers := range []int{1, 4} {
		conv := conv.WithPool(parallel.New(workers))
		dz, dwWant, err := conv.Backward(dy, z, w)
		if err != nil {
			t.Fatal(err)
		}
		dvWant, err := layers.ReLUBackward(nil, nil, dz, z)
		if err != nil {
			t.Fatal(err)
		}
		dgWant, dbWant, err := bn.BackwardReduce(dvWant, xhat)
		if err != nil {
			t.Fatal(err)
		}
		for ic, g := range dgWant.Data {
			if poisoned := ic == 1 || ic == 2; poisoned != math.IsNaN(float64(g)) {
				t.Fatalf("unfused dγ = %v: the vector does not poison exactly channels 1 and 2", dgWant.Data)
			}
		}

		dv, dw, dg, db, err := FusedConvBackwardReLUBNReduce(conv, bn, dy, xhat, gamma, beta, w)
		if err != nil {
			t.Fatal(err)
		}
		for name, pair := range map[string][2]*tensor.Tensor{
			"dv": {dvWant, dv}, "dW": {dwWant, dw}, "dGamma": {dgWant, dg}, "dBeta": {dbWant, db},
		} {
			if !bitsEqualUpToNaN(pair[0].Data, pair[1].Data) {
				t.Errorf("workers=%d: fused %s differs from unfused ReLUBackward → BackwardReduce", workers, name)
			}
		}
	}
}

// bitsEqualUpToNaN compares bit patterns, treating any two NaNs as equal:
// the sign of a NaN produced by a sum depends on operand order, which the
// compiler picks.
func bitsEqualUpToNaN(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return true
}
