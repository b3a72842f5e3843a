package layers

import (
	"math"
	"testing"
	"testing/quick"

	"bnff/internal/cachesim/tiles"
	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// legacyConvForward is the pre-blocking reference convolution loop (per-tap
// bounds branches, straight-line accumulation), kept here as the oracle the
// blocked kernels must match bit for bit.
func legacyConvForward(c Conv2D, x, w *tensor.Tensor, bias []float32) *tensor.Tensor {
	y := tensor.New(c.OutShape(x.Shape())...)
	n, cin, h, wd := x.Dims4()
	_, cout, oh, ow := y.Dims4()
	kh, kw, s, p := c.KernelH, c.KernelW, c.Stride, c.Pad
	g := c.groups()
	cinG, coutG := cin/g, cout/g
	for in := 0; in < n; in++ {
		for oc := 0; oc < cout; oc++ {
			icLo := (oc / coutG) * cinG
			wBase := oc * cinG * kh * kw
			outBase := (in*cout + oc) * oh * ow
			var b0 float32
			if bias != nil {
				b0 = bias[oc]
			}
			for oy := 0; oy < oh; oy++ {
				iy0 := oy*s - p
				for ox := 0; ox < ow; ox++ {
					ix0 := ox*s - p
					acc := b0
					for ig := 0; ig < cinG; ig++ {
						inBase := (in*cin + icLo + ig) * h * wd
						wcBase := wBase + ig*kh*kw
						for ky := 0; ky < kh; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= wd {
									continue
								}
								acc += x.Data[inBase+iy*wd+ix] * w.Data[wcBase+ky*kw+kx]
							}
						}
					}
					y.Data[outBase+oy*ow+ox] = acc
				}
			}
		}
	}
	return y
}

// legacyConvBackward is the pre-gather scatter loop for the convolution's
// backward pass (dX and dW accumulate into the caller's buffers), kept here
// as the oracle the gather kernel must match bit for bit. skipZero restores
// its old dy == 0 skip. With finite inputs that skip changes no bit (a ±0
// term leaves any accumulator but −0 unchanged), but it drops the
// 0·Inf = NaN terms the unfused reference keeps.
func legacyConvBackward(c Conv2D, dy, x, w, dx, dw *tensor.Tensor, skipZero bool) {
	n, cin, h, wd := x.Dims4()
	_, cout, oh, ow := dy.Dims4()
	kh, kw, s, p := c.KernelH, c.KernelW, c.Stride, c.Pad
	g := c.groups()
	cinG, coutG := cin/g, cout/g
	for in := 0; in < n; in++ {
		for oc := 0; oc < cout; oc++ {
			icLo := (oc / coutG) * cinG
			wBase := oc * cinG * kh * kw
			outBase := (in*cout + oc) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gv := dy.Data[outBase+oy*ow+ox]
					if skipZero && gv == 0 {
						continue
					}
					for ig := 0; ig < cinG; ig++ {
						inBase := (in*cin + icLo + ig) * h * wd
						wcBase := wBase + ig*kh*kw
						for ky := 0; ky < kh; ky++ {
							iy := oy*s - p + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*s - p + kx
								if ix < 0 || ix >= wd {
									continue
								}
								dx.Data[inBase+iy*wd+ix] += w.Data[wcBase+ky*kw+kx] * gv
								dw.Data[wcBase+ky*kw+kx] += x.Data[inBase+iy*wd+ix] * gv
							}
						}
					}
				}
			}
		}
	}
}

// naiveGEMM is the unblocked reference C += A·B (or A·Bᵀ): ascending k, one
// accumulator chain per element, no zero-skip.
func naiveGEMM(c, a, b []float32, bTrans bool, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := c[i*n+j]
			for kk := 0; kk < k; kk++ {
				if bTrans {
					acc += a[i*k+kk] * b[j*k+kk]
				} else {
					acc += a[i*k+kk] * b[kk*n+j]
				}
			}
			c[i*n+j] = acc
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

func fillRand(seed uint64, n int) []float32 {
	t := tensor.New(n)
	tensor.NewRNG(seed).FillNormal(t, 0, 1)
	return t.Data
}

// The blocked GEMM must be bit-identical to the naive loop for every tile
// pattern: full tiles, edge tiles in m and n, multiple k-blocks, and both B
// orientations. A deliberately tiny blocking forces every block boundary to
// be exercised on small problems.
func TestGEMMBlockedBitIdenticalToNaive(t *testing.T) {
	tiny := tiles.Blocking{MR: 4, NR: 4, KC: 8, MC: 8, NC: 12}
	for _, blk := range []tiles.Blocking{tiny, tiles.TileSizes(tiles.DefaultGeometry())} {
		for _, dims := range [][3]int{
			{1, 1, 1}, {4, 4, 8}, {5, 7, 9}, {8, 12, 16}, {13, 17, 23}, {3, 33, 40}, {16, 5, 64},
		} {
			m, n, k := dims[0], dims[1], dims[2]
			for _, bTrans := range []bool{false, true} {
				a := fillRand(uint64(100*m+n), m*k)
				b := fillRand(uint64(200*n+k), k*n)
				want := fillRand(uint64(300*m+k), m*n)
				got := append([]float32(nil), want...)
				naiveGEMM(want, a, b, bTrans, m, n, k)
				aLen, bLen := panelLens(m, n, k, blk)
				packA := make([]float32, aLen)
				packB := make([]float32, bLen)
				lda, ldb := k, n
				if bTrans {
					ldb = k
				}
				gemmBlocked(got, n, a, lda, b, ldb, bTrans, m, n, k, blk, packA, packB)
				if !bitsEqual(got, want) {
					t.Errorf("m=%d n=%d k=%d bTrans=%v blk=%+v: blocked GEMM not bit-identical to naive", m, n, k, bTrans, blk)
				}
			}
		}
	}
}

// Blocked convolution (interior register tile + clamped borders) must match
// the legacy per-tap-branch loop bit for bit across kernel/stride/group/pad
// geometries, including outputs whose width is not a multiple of the 4-wide
// tile, at workers 1 and 4.
func TestBlockedConvBitIdenticalToLegacy(t *testing.T) {
	cfgs := []struct {
		conv   Conv2D
		n, hw  int
		biased bool
	}{
		{NewConv2D(3, 8, 3, 1, 1), 3, 9, false},  // OW=9: 2 quads + edge
		{NewConv2D(3, 8, 3, 1, 1), 2, 8, true},   // folded-bias path
		{NewConv2D(4, 6, 1, 1, 0), 2, 7, false},  // 1x1, no pad
		{NewConv2D(3, 4, 5, 2, 2), 3, 11, false}, // stride 2, wide kernel
		{NewConv2D(2, 4, 3, 2, 0), 2, 9, false},  // stride 2, no pad
		{NewDepthwiseConv2D(6, 3, 1, 1), 2, 6, false},
		{func() Conv2D { c := NewConv2D(6, 4, 3, 1, 1); c.Groups = 2; return c }(), 2, 10, false},
		{NewConv2D(2, 3, 3, 1, 2), 2, 5, false}, // pad > kernel reach: wide borders
	}
	for _, cfg := range cfgs {
		x, w := randomConvCase(uint64(cfg.n*cfg.hw), cfg.conv, cfg.n, cfg.hw)
		var bias *tensor.Tensor
		var biasData []float32
		if cfg.biased {
			bias = tensor.New(cfg.conv.OutChannels)
			tensor.NewRNG(7).FillUniform(bias, -1, 1)
			biasData = bias.Data
		}
		want := legacyConvForward(cfg.conv, x, w, biasData)
		for _, workers := range []int{1, 4} {
			conv := cfg.conv.WithPool(parallel.New(workers))
			var got *tensor.Tensor
			var err error
			if cfg.biased {
				got, err = conv.ForwardBias(x, w, bias)
			} else {
				got, err = conv.Forward(x, w)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got.Data, want.Data) {
				d, _ := tensor.MaxAbsDiff(got, want)
				t.Errorf("conv %+v workers=%d: blocked forward differs from legacy by %v", cfg.conv, workers, d)
			}
		}
	}
}

// Property: blocked ≡ legacy bit-identity holds for random geometries —
// kernel 1..3, stride 1..2, groups {1,2}, random odd spatial extents so the
// interior tile hits every edge-remainder case.
func TestQuickBlockedConvBitIdentity(t *testing.T) {
	f := func(seed uint64, kBits, sBits, gBits, hwBits uint8) bool {
		k := 1 + int(kBits%3)
		s := 1 + int(sBits%2)
		hw := 5 + int(hwBits%7) // 5..11
		conv := NewConv2D(2, 4, k, s, k/2)
		if gBits%2 == 1 {
			conv.Groups = 2
		}
		x, w := randomConvCase(seed, conv, 2, hw)
		want := legacyConvForward(conv, x, w, nil)
		got, err := conv.Forward(x, w)
		if err != nil {
			return false
		}
		return bitsEqual(got.Data, want.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// backwardCase returns a random backward problem: x, w and dy from the
// seed, and dX/dW buffers pre-seeded with random values, because the kernel
// accumulates into whatever the caller hands it (Split fan-ins share dX).
func backwardCase(seed uint64, conv Conv2D, n, hw int) (x, w, dy, dx, dw *tensor.Tensor) {
	x, w = randomConvCase(seed, conv, n, hw)
	rng := tensor.NewRNG(seed + 1)
	dy = tensor.New(conv.OutShape(x.Shape())...)
	rng.FillNormal(dy, 0, 1)
	dx, dw = tensor.New(x.Shape()...), tensor.New(w.Shape()...)
	rng.FillNormal(dx, 0, 1)
	rng.FillNormal(dw, 0, 1)
	return x, w, dy, dx, dw
}

// gatherMatchesScatter runs the serial gather kernel and the legacy scatter
// loop from identical seeded buffers and reports whether dX and dW match
// bitwise.
func gatherMatchesScatter(conv Conv2D, x, w, dy, dx0, dw0 *tensor.Tensor, skipZero bool) (dxOK, dwOK bool) {
	wantDX, wantDW := dx0.Clone(), dw0.Clone()
	legacyConvBackward(conv, dy, x, w, wantDX, wantDW, skipZero)
	gotDX, gotDW := dx0.Clone(), dw0.Clone()
	if err := conv.BackwardInto(dy, x, w, gotDX, gotDW); err != nil {
		return false, false
	}
	return bitsEqual(gotDX.Data, wantDX.Data), bitsEqual(gotDW.Data, wantDW.Data)
}

// Property: the gather backward ≡ the legacy scatter loop (with its dy == 0
// skip) bitwise over random geometries — channel counts that leave 1-, 2-
// and 3-wide edge tiles, kernels 1..7, strides 1..3, pads up to and beyond
// the kernel reach, groups {1, 2, 4} and depthwise — with random seeded
// accumulators and exact zeros in dy.
func TestQuickConvBackwardBitIdentity(t *testing.T) {
	f := func(seed uint64, cBits, kBits, sBits, pBits, gBits, hwBits, nBits uint8) bool {
		k := []int{1, 3, 5, 7}[kBits%4]
		s := 1 + int(sBits%3)
		p := int(pBits) % (k/2 + 2)
		hw := max(k-2*p, 1) + int(hwBits%9)
		n := 1 + int(nBits%2)
		var conv Conv2D
		switch grp := []int{1, 2, 4, 0}[gBits%4]; grp {
		case 0: // depthwise
			conv = NewDepthwiseConv2D(1+int(cBits%6), k, s, p)
		default:
			cin := grp * (1 + int(cBits%5))
			cout := grp * (1 + int(cBits/5%6))
			conv = NewConv2D(cin, cout, k, s, p)
			conv.Groups = grp
		}
		x, w, dy, dx, dw := backwardCase(seed, conv, n, hw)
		for i := int(seed % 5); i < len(dy.Data); i += 5 {
			dy.Data[i] = 0
		}
		dxOK, dwOK := gatherMatchesScatter(conv, x, w, dy, dx, dw, true)
		if !dxOK || !dwOK {
			t.Logf("conv %+v n=%d hw=%d: dX match %v, dW match %v", conv, n, hw, dxOK, dwOK)
		}
		return dxOK && dwOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The gather kernel skips no term, so non-finite values in x, w or dy reach
// the gradients exactly as in a scatter loop without the old dy == 0 skip:
// 0·Inf = NaN lands in dX and dW. The old skipping loop dropped those NaNs.
func TestConvBackwardNonFiniteMatchesNoSkipReference(t *testing.T) {
	for _, conv := range []Conv2D{
		NewConv2D(5, 6, 3, 1, 1),
		NewConv2D(3, 4, 3, 2, 1),
		NewDepthwiseConv2D(3, 3, 1, 1),
	} {
		x, w, dy, dx, dw := backwardCase(17, conv, 2, 6)
		inf := float32(math.Inf(1))
		x.Data[7], x.Data[len(x.Data)-9] = inf, -inf
		w.Data[4] = float32(math.NaN())
		w.Data[len(w.Data)-1] = -inf
		dy.Data[3] = inf
		for i := 0; i < len(dy.Data); i += 2 {
			dy.Data[i] = 0
		}
		dxOK, dwOK := gatherMatchesScatter(conv, x, w, dy, dx, dw, false)
		if !dxOK || !dwOK {
			t.Errorf("conv %+v: gather differs from the no-skip scatter reference on non-finite input (dX match %v, dW match %v)",
				conv, dxOK, dwOK)
		}
		// The skipping loop swallows 0·Inf: the vector must exercise that.
		gotDX, gotDW := dx.Clone(), dw.Clone()
		if err := conv.BackwardInto(dy, x, w, gotDX, gotDW); err != nil {
			t.Fatal(err)
		}
		skipDX, skipDW := dx.Clone(), dw.Clone()
		legacyConvBackward(conv, dy, x, w, skipDX, skipDW, true)
		if nanCount(gotDX.Data)+nanCount(gotDW.Data) <= nanCount(skipDX.Data)+nanCount(skipDW.Data) {
			t.Errorf("conv %+v: test vector does not exercise the removed dy == 0 skip", conv)
		}
	}
}

func nanCount(v []float32) int {
	n := 0
	for _, x := range v {
		if math.IsNaN(float64(x)) {
			n++
		}
	}
	return n
}

// The GEMM oracle must agree with the direct kernels on non-finite inputs:
// the old zero-skip fast path dropped 0·Inf = NaN terms that the direct loop
// accumulates. Weights include exact zeros to exercise the removed skip.
func TestGEMMOracleNonFiniteMatchesDirect(t *testing.T) {
	conv := NewConv2D(2, 3, 3, 1, 1)
	x, w := randomConvCase(91, conv, 2, 6)
	// Non-finite inputs at scattered positions.
	x.Data[0] = float32(math.Inf(1))
	x.Data[17] = float32(math.Inf(-1))
	x.Data[33] = float32(math.NaN())
	// Exact zeros in the weights: the old skip dropped the whole k-row, so
	// 0·Inf/0·NaN terms from x never reached the output.
	for i := 0; i < len(w.Data); i += 3 {
		w.Data[i] = 0
	}
	direct, err := conv.Forward(x, w)
	if err != nil {
		t.Fatal(err)
	}
	gemm, err := conv.ForwardGEMM(x, w)
	if err != nil {
		t.Fatal(err)
	}
	var nan int
	for _, v := range gemm.Data {
		if math.IsNaN(float64(v)) {
			nan++
		}
	}
	if nan == 0 {
		t.Fatal("test vector produced no NaN outputs; not exercising propagation")
	}
	for i := range gemm.Data {
		if math.Float32bits(gemm.Data[i]) != math.Float32bits(direct.Data[i]) {
			t.Fatalf("GEMM[%d] = %v, direct = %v: non-finite propagation differs", i, gemm.Data[i], direct.Data[i])
		}
	}
}

// matMul must propagate non-finite values through zero operands too (the
// a==0 skip used to short-circuit the whole row term).
func TestMatMulNonFiniteNoZeroSkip(t *testing.T) {
	a := tensor.MustFromSlice([]float32{0, 0, 1, 2}, 2, 2)
	b := tensor.MustFromSlice([]float32{float32(math.Inf(1)), 3, 4, 5}, 2, 2)
	got, err := matMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: 0·Inf + 0·4 = NaN; 0·3 + 0·5 = 0.
	if !math.IsNaN(float64(got.Data[0])) {
		t.Errorf("out[0,0] = %v, want NaN (0·Inf must not be skipped)", got.Data[0])
	}
	if got.Data[1] != 0 {
		t.Errorf("out[0,1] = %v, want 0", got.Data[1])
	}
	pooled, err := matMulOn(parallel.New(2), nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got.Data, pooled.Data) {
		t.Error("pooled matMul differs bitwise from serial on non-finite input")
	}
}

// matMulOn draws its output and panel scratch from the caller's arena: a
// second call after returning the first result must be served from the free
// lists, and the result must be bit-identical to the arena-free path.
func TestMatMulOnUsesArena(t *testing.T) {
	a := tensor.New(6, 5)
	b := tensor.New(5, 7)
	tensor.NewRNG(11).FillNormal(a, 0, 1)
	tensor.NewRNG(12).FillNormal(b, 0, 1)
	want, err := matMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	arena := tensor.NewArena()
	out1, err := matMulOn(nil, arena, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(out1.Data, want.Data) {
		t.Error("arena-backed matMul differs from heap-backed")
	}
	arena.Put(out1)
	hitsBefore := arena.Stats().Hits
	out2, err := matMulOn(nil, arena, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := arena.Stats().Hits; got <= hitsBefore {
		t.Errorf("second matMulOn hit the arena %d times, want > %d (output and panels must recycle)", got, hitsBefore)
	}
	if !bitsEqual(out2.Data, want.Data) {
		t.Error("recycled matMul differs from heap-backed")
	}
	arena.Put(out2)
	if got := arena.Stats().BytesInUse; got != 0 {
		t.Errorf("arena still has %d bytes checked out; panel scratch leaked", got)
	}
}

// FC.Forward through the blocked GEMM must be bit-identical to the reference
// bias-seeded dot-product loop at workers 1 and 4, including odd shapes that
// end in edge tiles.
func TestFCForwardBitIdenticalToReference(t *testing.T) {
	for _, dims := range [][3]int{{1, 3, 2}, {3, 7, 5}, {4, 16, 10}, {5, 33, 9}} {
		n, in, out := dims[0], dims[1], dims[2]
		fc := FC{In: in, Out: out}
		x := tensor.New(n, in)
		w := tensor.New(out, in)
		b := tensor.New(out)
		tensor.NewRNG(uint64(n*in)).FillNormal(x, 0, 1)
		tensor.NewRNG(uint64(in*out)).FillNormal(w, 0, 0.5)
		tensor.NewRNG(uint64(out)).FillUniform(b, -1, 1)
		want := tensor.New(n, out)
		for i := 0; i < n; i++ {
			for o := 0; o < out; o++ {
				acc := b.Data[o]
				for j := 0; j < in; j++ {
					acc += x.Data[i*in+j] * w.Data[o*in+j]
				}
				want.Data[i*out+o] = acc
			}
		}
		for _, workers := range []int{1, 4} {
			got, err := fc.WithPool(parallel.New(workers)).Forward(x, w, b)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got.Data, want.Data) {
				t.Errorf("FC %dx%d->%d workers=%d: blocked forward not bit-identical to reference", n, in, out, workers)
			}
		}
	}
}

func TestIm2colBytesClamped(t *testing.T) {
	for _, tc := range []struct {
		name            string
		conv            Conv2D
		batch, inH, inW int
		want            int64
	}{
		{"normal", NewConv2D(16, 32, 3, 1, 1), 2, 8, 8, 2 * 4 * 2 * (16 * 9) * 64},
		{"degenerate height", NewConv2D(4, 8, 5, 1, 0), 2, 1, 8, 0},
		{"degenerate width", NewConv2D(4, 8, 5, 1, 0), 2, 8, 2, 0},
		{"pad rescues degenerate", NewConv2D(1, 1, 5, 1, 2), 1, 1, 5, 2 * 4 * 25 * 1 * 5},
		{"zero batch", NewConv2D(4, 8, 3, 1, 1), 0, 8, 8, 0},
	} {
		if got := tc.conv.Im2colBytes(tc.batch, tc.inH, tc.inW); got != tc.want {
			t.Errorf("%s: Im2colBytes = %d, want %d", tc.name, got, tc.want)
		}
		if got := tc.conv.Im2colBytes(tc.batch, tc.inH, tc.inW); got < 0 {
			t.Errorf("%s: negative byte count %d", tc.name, got)
		}
	}
}

// The packed-panel inner loops must be allocation-free: panels and outputs
// come from the caller, and the kernels themselves only slice.
func TestBlockedKernelsAllocFree(t *testing.T) {
	blk := gemmBlocking()
	m, n, k := 16, 24, 32
	a := fillRand(1, m*k)
	b := fillRand(2, k*n)
	c := make([]float32, m*n)
	aLen, bLen := panelLens(m, n, k, blk)
	packA := make([]float32, aLen)
	packB := make([]float32, bLen)
	if allocs := testing.AllocsPerRun(10, func() {
		gemmBlocked(c, n, a, k, b, n, false, m, n, k, blk, packA, packB)
	}); allocs != 0 {
		t.Errorf("gemmBlocked allocates %v per run, want 0", allocs)
	}

	conv := NewConv2D(3, 8, 3, 1, 1)
	geom := conv.SampleGeom(9, 9)
	x := fillRand(3, 3*9*9)
	w := fillRand(4, 8*3*3*3)
	y := make([]float32, 8*9*9)
	if allocs := testing.AllocsPerRun(10, func() {
		geom.ForwardSample(x, w, y, nil)
	}); allocs != 0 {
		t.Errorf("ForwardSample allocates %v per run, want 0", allocs)
	}
	dx := make([]float32, len(x))
	dw := make([]float32, len(w))
	if allocs := testing.AllocsPerRun(10, func() {
		geom.backwardSample(x, w, y, dx, dw)
	}); allocs != 0 {
		t.Errorf("backwardSample allocates %v per run, want 0", allocs)
	}
}

// Bench pair: the blocked convolution against the legacy per-tap-branch loop
// on a ResNet-scale layer (64→64 3×3 on 16×16 maps).
func BenchmarkConvForwardBlocked(b *testing.B) {
	conv := NewConv2D(64, 64, 3, 1, 1)
	x, w := randomConvCase(5, conv, 1, 16)
	y := tensor.New(conv.OutShape(x.Shape())...)
	b.SetBytes(int64(4 * len(x.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.forwardInto(x, w, y, nil)
	}
}

func BenchmarkConvForwardLegacy(b *testing.B) {
	conv := NewConv2D(64, 64, 3, 1, 1)
	x, w := randomConvCase(5, conv, 1, 16)
	b.SetBytes(int64(4 * len(x.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		legacyConvForward(conv, x, w, nil)
	}
}

// Bench pair: the gather backward against the legacy scatter loop on the
// same layer, accumulating into the same buffers every iteration.
func BenchmarkConvBackwardBlocked(b *testing.B) {
	conv := NewConv2D(64, 64, 3, 1, 1)
	x, w := randomConvCase(5, conv, 1, 16)
	dy := tensor.New(conv.OutShape(x.Shape())...)
	tensor.NewRNG(6).FillNormal(dy, 0, 1)
	dx, dw := tensor.New(x.Shape()...), tensor.New(w.Shape()...)
	b.SetBytes(int64(4 * len(x.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.backwardInto(dy, x, w, dx, dw)
	}
}

func BenchmarkConvBackwardLegacy(b *testing.B) {
	conv := NewConv2D(64, 64, 3, 1, 1)
	x, w := randomConvCase(5, conv, 1, 16)
	dy := tensor.New(conv.OutShape(x.Shape())...)
	tensor.NewRNG(6).FillNormal(dy, 0, 1)
	dx, dw := tensor.New(x.Shape()...), tensor.New(w.Shape()...)
	b.SetBytes(int64(4 * len(x.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		legacyConvBackward(conv, dy, x, w, dx, dw, true)
	}
}

// Bench pair: the packed-panel GEMM against the naive triple loop at the
// oracle's per-sample shape for the same layer (64 × 256×576 im2col).
func BenchmarkGEMMBlocked(b *testing.B) {
	m, n, k := 64, 256, 576
	blk := gemmBlocking()
	a := fillRand(1, m*k)
	bm := fillRand(2, k*n)
	c := make([]float32, m*n)
	aLen, bLen := panelLens(m, n, k, blk)
	packA := make([]float32, aLen)
	packB := make([]float32, bLen)
	b.SetBytes(int64(2 * m * n * k))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemmBlocked(c, n, a, k, bm, n, false, m, n, k, blk, packA, packB)
	}
}

func BenchmarkGEMMNaive(b *testing.B) {
	m, n, k := 64, 256, 576
	a := fillRand(1, m*k)
	bm := fillRand(2, k*n)
	c := make([]float32, m*n)
	b.SetBytes(int64(2 * m * n * k))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveGEMM(c, a, bm, false, m, n, k)
	}
}
