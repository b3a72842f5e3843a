package layers

import (
	"fmt"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// Conv2D holds the hyper-parameters of a 2-D convolution layer. Weights are
// laid out (Cout, Cin/groups, KH, KW); the layer has no bias term because
// every convolution in the studied models is immediately followed by BN,
// whose β subsumes it (the paper's models follow the same convention).
//
// Groups partitions the channels into independent convolutions (Groups == 0
// or 1 means dense). Groups == InChannels == OutChannels is a depthwise
// convolution, the MobileNet building block.
type Conv2D struct {
	InChannels  int
	OutChannels int
	KernelH     int
	KernelW     int
	Stride      int
	Pad         int
	Groups      int

	pool  *parallel.Pool
	alloc *tensor.Arena
}

// WithPool returns a copy of the descriptor that executes on the given
// worker pool (nil means serial). The receiver is not modified, so a graph's
// shared descriptor stays execution-state-free and two executors can run the
// same graph with different pools.
func (c Conv2D) WithPool(p *parallel.Pool) Conv2D {
	c.pool = p
	return c
}

// Pool returns the worker pool the descriptor executes on (nil = serial).
// Fused kernels in internal/kernels use it for their own batch loops.
func (c Conv2D) Pool() *parallel.Pool { return c.pool }

// WithAlloc returns a copy of the descriptor that obtains its output and
// workspace buffers from the given arena (nil means plain heap allocation,
// bit-identical to the arena-free path). The arena is only ever consulted
// from the dispatching goroutine, never inside pooled closures.
func (c Conv2D) WithAlloc(a *tensor.Arena) Conv2D {
	c.alloc = a
	return c
}

// Alloc returns the arena the descriptor allocates from (nil = heap). Fused
// kernels in internal/kernels use it for their own buffers.
func (c Conv2D) Alloc() *tensor.Arena { return c.alloc }

// NewConv2D builds a square-kernel dense convolution descriptor.
func NewConv2D(in, out, kernel, stride, pad int) Conv2D {
	return Conv2D{InChannels: in, OutChannels: out, KernelH: kernel, KernelW: kernel, Stride: stride, Pad: pad}
}

// NewDepthwiseConv2D builds a square-kernel depthwise convolution (one
// filter per channel).
func NewDepthwiseConv2D(channels, kernel, stride, pad int) Conv2D {
	c := NewConv2D(channels, channels, kernel, stride, pad)
	c.Groups = channels
	return c
}

// groups returns the effective group count (the zero value means dense).
func (c Conv2D) groups() int {
	if c.Groups <= 1 {
		return 1
	}
	return c.Groups
}

// OutSize returns the output spatial extent for an input extent.
func (c Conv2D) OutSize(in int) int {
	return (in+2*c.Pad-c.KernelH)/c.Stride + 1
}

// OutShape returns the output feature-map shape for the given input shape.
func (c Conv2D) OutShape(in tensor.Shape) tensor.Shape {
	n, _, h, w := in[0], in[1], in[2], in[3]
	oh := (h+2*c.Pad-c.KernelH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KernelW)/c.Stride + 1
	return tensor.Shape{n, c.OutChannels, oh, ow}
}

// WeightShape returns the (Cout, Cin/groups, KH, KW) weight tensor shape.
func (c Conv2D) WeightShape() tensor.Shape {
	return tensor.Shape{c.OutChannels, c.InChannels / c.groups(), c.KernelH, c.KernelW}
}

// FLOPs returns the multiply-add count (2 FLOPs per MAC) of a forward pass
// over a batch with the given input spatial extent. The analytical model in
// internal/graph uses the same formula.
func (c Conv2D) FLOPs(batch, inH, inW int) int64 {
	oh := (inH+2*c.Pad-c.KernelH)/c.Stride + 1
	ow := (inW+2*c.Pad-c.KernelW)/c.Stride + 1
	return 2 * int64(batch) * int64(c.OutChannels) * int64(oh) * int64(ow) *
		int64(c.InChannels/c.groups()) * int64(c.KernelH) * int64(c.KernelW)
}

func (c Conv2D) checkForward(x, w *tensor.Tensor) error {
	if x.Rank() != 4 {
		return fmt.Errorf("conv: input must be rank 4, got %v", x.Shape())
	}
	if x.Dim(1) != c.InChannels {
		return fmt.Errorf("conv: input has %d channels, layer expects %d", x.Dim(1), c.InChannels)
	}
	if !w.Shape().Equal(c.WeightShape()) {
		return fmt.Errorf("conv: weight shape %v, want %v", w.Shape(), c.WeightShape())
	}
	if c.Stride < 1 {
		return fmt.Errorf("conv: stride %d < 1", c.Stride)
	}
	if x.Dim(2)+2*c.Pad < c.KernelH || x.Dim(3)+2*c.Pad < c.KernelW {
		return fmt.Errorf("conv: input %v smaller than kernel %dx%d with pad %d",
			x.Shape(), c.KernelH, c.KernelW, c.Pad)
	}
	if g := c.groups(); c.InChannels%g != 0 || c.OutChannels%g != 0 {
		return fmt.Errorf("conv: channels %d->%d not divisible by %d groups",
			c.InChannels, c.OutChannels, g)
	}
	return nil
}

// Forward computes the convolution of x (N,Cin,H,W) with weights w,
// returning (N,Cout,OH,OW). With a WithPool pool of more than one worker the
// batch is processed by multiple goroutines with bit-identical results.
func (c Conv2D) Forward(x, w *tensor.Tensor) (*tensor.Tensor, error) {
	if err := c.checkForward(x, w); err != nil {
		return nil, err
	}
	y := c.alloc.Get(c.OutShape(x.Shape())...)
	c.dispatchForward(x, w, y, nil)
	return y, nil
}

// ForwardBias computes the convolution plus a per-output-channel bias in the
// same output-writing sweep (each accumulator starts at bias[oc] instead of
// zero, so the bias costs no extra feature-map traffic). It is the kernel a
// folded CONV+BN runs at inference: the BN's affine map is absorbed into the
// weights and this bias (see internal/graph FoldBN).
func (c Conv2D) ForwardBias(x, w, bias *tensor.Tensor) (*tensor.Tensor, error) {
	if err := c.checkForward(x, w); err != nil {
		return nil, err
	}
	if bias.Rank() != 1 || bias.Dim(0) != c.OutChannels {
		return nil, fmt.Errorf("conv: bias shape %v, want [%d]", bias.Shape(), c.OutChannels)
	}
	y := c.alloc.Get(c.OutShape(x.Shape())...)
	c.dispatchForward(x, w, y, bias.Data)
	return y, nil
}

func (c Conv2D) dispatchForward(x, w, y *tensor.Tensor, bias []float32) {
	if !c.pool.Serial() && x.Dim(0) > 1 {
		c.forwardParallel(x, w, y, bias)
		return
	}
	c.forwardInto(x, w, y, bias)
}

func (c Conv2D) dispatchBackward(dy, x, w, dx, dw *tensor.Tensor) {
	if !c.pool.Serial() && x.Dim(0) > 1 {
		c.backwardParallel(dy, x, w, dx, dw)
		return
	}
	c.backwardInto(dy, x, w, dx, dw)
}

// forwardInto runs the inner loops; y must already have the output shape.
// It is shared with the fused kernels in internal/kernels via ForwardInto.
// A non-nil bias (length Cout) seeds each output accumulator — the folded
// CONV+BN path — and a nil bias seeds zero, reproducing the plain
// convolution bit for bit.
//
// hot-path: the module's dominant FLOP loop; the per-sample body is
// ConvGeom.ForwardSample's blocked kernel, everything in caller buffers.
func (c Conv2D) forwardInto(x, w, y *tensor.Tensor, bias []float32) {
	n, cin, h, wd := x.Dims4()
	_, cout, oh, ow := y.Dims4()
	geom := c.SampleGeom(h, wd)
	inLen, outLen := cin*h*wd, cout*oh*ow
	for in := 0; in < n; in++ {
		geom.ForwardSample(x.Data[in*inLen:(in+1)*inLen], w.Data,
			y.Data[in*outLen:(in+1)*outLen], bias)
	}
}

// ForwardInto computes the convolution into a pre-allocated output tensor,
// validating shapes. Fused kernels use it to control buffer reuse.
func (c Conv2D) ForwardInto(x, w, y *tensor.Tensor) error {
	if err := c.checkForward(x, w); err != nil {
		return err
	}
	if !y.Shape().Equal(c.OutShape(x.Shape())) {
		return fmt.Errorf("conv: output shape %v, want %v", y.Shape(), c.OutShape(x.Shape()))
	}
	c.dispatchForward(x, w, y, nil)
	return nil
}

// Backward computes the input gradient dX and weight gradient dW given the
// upstream gradient dY, the saved input x, and the weights w.
func (c Conv2D) Backward(dy, x, w *tensor.Tensor) (dx, dw *tensor.Tensor, err error) {
	if err := c.checkForward(x, w); err != nil {
		return nil, nil, err
	}
	if !dy.Shape().Equal(c.OutShape(x.Shape())) {
		return nil, nil, fmt.Errorf("conv: dY shape %v, want %v", dy.Shape(), c.OutShape(x.Shape()))
	}
	// dx follows the gradient schedule and may come from the arena; dW
	// escapes into the caller's gradient map, whose lifetime the schedule
	// does not bound, so it is always a plain allocation.
	dx = c.alloc.Get(x.Shape()...)
	dw = tensor.New(w.Shape()...)
	c.dispatchBackward(dy, x, w, dx, dw)
	return dx, dw, nil
}

// BackwardInto is Backward writing into caller-provided gradient buffers
// (which must be zeroed by the caller if fresh gradients are wanted; the
// kernel accumulates, which lets Split fan-ins share one dX buffer).
func (c Conv2D) BackwardInto(dy, x, w, dx, dw *tensor.Tensor) error {
	if err := c.checkForward(x, w); err != nil {
		return err
	}
	if !dy.Shape().Equal(c.OutShape(x.Shape())) {
		return fmt.Errorf("conv: dY shape %v, want %v", dy.Shape(), c.OutShape(x.Shape()))
	}
	if !dx.Shape().Equal(x.Shape()) || !dw.Shape().Equal(w.Shape()) {
		return fmt.Errorf("conv: gradient buffer shapes %v/%v, want %v/%v",
			dx.Shape(), dw.Shape(), x.Shape(), w.Shape())
	}
	c.dispatchBackward(dy, x, w, dx, dw)
	return nil
}

// backwardInto accumulates the dX/dW gradients of the batch into caller
// buffers, one sample at a time in sample order through the gather kernel
// (ConvGeom.backwardSample). Each dW element's chain runs over (n, oy, ox)
// ascending and each dX element's over (oc, oy, ox), the order of the
// straight-line scatter loop, so the result is bit-identical to it. No
// zero-gradient term is skipped: with ±Inf in x or w, 0·Inf = NaN reaches
// the gradient exactly as in the unfused reference.
//
// hot-path: the backward twin of forwardInto; no per-call allocation.
func (c Conv2D) backwardInto(dy, x, w, dx, dw *tensor.Tensor) {
	n, cin, h, wd := x.Dims4()
	_, cout, oh, ow := dy.Dims4()
	geom := c.SampleGeom(h, wd)
	inLen, outLen := cin*h*wd, cout*oh*ow
	for in := 0; in < n; in++ {
		geom.backwardSample(x.Data[in*inLen:(in+1)*inLen], w.Data,
			dy.Data[in*outLen:(in+1)*outLen], dx.Data[in*inLen:(in+1)*inLen], dw.Data)
	}
}
