package layers

import (
	"fmt"

	"bnff/internal/parallel"
	"bnff/internal/tensor"
)

// ReLUForward returns max(x, 0) as a fresh tensor. In the baseline graph
// this costs one read and one write sweep of the feature map; RCF eliminates
// both by clipping while the following CONV reads its ifmap.
//
// The flat element range is split across the pool (nil = serial) into
// contiguous chunks with disjoint writes, so the result is bit-identical to
// serial. The output comes from the arena (nil = heap, bit-identical); only
// positive elements are written, the rest relying on the zeroed buffer that
// the arena's default zero-on-reuse guarantees.
func ReLUForward(p *parallel.Pool, a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y := a.Get(x.Shape()...)
	p.Run(len(x.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := x.Data[i]; v > 0 {
				y.Data[i] = v
			}
		}
	})
	return y
}

// ReLUBackward computes dx = dy ⊙ 1[x > 0] from the saved forward input, on
// the pool (nil = serial, bit-identical) with dx drawn from the arena (nil =
// heap, bit-identical).
func ReLUBackward(p *parallel.Pool, a *tensor.Arena, dy, x *tensor.Tensor) (*tensor.Tensor, error) {
	if !dy.Shape().Equal(x.Shape()) {
		return nil, fmt.Errorf("relu: dy shape %v vs x %v", dy.Shape(), x.Shape())
	}
	dx := a.Get(x.Shape()...)
	p.Run(len(x.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x.Data[i] > 0 {
				dx.Data[i] = dy.Data[i]
			}
		}
	})
	return dx, nil
}

// EWSForward is the element-wise sum used by ResNet identity shortcuts,
// drawing the output from the arena (nil = heap, bit-identical).
func EWSForward(al *tensor.Arena, a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if !a.Shape().Equal(b.Shape()) {
		return nil, fmt.Errorf("ews: shape mismatch %v vs %v", a.Shape(), b.Shape())
	}
	y := al.Clone(a)
	if err := y.AddInPlace(b); err != nil {
		al.Put(y)
		return nil, err
	}
	return y, nil
}

// EWSBackward routes the upstream gradient unchanged to both addends.
// Both returned tensors are independent copies drawn from the arena (nil =
// heap), so downstream accumulation cannot alias.
func EWSBackward(a *tensor.Arena, dy *tensor.Tensor) (da, db *tensor.Tensor) {
	return a.Clone(dy), a.Clone(dy)
}
