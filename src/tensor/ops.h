#pragma once

// Stateless neural-network kernels over NHWC tensors.
//
// Forward and backward passes for convolution, pooling, activations, and the
// softmax/cross-entropy head. Stateful layers (parameters, batch-norm running
// stats) live in nn/; these are the math underneath them.

#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace metro {
class ThreadPool;
}  // namespace metro

namespace metro::tensor {

/// Gradients produced by Conv2dBackward.
struct ConvGrads {
  Tensor input;    ///< dL/dx, same shape as the forward input
  Tensor weights;  ///< dL/dW, shape [KH, KW, Cin, Cout]
  Tensor bias;     ///< dL/db, shape [Cout]
};

/// 2-D convolution.
///
/// `input` is NHWC, `weights` is [KH, KW, Cin, Cout], `bias` is [Cout] (may be
/// empty for no bias). Zero padding of `pad` pixels on each side; output size
/// is (H + 2p - KH)/stride + 1.
Tensor Conv2dForward(const Tensor& input, const Tensor& weights,
                     const Tensor& bias, int stride, int pad);

/// Backward pass matching Conv2dForward.
ConvGrads Conv2dBackward(const Tensor& input, const Tensor& weights,
                         const Tensor& grad_out, int stride, int pad);

/// Output of MaxPool2dForward: the pooled tensor plus per-output argmax
/// offsets (into the input) needed by the backward pass.
struct MaxPoolResult {
  Tensor output;
  std::vector<std::size_t> argmax;  ///< flat input index per output element
};

/// Max pooling with square window `k` and stride `stride` (no padding).
MaxPoolResult MaxPool2dForward(const Tensor& input, int k, int stride);

/// Routes each output gradient to the input element that won the max.
Tensor MaxPool2dBackward(const Shape& input_shape, const MaxPoolResult& fwd,
                         const Tensor& grad_out);

/// Mean over H and W: NHWC -> (N, C).
Tensor GlobalAvgPoolForward(const Tensor& input);
Tensor GlobalAvgPoolBackward(const Shape& input_shape, const Tensor& grad_out);

// Elementwise activations. Backward takes the *forward input* (x) except for
// sigmoid/tanh which take the forward output (y) — the cheaper formulation.
Tensor ReluForward(const Tensor& x);
Tensor ReluBackward(const Tensor& x, const Tensor& grad_out);
Tensor LeakyReluForward(const Tensor& x, float alpha);
Tensor LeakyReluBackward(const Tensor& x, const Tensor& grad_out, float alpha);
Tensor SigmoidForward(const Tensor& x);
Tensor SigmoidBackward(const Tensor& y, const Tensor& grad_out);
Tensor TanhForward(const Tensor& x);
Tensor TanhBackward(const Tensor& y, const Tensor& grad_out);

/// Row-wise softmax of a (N, C) tensor (numerically stabilized).
Tensor Softmax(const Tensor& logits);

/// Mean cross-entropy over a batch plus the gradient w.r.t. the logits.
struct CrossEntropyResult {
  float loss;      ///< mean negative log-likelihood
  Tensor grad;     ///< dL/dlogits, shape (N, C)
  Tensor probs;    ///< softmax(logits)
  int correct;     ///< argmax hits, for accuracy tracking
};

/// `labels[i]` in [0, C). Gradient is already divided by the batch size.
CrossEntropyResult CrossEntropyLoss(const Tensor& logits,
                                    const std::vector<int>& labels);

/// Shannon entropy (nats) of one probability row — the early-exit gate
/// signal used by the Fig. 7 architecture.
float Entropy(std::span<const float> probs);

/// Max probability of one row — the confidence gate used by Fig. 5.
float MaxProb(std::span<const float> probs);

// ---------------------------------------------------------------------------
// Planned-inference kernels (see nn/inference.h).
//
// The *Into variants write into caller-provided views (typically
// arena-backed, see workspace.h) and never allocate. Each is bit-exact with
// its eager counterpart above: the per-element accumulation order is
// identical, and ParallelFor only changes which thread computes a given
// output row, never the arithmetic inside it. The in-place variants allow
// `out` to alias `x`.

/// The activation a ConvEpilogue applies: ReLU as `v < 0 ? 0 : v` (the
/// eager std::max(v, 0.0f)), LeakyReLU as `v < 0 ? v * alpha : v`.
enum class ConvAct { kNone, kRelu, kLeakyRelu };

/// The layers after a convolution that Conv2dForwardInto applies to each
/// output pixel while it is still in registers, in the eager layer order and
/// each operation rounded on its own: `v * scale[c]`, then `+ shift[c]` (a
/// BatchNorm's folded affine), then `+ residual`, then the activation.
/// Every part is optional and the default does nothing. There is no
/// identity form: scale 1 and shift 0 would turn -0 into +0.
struct ConvEpilogue {
  const float* scale = nullptr;  ///< cout floats; null: no affine
  const float* shift = nullptr;  ///< cout floats, with `scale`
  /// Conv-output-shaped addend. Never `out`: the kernel may compute an
  /// output pixel twice, and would then add the residual twice.
  const float* residual = nullptr;
  ConvAct act = ConvAct::kNone;
  float alpha = 0.0f;  ///< kLeakyRelu's negative slope
};

/// Conv2dForward into `out` (shape must match the conv output shape),
/// parallelized over batch × output rows when `pool` is given, with
/// `epilogue` applied to every output pixel.
void Conv2dForwardInto(const TensorView& input, const Tensor& weights,
                       const Tensor& bias, int stride, int pad,
                       const TensorView& out, ThreadPool* pool = nullptr,
                       const ConvEpilogue& epilogue = {});

namespace detail {

/// The lane width Conv2dForwardInto's kernel runs at on this CPU, checked
/// once: 8 where the CPU has AVX, 4 with SSE2, 1 for the scalar kernel.
int ConvKernelLanes();

/// Conv2dForwardInto at a fixed lane width: 4, or 8 where ConvKernelLanes()
/// is 8. Lets the parity tests reach the 4-lane kernel on an AVX host.
void Conv2dForwardIntoAtLanes(int lanes, const TensorView& input,
                              const Tensor& weights, const Tensor& bias,
                              int stride, int pad, const TensorView& out,
                              ThreadPool* pool = nullptr,
                              const ConvEpilogue& epilogue = {});

}  // namespace detail

/// MaxPool2dForward without the argmax bookkeeping (inference needs no
/// backward routing).
void MaxPool2dForwardInto(const TensorView& input, int k, int stride,
                          const TensorView& out);

void GlobalAvgPoolForwardInto(const TensorView& input, const TensorView& out);

/// C = A(MxK) * B(KxN), parallel over rows of A.
void MatMulInto(const TensorView& a, const Tensor& b, const TensorView& c,
                ThreadPool* pool = nullptr);

/// y = xW + b (Dense forward) — MatMulInto plus in-place row bias add.
void DenseForwardInto(const TensorView& x, const Tensor& w, const Tensor& b,
                      const TensorView& out, ThreadPool* pool = nullptr);

// Elementwise activations; `out` may alias `x`.
void ReluInto(const TensorView& x, const TensorView& out);
void LeakyReluInto(const TensorView& x, const TensorView& out, float alpha);
void SigmoidInto(const TensorView& x, const TensorView& out);
void TanhInto(const TensorView& x, const TensorView& out);

/// Folds BatchNorm inference statistics into per-channel affine factors:
/// y = x * scale[ch] + shift[ch]. Shared by the eager inference branch and
/// the planned path so both produce bit-identical outputs.
void BatchNormFoldScaleShift(std::span<const float> gamma,
                             std::span<const float> beta,
                             std::span<const float> mean,
                             std::span<const float> var, float eps,
                             std::span<float> scale, std::span<float> shift);

/// Applies the folded affine over the trailing channel dimension; `out` may
/// alias `x`.
void BatchNormInferenceInto(const TensorView& x, std::span<const float> scale,
                            std::span<const float> shift,
                            const TensorView& out);

}  // namespace metro::tensor
