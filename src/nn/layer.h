#pragma once

// Trainable layer abstraction.
//
// Layers cache whatever the matching backward pass needs, so a layer instance
// services one forward/backward pair at a time (standard single-stream
// training). Parameters expose value+grad pairs the optimizers consume.

#include <memory>
#include <string>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace metro::nn {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorView;

/// Execution resources for the planned inference path (nn/inference.h).
struct InferenceContext {
  /// Per-run scratch arena; the session rewinds it after every layer, so a
  /// layer may Alloc freely for intermediates. May be null for the default
  /// (eager-materializing) path.
  tensor::Workspace* scratch = nullptr;
  /// Optional kernel parallelism (conv/matmul row fan-out). May be null.
  ThreadPool* pool = nullptr;
};

/// How a layer's planned output relates to its input buffer.
enum class InferencePlacement {
  kNewBuffer,  ///< writes a distinct output buffer (ping-pong slot)
  kInPlace,    ///< elementwise: `out` aliases the input view
  kAlias,      ///< pure reshape/identity: no kernel runs, the view is relabeled
};

/// A trainable parameter: value and the gradient accumulated by backward.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void ZeroGrad() { grad.Fill(0.0f); }
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output; `training` selects batch-vs-running stats in
  /// BatchNorm and enables Dropout.
  virtual Tensor Forward(const Tensor& x, bool training) = 0;

  /// Propagates `grad_out` (dL/dy) to dL/dx, accumulating parameter grads.
  ///
  /// Only defined after a `Forward(x, /*training=*/true)` call: the inference
  /// paths (`Forward(x, false)` and `ForwardInto`) hold zero backward state.
  virtual Tensor Backward(const Tensor& grad_out) = 0;

  /// Inference-only forward into a preallocated view (the planned execution
  /// path — see nn/inference.h). Never caches backward state and never
  /// allocates in overriding layers (scratch comes from `ctx`). `out` aliases
  /// `x` when `placement()` is kInPlace; for kAlias layers this is never
  /// called. The default implementation materializes the eager
  /// `Forward(x, false)` result — correct for any subclass, just slow.
  virtual void ForwardInto(const TensorView& x, const TensorView& out,
                           InferenceContext& ctx);

  /// Buffer discipline `ForwardInto` follows (drives arena planning).
  virtual InferencePlacement placement() const {
    return InferencePlacement::kNewBuffer;
  }

  /// The layer's trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> Params() { return {}; }

  /// Non-trainable state that must ship with a checkpoint (BatchNorm
  /// running statistics); optimizers never touch these.
  virtual std::vector<Tensor*> Buffers() { return {}; }

  /// Short human-readable description ("conv3x3x16", "dense128").
  virtual std::string name() const = 0;

  /// Multiply-accumulate count of one forward pass at the given input shape —
  /// drives the Fig. 8 compute-cost ablation.
  virtual std::size_t ForwardMacs(const Shape& input_shape) const = 0;

  /// Output shape for a given input shape (batch dimension preserved).
  virtual Shape OutputShape(const Shape& input_shape) const = 0;
};

/// Fully connected layer: y = xW + b over (N, D) inputs.
class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features, Rng& rng);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx) override;
  std::vector<Param*> Params() override { return {&w_, &b_}; }
  std::string name() const override;
  std::size_t ForwardMacs(const Shape& input_shape) const override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  int in_, out_;
  Param w_, b_;
  Tensor cached_x_;
};

class BatchNorm;

/// What a planned Conv2d step runs in the conv kernel's epilogue rather than
/// as steps of its own: the layers an InferencePlan absorbs after it, or a
/// ResNetBlock's tail.
struct ConvTail {
  /// Folded into epilogue.scale and .shift on every run, never once at plan
  /// time: training steps between runs would leave a plan-time fold stale.
  const BatchNorm* bn = nullptr;
  /// The residual and activation; scale and shift stay null here.
  tensor::ConvEpilogue epilogue;
};

/// 2-D convolution layer over NHWC inputs.
class Conv2d final : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         Rng& rng);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx) override;
  /// The conv with `tail` applied in its kernel. Needs ctx.scratch when the
  /// tail has a BatchNorm.
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx, const ConvTail& tail);
  std::vector<Param*> Params() override { return {&w_, &b_}; }
  std::string name() const override;
  std::size_t ForwardMacs(const Shape& input_shape) const override;
  Shape OutputShape(const Shape& input_shape) const override;

  int stride() const { return stride_; }
  int pad() const { return pad_; }

 private:
  int cin_, cout_, k_, stride_, pad_;
  Param w_, b_;
  Tensor cached_x_;
};

/// Max pooling (square window, no padding).
class MaxPool2d final : public Layer {
 public:
  MaxPool2d(int k, int stride) : k_(k), stride_(stride) {}

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx) override;
  std::string name() const override;
  std::size_t ForwardMacs(const Shape& input_shape) const override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  int k_, stride_;
  Shape cached_in_shape_;
  tensor::MaxPoolResult cached_;
};

/// Global average pooling: NHWC -> (N, C).
class GlobalAvgPool final : public Layer {
 public:
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx) override;
  std::string name() const override { return "gap"; }
  std::size_t ForwardMacs(const Shape& input_shape) const override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  Shape cached_in_shape_;
};

/// Reshapes NHWC to (N, H*W*C).
class Flatten final : public Layer {
 public:
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  InferencePlacement placement() const override {
    return InferencePlacement::kAlias;
  }
  std::string name() const override { return "flatten"; }
  std::size_t ForwardMacs(const Shape&) const override { return 0; }
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  Shape cached_in_shape_;
};

enum class ActKind { kRelu, kLeakyRelu, kSigmoid, kTanh };

/// Elementwise activation.
class Activation final : public Layer {
 public:
  explicit Activation(ActKind kind, float alpha = 0.1f)
      : kind_(kind), alpha_(alpha) {}

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx) override;
  InferencePlacement placement() const override {
    return InferencePlacement::kInPlace;
  }
  std::string name() const override;
  std::size_t ForwardMacs(const Shape&) const override { return 0; }
  Shape OutputShape(const Shape& input_shape) const override {
    return input_shape;
  }

  ActKind kind() const { return kind_; }
  float alpha() const { return alpha_; }

 private:
  ActKind kind_;
  float alpha_;
  Tensor cached_;  // input for (leaky)relu, output for sigmoid/tanh
};

/// Batch normalization over the trailing (channel/feature) dimension.
///
/// Works for both (N, C) and NHWC inputs; maintains running statistics for
/// inference, per the usual momentum update.
class BatchNorm final : public Layer {
 public:
  explicit BatchNorm(int channels, float momentum = 0.9f, float eps = 1e-5f);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx) override;
  InferencePlacement placement() const override {
    return InferencePlacement::kInPlace;
  }
  std::vector<Param*> Params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> Buffers() override {
    return {&running_mean_, &running_var_};
  }
  std::string name() const override;
  std::size_t ForwardMacs(const Shape& input_shape) const override;
  Shape OutputShape(const Shape& input_shape) const override {
    return input_shape;
  }

  std::span<const float> running_mean() const { return running_mean_.data(); }
  std::span<const float> running_var() const { return running_var_.data(); }

  /// The inference affine, y = x * scale + shift per channel, from the
  /// current parameters and running statistics (c floats each).
  void FoldScaleShift(std::span<float> scale, std::span<float> shift) const;

 private:
  /// Eager-materializing fallback when no scratch arena is bound (heap
  /// scale/shift) — kept out of the METRO_NOALLOC hot path.
  void ForwardIntoNoScratch(const TensorView& x, const TensorView& out);

  int c_;
  float momentum_, eps_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  // Saved batch statistics and normalized input for backward.
  Tensor cached_xhat_;
  std::vector<float> batch_mean_, batch_inv_std_;
  std::size_t rows_ = 0;
};

/// Inverted dropout; identity at inference.
class Dropout final : public Layer {
 public:
  Dropout(float rate, Rng& rng) : rate_(rate), rng_(&rng) {}

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  InferencePlacement placement() const override {
    // Identity at inference: the planned path skips it entirely.
    return InferencePlacement::kAlias;
  }
  std::string name() const override;
  std::size_t ForwardMacs(const Shape&) const override { return 0; }
  Shape OutputShape(const Shape& input_shape) const override {
    return input_shape;
  }

 private:
  float rate_;
  Rng* rng_;
  std::vector<float> mask_;
};

}  // namespace metro::nn
