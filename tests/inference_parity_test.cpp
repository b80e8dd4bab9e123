// Bit-exactness parity suite for the planned inference engine.
//
// The eager path `Forward(x, /*training=*/false)` is the oracle: every
// planned session / *Into kernel below must reproduce it bit-for-bit
// (compared with memcmp, not near). Also covers the arena lifecycle —
// steady-state runs must not grow the workspace — and transparent
// replanning across batch sizes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "apps/vehicle_app.h"
#include "datagen/video.h"
#include "nn/inference.h"
#include "nn/sequential.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/thread_pool.h"
#include "zoo/behavior.h"
#include "zoo/cca.h"
#include "zoo/detector.h"
#include "zoo/fusion.h"
#include "zoo/inception.h"
#include "zoo/resnet_block.h"
#include "zoo/session.h"

namespace metro {
namespace {

using nn::Tensor;
using tensor::TensorView;
using tensor::Workspace;

// Compares bytes, so -0 against +0 and a changed NaN payload are
// mismatches too (float equality would pass the first and fail any NaN).
void ExpectBitExact(const Tensor& expected, const TensorView& actual) {
  ASSERT_EQ(expected.shape(), actual.shape());
  const auto d = actual.data();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const float e = expected[i];
    ASSERT_EQ(std::memcmp(&e, &d[i], sizeof e), 0)
        << "bit mismatch at index " << i << ": eager " << e << ", planned "
        << d[i];
  }
}

void ExpectBitExact(const Tensor& expected, const Tensor& actual) {
  ExpectBitExact(expected, TensorView::OfConst(actual));
}

Tensor RandomInput(const nn::Shape& shape, Rng& rng) {
  Tensor x(shape);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.UniformFloat(-1.0f, 1.0f);
  }
  return x;
}

// ------------------------------------------------- SIMD kernels vs. eager

// Each pass draws a fresh seeded case (Dali's EXPERIMENT_REPEAT idiom).
constexpr int kExperimentRepeats = 200;
#define EXPERIMENT_REPEAT \
  for (int repetition = 0; repetition < kExperimentRepeats; ++repetition)

float FromBits(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

// A uniform value in [-2, 2) or, one time in three, a value the SIMD
// selects and maxima must carry through exactly: signed zeros, NaNs with
// payloads and either sign, infinities and denormals.
float DrawSpecialOrUniform(Rng& rng) {
  static const float kSpecials[] = {
      0.0f,
      -0.0f,
      FromBits(0x7fc00000u),  // quiet NaN
      FromBits(0x7fc0abcdu),  // quiet NaN, payload
      FromBits(0xffc01234u),  // negative quiet NaN, payload
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      FromBits(0x00400000u),  // mid-range denormal
      FromBits(0x80400000u),  // negative mid-range denormal
      -std::numeric_limits<float>::min(),  // alpha * this is denormal
  };
  constexpr std::size_t kCount = sizeof(kSpecials) / sizeof(kSpecials[0]);
  if (rng.UniformU64(3) == 0) return kSpecials[rng.UniformU64(kCount)];
  return rng.UniformFloat(-2.0f, 2.0f);
}

Tensor SpecialInput(const nn::Shape& shape, Rng& rng) {
  Tensor x(shape);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = DrawSpecialOrUniform(rng);
  return x;
}

TEST(InferenceParityTest, LeakyReluIntoIsBitExactOnSpecialValues) {
  Rng rng(1401);
  EXPERIMENT_REPEAT {
    // Odd dims make the element count odd, so the SIMD body always ends
    // in a scalar tail.
    const int n = 1;
    const int h = 2 * int(rng.UniformInt(0, 4)) + 1;
    const int w = 2 * int(rng.UniformInt(0, 4)) + 1;
    const int c = 2 * int(rng.UniformInt(0, 8)) + 1;  // 1..17
    const float alpha =
        rng.Bernoulli(0.5) ? 0.1f : rng.UniformFloat(0.0f, 1.0f);
    const Tensor x = SpecialInput({n, h, w, c}, rng);
    ASSERT_NE(x.size() % 4, 0u);

    const Tensor eager = tensor::LeakyReluForward(x, alpha);

    Tensor out(x.shape());
    tensor::LeakyReluInto(TensorView::OfConst(x), TensorView(out), alpha);
    ExpectBitExact(eager, out);

    // The plan's kInPlace step: `out` aliases `x`.
    Tensor in_place = x;
    TensorView view(in_place);
    tensor::LeakyReluInto(view, view, alpha);
    ExpectBitExact(eager, in_place);
  }
}

TEST(InferenceParityTest, MaxPool2dForwardIntoIsBitExactOnSpecialValues) {
  Rng rng(1402);
  EXPERIMENT_REPEAT {
    const int k = rng.Bernoulli(0.5) ? 3 : 2, stride = 2;
    const int n = int(rng.UniformInt(1, 2));
    const int h = int(rng.UniformInt(k, 9));
    const int w = int(rng.UniformInt(k, 9));
    const int c = int(rng.UniformInt(1, 17));
    Tensor x = SpecialInput({n, h, w, c}, rng);
    // A +0/-0 tie filling the first window of every channel: -0 then +0s
    // on even channels, +0 then -0s on odd ones. The eager kernel keeps the
    // first tap, so the output sign shows which operand a max returned.
    for (int ch = 0; ch < c; ++ch) {
      for (int ky = 0; ky < k; ++ky) {
        for (int kx = 0; kx < k; ++kx) {
          const bool first = ky == 0 && kx == 0;
          const bool negative = (ch % 2 == 0) == first;
          x[(std::size_t(ky) * w + kx) * c + ch] = negative ? -0.0f : 0.0f;
        }
      }
    }

    const Tensor eager = tensor::MaxPool2dForward(x, k, stride).output;

    Tensor out(eager.shape());
    tensor::MaxPool2dForwardInto(TensorView::OfConst(x), k, stride,
                                 TensorView(out));
    ExpectBitExact(eager, out);
  }
}

// The planned conv kernel runs interior pixels in register blocks that add
// every tap, and single pixels that skip `iv == 0` taps as the eager kernel
// does; a block may only run where none of its taps is +-0. So the inputs
// scatter +-0, zero whole bands of rows (a -0 bias must survive there) and
// zero one input channel whose weight rows hold +-inf and NaN: one product
// of those that is not skipped turns an output into NaN.
TEST(InferenceParityTest, Conv2dForwardIntoIsBitExactOnSpecialValues) {
  Rng rng(1501);
  ThreadPool pool(2);
  const int lanes = tensor::detail::ConvKernelLanes();
  const int kCouts[] = {4, 8, 12, 13, 16, 20, 24, 32, 136};
  const float kDenormals[] = {std::numeric_limits<float>::denorm_min(),
                              -std::numeric_limits<float>::denorm_min(),
                              FromBits(0x00400000u), FromBits(0x80400000u)};
  const float kPoison[] = {std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           FromBits(0x7fc00000u), FromBits(0xffc01234u)};
  EXPERIMENT_REPEAT {
    const int k = 2 * int(rng.UniformInt(0, 2)) + 1;  // 1, 3, 5
    const int stride = int(rng.UniformInt(1, 2));
    const int pad = int(rng.UniformInt(0, 2));
    const int n = int(rng.UniformInt(1, 3));
    const int cin = int(rng.UniformInt(1, 13));
    const int cout = kCouts[rng.UniformU64(std::size(kCouts))];
    // Down to one output column: narrower than any register block.
    const int min_hw = std::max(1, k - 2 * pad);
    const int h = int(rng.UniformInt(min_hw, min_hw + 8));
    const int w = int(rng.UniformInt(min_hw, min_hw + 12));

    Tensor x({n, h, w, cin});
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::uint64_t pick = rng.UniformU64(16);
      x[i] = pick == 0   ? 0.0f
             : pick == 1 ? -0.0f
             : pick == 2 ? kDenormals[rng.UniformU64(std::size(kDenormals))]
                         : rng.UniformFloat(-2.0f, 2.0f);
    }
    if (rng.Bernoulli(0.5)) {
      const int band = int(rng.UniformInt(1, std::min(h, k)));
      const int y0 = int(rng.UniformInt(0, h - band));
      const int b = int(rng.UniformInt(0, n - 1));
      for (int y = y0; y < y0 + band; ++y) {
        for (int i = 0; i < w * cin; ++i) {
          x[(std::size_t(b) * h + y) * w * cin + i] =
              rng.Bernoulli(0.5) ? 0.0f : -0.0f;
        }
      }
    }

    Tensor wts({k, k, cin, cout});
    for (std::size_t i = 0; i < wts.size(); ++i) {
      wts[i] = rng.UniformU64(16) == 0
                   ? kDenormals[rng.UniformU64(std::size(kDenormals))]
                   : rng.UniformFloat(-1.0f, 1.0f);
    }
    if (cin > 1 && rng.Bernoulli(0.5)) {
      const int dead = int(rng.UniformInt(0, cin - 1));
      for (std::size_t px = 0; px < x.size() / cin; ++px) {
        x[px * cin + dead] = rng.Bernoulli(0.5) ? 0.0f : -0.0f;
      }
      for (int tap = 0; tap < k * k; ++tap) {
        for (int oc = 0; oc < cout; ++oc) {
          wts[(std::size_t(tap) * cin + dead) * cout + oc] =
              kPoison[rng.UniformU64(std::size(kPoison))];
        }
      }
    }

    Tensor bias;
    if (!rng.Bernoulli(0.25)) {
      bias = Tensor({cout});
      const bool all_negative_zero = rng.Bernoulli(0.5);
      for (int oc = 0; oc < cout; ++oc) {
        bias[oc] = all_negative_zero || rng.Bernoulli(0.25)
                       ? -0.0f
                       : rng.UniformFloat(-1.0f, 1.0f);
      }
    }

    SCOPED_TRACE(::testing::Message()
                 << "n=" << n << " h=" << h << " w=" << w << " cin=" << cin
                 << " cout=" << cout << " k=" << k << " stride=" << stride
                 << " pad=" << pad << " repetition=" << repetition);
    const Tensor eager = tensor::Conv2dForward(x, wts, bias, stride, pad);
    Tensor out(eager.shape());
    tensor::Conv2dForwardInto(TensorView::OfConst(x), wts, bias, stride, pad,
                              TensorView(out), &pool);
    ExpectBitExact(eager, out);
    // Both instantiations, whichever one Conv2dForwardInto picked.
    for (const int at : {4, 8}) {
      if (at > lanes) continue;
      Tensor out_at(eager.shape());
      tensor::detail::Conv2dForwardIntoAtLanes(
          at, TensorView::OfConst(x), wts, bias, stride, pad,
          TensorView(out_at));
      SCOPED_TRACE(::testing::Message() << "lanes=" << at);
      ExpectBitExact(eager, out_at);
    }
  }
}

TEST(InferenceParityTest, BatchNormInferenceIntoIsBitExactOnSpecialValues) {
  Rng rng(1502);
  EXPERIMENT_REPEAT {
    const int c = int(rng.UniformInt(1, 17));  // every four-lane remainder
    const int rows = int(rng.UniformInt(1, 9));
    nn::BatchNorm bn(c);
    Tensor& gamma = bn.Params()[0]->value;
    Tensor& beta = bn.Params()[1]->value;
    Tensor& mean = *bn.Buffers()[0];
    Tensor& var = *bn.Buffers()[1];
    for (int ch = 0; ch < c; ++ch) {
      gamma[ch] = rng.UniformFloat(-2.0f, 2.0f);
      beta[ch] = rng.Bernoulli(0.25) ? -0.0f : rng.UniformFloat(-1.0f, 1.0f);
      mean[ch] = rng.UniformFloat(-1.0f, 1.0f);
      var[ch] = rng.UniformFloat(0.0f, 2.0f);
    }
    const Tensor x = SpecialInput({rows, c}, rng);

    const Tensor eager = bn.Forward(x, /*training=*/false);

    std::vector<float> scale(std::size_t(c), 0.0f), shift(std::size_t(c), 0.0f);
    tensor::BatchNormFoldScaleShift(gamma.data(), beta.data(), mean.data(),
                                    var.data(), 1e-5f, scale, shift);
    Tensor out(x.shape());
    tensor::BatchNormInferenceInto(TensorView::OfConst(x), scale, shift,
                                   TensorView(out));
    ExpectBitExact(eager, out);

    // The plan's kInPlace step: `out` aliases `x`.
    Tensor in_place = x;
    TensorView view(in_place);
    tensor::BatchNormInferenceInto(view, scale, shift, view);
    ExpectBitExact(eager, in_place);
  }
}

// A value DrawSpecialOrUniform draws, except NaN, and except +-inf too
// unless `inf` is set. Where two NaNs meet in one operation, IEEE 754 does
// not say whose payload the result carries: x86 keeps the first operand's,
// and the compiler may swap the operands of an add or a multiply, in the
// eager loops as in the kernels. So the sweeps below let NaN (or an inf
// that can make one) enter each output's chain of operations at one place
// only; a NaN that arises then travels alone, and its bits are defined.
float DrawNonNan(Rng& rng, bool inf) {
  float v;
  do {
    v = DrawSpecialOrUniform(rng);
  } while (std::isnan(v) || (!inf && std::isinf(v)));
  return v;
}

Tensor NonNanInput(const nn::Shape& shape, Rng& rng, bool inf) {
  Tensor x(shape);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = DrawNonNan(rng, inf);
  return x;
}

// The eager layers a ConvEpilogue stands for, one after the other on the
// eager conv's output: BatchNorm's inference loop, the residual add, then
// the activation.
Tensor EagerEpilogue(Tensor y, const std::vector<float>& scale,
                     const std::vector<float>& shift, const Tensor* residual,
                     tensor::ConvAct act, float alpha) {
  const std::size_t c = std::size_t(y.dim(3));
  if (!scale.empty()) {
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = y[i] * scale[i % c] + shift[i % c];
    }
  }
  if (residual) y += *residual;
  switch (act) {
    case tensor::ConvAct::kNone: return y;
    case tensor::ConvAct::kRelu: return tensor::ReluForward(y);
    case tensor::ConvAct::kLeakyRelu: return tensor::LeakyReluForward(y, alpha);
  }
  return y;
}

// Every epilogue combination on every kernel width: each zoo width, 20 (the
// generic kernel) and 136 (past the generic kernel's accumulator block), at
// both lane widths and on a 2-thread pool. The affine factors, the
// residual and the inputs carry the values the selects and the separate
// roundings must keep: +-0 (a -0 shift, zeroed row bands), denormals, and
// NaN and +-inf in one epilogue operand per case (see DrawNonNan).
TEST(InferenceParityTest, Conv2dEpilogueIsBitExactOnSpecialValues) {
  Rng rng(1601);
  ThreadPool pool(2);
  const int lanes = tensor::detail::ConvKernelLanes();
  const int kCouts[] = {4, 8, 12, 13, 16, 20, 24, 32, 136};
  const tensor::ConvAct kActs[] = {tensor::ConvAct::kNone,
                                   tensor::ConvAct::kRelu,
                                   tensor::ConvAct::kLeakyRelu};
  EXPERIMENT_REPEAT {
    const int k = rng.Bernoulli(0.5) ? 3 : 1;
    const int stride = int(rng.UniformInt(1, 2));
    const int pad = int(rng.UniformInt(0, 1));
    const int n = int(rng.UniformInt(1, 6));
    const int cin = int(rng.UniformInt(1, 9));
    const int cout = kCouts[rng.UniformU64(std::size(kCouts))];
    const int min_hw = std::max(1, k - 2 * pad);
    const int h = int(rng.UniformInt(min_hw, min_hw + 7));
    const int w = int(rng.UniformInt(min_hw, min_hw + 11));

    Tensor x = NonNanInput({n, h, w, cin}, rng, /*inf=*/false);
    if (rng.Bernoulli(0.5)) {
      const int band = int(rng.UniformInt(1, std::min(h, 3)));
      const int y0 = int(rng.UniformInt(0, h - band));
      const int b = int(rng.UniformInt(0, n - 1));
      for (int y = y0; y < y0 + band; ++y) {
        for (int i = 0; i < w * cin; ++i) {
          x[(std::size_t(b) * h + y) * w * cin + i] =
              rng.Bernoulli(0.5) ? 0.0f : -0.0f;
        }
      }
    }
    const Tensor wts = RandomInput({k, k, cin, cout}, rng);
    Tensor bias({cout});
    for (int oc = 0; oc < cout; ++oc) {
      bias[oc] = rng.Bernoulli(0.25) ? -0.0f : rng.UniformFloat(-1.0f, 1.0f);
    }

    const tensor::ConvAct act = kActs[rng.UniformU64(std::size(kActs))];
    const float alpha = rng.Bernoulli(0.5) ? 0.1f : rng.UniformFloat(0, 1);
    // Which of scale, shift and residual may hold NaN and +-inf.
    const std::uint64_t hot = rng.UniformU64(3);
    const auto draw = [&](std::uint64_t operand) {
      return operand == hot ? DrawSpecialOrUniform(rng)
                            : DrawNonNan(rng, /*inf=*/false);
    };
    std::vector<float> scale, shift;
    if (rng.Bernoulli(0.7)) {
      for (int oc = 0; oc < cout; ++oc) {
        scale.push_back(rng.Bernoulli(0.2) ? draw(0)
                                           : rng.UniformFloat(-2.0f, 2.0f));
        shift.push_back(rng.Bernoulli(0.3) ? -0.0f : draw(1));
      }
    }
    const Tensor eager_conv = tensor::Conv2dForward(x, wts, bias, stride, pad);
    Tensor residual;
    const bool with_residual = rng.Bernoulli(0.5);
    if (with_residual) {
      residual = Tensor(eager_conv.shape());
      for (std::size_t i = 0; i < residual.size(); ++i) residual[i] = draw(2);
    }

    tensor::ConvEpilogue epilogue;
    if (!scale.empty()) {
      epilogue.scale = scale.data();
      epilogue.shift = shift.data();
    }
    epilogue.residual = with_residual ? residual.data().data() : nullptr;
    epilogue.act = act;
    epilogue.alpha = alpha;

    SCOPED_TRACE(::testing::Message()
                 << "n=" << n << " h=" << h << " w=" << w << " cin=" << cin
                 << " cout=" << cout << " k=" << k << " stride=" << stride
                 << " pad=" << pad << " affine=" << !scale.empty()
                 << " residual=" << with_residual << " act=" << int(act)
                 << " repetition=" << repetition);
    const Tensor eager =
        EagerEpilogue(eager_conv, scale, shift,
                      with_residual ? &residual : nullptr, act, alpha);
    Tensor out(eager.shape());
    tensor::Conv2dForwardInto(TensorView::OfConst(x), wts, bias, stride, pad,
                              TensorView(out), &pool, epilogue);
    ExpectBitExact(eager, out);
    for (const int at : {4, 8}) {
      if (at > lanes) continue;
      SCOPED_TRACE(::testing::Message() << "lanes=" << at);
      Tensor out_at(eager.shape());
      tensor::detail::Conv2dForwardIntoAtLanes(
          at, TensorView::OfConst(x), wts, bias, stride, pad,
          TensorView(out_at), nullptr, epilogue);
      ExpectBitExact(eager, out_at);
    }
  }
}

// Draws BatchNorm parameters and running statistics, -0 betas included.
void RandomizeBatchNorm(nn::BatchNorm& bn, Rng& rng) {
  Tensor& gamma = bn.Params()[0]->value;
  Tensor& beta = bn.Params()[1]->value;
  Tensor& mean = *bn.Buffers()[0];
  Tensor& var = *bn.Buffers()[1];
  for (std::size_t ch = 0; ch < gamma.size(); ++ch) {
    gamma[ch] = rng.UniformFloat(-2.0f, 2.0f);
    beta[ch] = rng.Bernoulli(0.25) ? -0.0f : rng.UniformFloat(-1.0f, 1.0f);
    mean[ch] = rng.UniformFloat(-1.0f, 1.0f);
    var[ch] = rng.UniformFloat(0.0f, 2.0f);
  }
}

// The planner's fusion against the eager layer stack: conv -> [BN] ->
// [ReLU | LeakyReLU | Sigmoid] -> [2x2 pool, odd heights too] -> conv, so
// the fused step feeds a second conv and the sigmoid ends a chain early.
// The inputs hold +-inf, whose sums make NaNs, but no NaN of their own.
TEST(InferenceParityTest, PlannedConvChainsMatchEager) {
  Rng rng(1602);
  ThreadPool pool(2);
  const int kCouts[] = {4, 8, 12, 13, 16, 20, 24, 32};
  EXPERIMENT_REPEAT {
    const int cin = int(rng.UniformInt(1, 8));
    const int cout = kCouts[rng.UniformU64(std::size(kCouts))];
    const int k = rng.Bernoulli(0.5) ? 3 : 1;
    const int stride = int(rng.UniformInt(1, 2));
    const int pad = k == 3 ? int(rng.UniformInt(0, 1)) : 0;
    const int n = int(rng.UniformInt(1, 6));
    // At least two conv output rows and columns for the pool.
    const int h = int(rng.UniformInt(5, 11));
    const int w = int(rng.UniformInt(5, 11));
    nn::Sequential model;
    model.Emplace<nn::Conv2d>(cin, cout, k, stride, pad, rng);
    if (rng.Bernoulli(0.7)) {
      model.Emplace<nn::BatchNorm>(cout);
      RandomizeBatchNorm(
          static_cast<nn::BatchNorm&>(model.layer(model.num_layers() - 1)),
          rng);
    }
    switch (rng.UniformU64(4)) {
      case 0: model.Emplace<nn::Activation>(nn::ActKind::kRelu); break;
      case 1:
        model.Emplace<nn::Activation>(nn::ActKind::kLeakyRelu,
                                      rng.UniformFloat(0.0f, 1.0f));
        break;
      case 2: model.Emplace<nn::Activation>(nn::ActKind::kSigmoid); break;
      default: break;
    }
    if (rng.Bernoulli(0.5)) model.Emplace<nn::MaxPool2d>(2, 2);
    model.Emplace<nn::Conv2d>(cout, 4, 1, 1, 0, rng);
    const Tensor x = NonNanInput({n, h, w, cin}, rng, /*inf=*/true);

    SCOPED_TRACE(::testing::Message() << "layers=" << model.num_layers()
                                      << " n=" << n << " h=" << h
                                      << " cout=" << cout
                                      << " repetition=" << repetition);
    const Tensor eager = model.Forward(x, /*training=*/false);
    Workspace arena;
    nn::InferenceSession session(model, x.shape(), arena,
                                 rng.Bernoulli(0.5) ? &pool : nullptr);
    ExpectBitExact(eager, session.Run(TensorView::OfConst(x)));
  }
}

// The residual epilogue from each shortcut: a 1x1 conv's map, the block
// input itself, and a max-pooled input whose zero-padded channels add +0.
// The inputs hold +-inf but no NaN, as above.
TEST(InferenceParityTest, ResNetBlockFusedTailIsBitExactOnSpecialValues) {
  Rng rng(1603);
  ThreadPool pool(2);
  EXPERIMENT_REPEAT {
    const auto kind = static_cast<zoo::ShortcutKind>(rng.UniformU64(3));
    const bool identity = kind == zoo::ShortcutKind::kIdentity;
    const int cin = int(rng.UniformInt(1, 8));
    const int cout = identity ? cin : cin + int(rng.UniformInt(0, 9));
    const int stride = identity ? 1 : int(rng.UniformInt(1, 2));
    const int n = int(rng.UniformInt(1, 6));
    int h = int(rng.UniformInt(2, 9)), w = int(rng.UniformInt(2, 9));
    if (kind == zoo::ShortcutKind::kMaxPool && stride == 2) {
      h += h % 2;  // the pooled shortcut matches conv1 on even sizes only
      w += w % 2;
    }
    zoo::ResNetBlock block(cin, cout, stride, kind, rng);
    for (Tensor* buf : block.Buffers()) {
      for (std::size_t i = 0; i < buf->size(); ++i) {
        (*buf)[i] = rng.UniformFloat(0.0f, 1.0f);  // means and variances
      }
    }
    for (nn::Param* param : block.Params()) {
      if (param->name == "beta" || param->name == "b") {
        for (std::size_t i = 0; i < param->value.size(); ++i) {
          if (rng.Bernoulli(0.3)) param->value[i] = -0.0f;
        }
      }
    }
    const Tensor x = NonNanInput({n, h, w, cin}, rng, /*inf=*/true);

    SCOPED_TRACE(::testing::Message()
                 << "shortcut=" << int(kind) << " cin=" << cin
                 << " cout=" << cout << " stride=" << stride << " n=" << n
                 << " h=" << h << " w=" << w << " repetition=" << repetition);
    const Tensor eager = block.Forward(x, /*training=*/false);
    Workspace arena;
    nn::InferenceSession session(std::vector<nn::Layer*>{&block}, x.shape(),
                                 arena, rng.Bernoulli(0.5) ? &pool : nullptr);
    ExpectBitExact(eager, session.Run(TensorView::OfConst(x)));
  }
}

// What the planner fuses: each conv absorbs the BatchNorm and ReLU or
// LeakyReLU right after it, and nothing past another layer.
TEST(InferenceParityTest, PlanFusesConvChains) {
  Rng rng(1604);
  zoo::DetectorConfig config;
  zoo::SplitDetector det(config, rng);
  const nn::InferencePlan stem = nn::InferencePlan::For(
      det.stem_net(),
      {1, config.image_size, config.image_size, config.channels});
  // conv+bn+lrelu, pool, conv+bn+lrelu, pool: four steps for eight layers.
  ASSERT_EQ(det.stem_net().num_layers(), 8u);
  ASSERT_EQ(stem.steps().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& step = stem.steps()[i];
    EXPECT_EQ(step.kind, nn::InferencePlan::ExecKind::kCompute);
    EXPECT_EQ(step.absorbed, i % 2 == 0 ? 2 : 0);
    EXPECT_EQ(dynamic_cast<nn::Conv2d*>(step.layer) != nullptr, i % 2 == 0);
  }
  EXPECT_EQ(stem.steps()[0].tail.epilogue.act, tensor::ConvAct::kLeakyRelu);
  EXPECT_EQ(stem.output_shape(), det.stem_net().OutputShape(
                                     stem.input_shape()));

  const nn::Shape stem_out = stem.output_shape();
  EXPECT_EQ(nn::InferencePlan::For(det.full_head_net(), stem_out)
                .steps()
                .size(),
            4u);  // 8 layers
  EXPECT_EQ(nn::InferencePlan::For(det.tiny_head_net(), stem_out)
                .steps()
                .size(),
            2u);  // conv+lrelu, conv

  // Broken chains: a dropout between conv and BN stops the BN, a sigmoid
  // is not an epilogue activation, and a BN after the activation is not
  // the conv's.
  nn::Sequential broken;
  broken.Emplace<nn::Conv2d>(3, 4, 3, 1, 1, rng)
      .Emplace<nn::Dropout>(0.5f, rng)
      .Emplace<nn::BatchNorm>(4)
      .Emplace<nn::Conv2d>(4, 4, 3, 1, 1, rng)
      .Emplace<nn::BatchNorm>(4)
      .Emplace<nn::Activation>(nn::ActKind::kSigmoid)
      .Emplace<nn::Conv2d>(4, 4, 1, 1, 0, rng)
      .Emplace<nn::Activation>(nn::ActKind::kRelu)
      .Emplace<nn::BatchNorm>(4);
  const nn::InferencePlan plan = nn::InferencePlan::For(broken, {2, 6, 6, 3});
  std::vector<int> absorbed;
  for (const auto& step : plan.steps()) {
    if (dynamic_cast<nn::Conv2d*>(step.layer)) {
      absorbed.push_back(step.absorbed);
    }
  }
  EXPECT_EQ(absorbed, (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(plan.steps().size(), 7u);

  Tensor x = NonNanInput({2, 6, 6, 3}, rng, /*inf=*/true);
  Workspace arena;
  nn::InferenceSession session(broken, x.shape(), arena);
  ExpectBitExact(broken.Forward(x, false), session.Run(TensorView::OfConst(x)));
}

// ------------------------------------------------------------ single layers

TEST(InferenceParityTest, ResNetBlockAllShortcuts) {
  for (auto kind : {zoo::ShortcutKind::kConv, zoo::ShortcutKind::kIdentity,
                    zoo::ShortcutKind::kMaxPool}) {
    Rng rng(100 + static_cast<int>(kind));
    const int cin = kind == zoo::ShortcutKind::kIdentity ? 6 : 4;
    const int cout = 6;
    const int stride = kind == zoo::ShortcutKind::kIdentity ? 1 : 2;
    zoo::ResNetBlock block(cin, cout, stride, kind, rng);
    Tensor x = RandomInput({2, 8, 8, cin}, rng);

    const Tensor eager = block.Forward(x, false);

    Workspace arena;
    nn::InferenceSession session(std::vector<nn::Layer*>{&block}, x.shape(),
                                 arena);
    ExpectBitExact(eager, session.Run(TensorView::OfConst(x)));
  }
}

TEST(InferenceParityTest, InceptionBlock) {
  Rng rng(7);
  zoo::InceptionConfig config;
  zoo::InceptionBlock block(3, config, rng);
  Tensor x = RandomInput({2, 6, 6, 3}, rng);

  const Tensor eager = block.Forward(x, false);

  Workspace arena;
  nn::InferenceSession session(std::vector<nn::Layer*>{&block}, x.shape(),
                               arena);
  ExpectBitExact(eager, session.Run(TensorView::OfConst(x)));
}

TEST(InferenceParityTest, SessionWithThreadPoolIsStillBitExact) {
  Rng rng(8);
  zoo::ResNetBlock block(3, 8, 2, zoo::ShortcutKind::kConv, rng);
  Tensor x = RandomInput({3, 10, 10, 3}, rng);
  const Tensor eager = block.Forward(x, false);

  ThreadPool pool(4);
  Workspace arena;
  nn::InferenceSession session(std::vector<nn::Layer*>{&block}, x.shape(),
                               arena, &pool);
  ExpectBitExact(eager, session.Run(TensorView::OfConst(x)));
}

// -------------------------------------------------------------- arena rules

TEST(InferenceParityTest, SteadyStateRunsDoNotGrowArena) {
  Rng rng(9);
  zoo::InceptionConfig config;
  zoo::InceptionBlock block(3, config, rng);
  Tensor x = RandomInput({2, 6, 6, 3}, rng);

  Workspace arena;
  nn::InferenceSession session(std::vector<nn::Layer*>{&block}, x.shape(),
                               arena);
  session.Run(TensorView::OfConst(x));  // warm-up may grow chunks
  const std::size_t grown = arena.grow_count();
  const std::size_t peak = arena.peak_bytes();
  for (int i = 0; i < 8; ++i) {
    session.Run(TensorView::OfConst(x));
  }
  EXPECT_EQ(arena.grow_count(), grown);
  EXPECT_EQ(arena.peak_bytes(), peak);
  EXPECT_EQ(session.stats().runs, 9);
  EXPECT_EQ(session.stats().replans, 0);
}

TEST(InferenceParityTest, RepeatedRunsStayBitExact) {
  Rng rng(10);
  zoo::ResNetBlock block(4, 8, 2, zoo::ShortcutKind::kMaxPool, rng);
  Tensor x = RandomInput({2, 8, 8, 4}, rng);
  const Tensor eager = block.Forward(x, false);

  Workspace arena;
  nn::InferenceSession session(std::vector<nn::Layer*>{&block}, x.shape(),
                               arena);
  for (int i = 0; i < 4; ++i) {
    ExpectBitExact(eager, session.Run(TensorView::OfConst(x)));
  }
}

TEST(InferenceParityTest, BatchSizeChangeReplansTransparently) {
  Rng rng(11);
  zoo::ResNetBlock block(3, 6, 1, zoo::ShortcutKind::kConv, rng);

  Workspace arena;
  nn::InferenceSession session(std::vector<nn::Layer*>{&block}, {1, 8, 8, 3},
                               arena);
  for (int batch : {1, 3, 2, 3}) {
    Tensor x = RandomInput({batch, 8, 8, 3}, rng);
    const Tensor eager = block.Forward(x, false);
    ExpectBitExact(eager, session.Run(TensorView::OfConst(x)));
  }
  EXPECT_EQ(session.stats().runs, 4);
  // 1 -> 3 -> 2 -> 3 changed shape three times.
  EXPECT_EQ(session.stats().replans, 3);
}

// ------------------------------------------------------------- zoo sessions

TEST(InferenceParityTest, DetectorHalvesMatchEager) {
  Rng rng(12);
  zoo::DetectorConfig config;
  zoo::SplitDetector det(config, rng);
  datagen::VehicleFrameGenerator gen(config, 99);
  auto [images, truth] = gen.Batch(2);

  const Tensor stem = det.Stem(images, false);
  const Tensor tiny = det.TinyHead(stem, false);
  const Tensor full = det.FullHead(stem, false);

  Workspace arena;
  zoo::DetectorSession session(det, /*batch=*/2, arena);
  const TensorView stem_v = session.Stem(TensorView::OfConst(images));
  ExpectBitExact(stem, stem_v);
  ExpectBitExact(tiny, session.TinyHead(stem_v));
  ExpectBitExact(full, session.FullHead(stem_v));
}

TEST(InferenceParityTest, DetectorGateMatchesEagerProcessFrame) {
  zoo::DetectorConfig config;
  apps::VehicleDetectionApp app(config, 1234);
  app.Train(6, 4);  // a few steps so confidences are non-degenerate

  datagen::VehicleFrameGenerator& gen = app.generator();
  for (float threshold : {0.0f, 0.4f, 1.01f}) {
    datagen::LabeledFrame frame = gen.Generate();
    const Tensor batch1 = frame.image.Reshape(
        {1, config.image_size, config.image_size, config.channels});

    // Eager oracle re-derived from the halves.
    const Tensor stem = app.detector().Stem(batch1, false);
    const Tensor tiny = app.detector().TinyHead(stem, false);
    const float conf = app.detector().Confidence(tiny, 0);
    const bool offload = conf < threshold;
    const Tensor head = offload ? app.detector().FullHead(stem, false) : tiny;
    const auto expected =
        zoo::Nms(app.detector().Decode(head, 0, 0.1f), 0.4f, 0.1f);

    const apps::FrameResult got = app.ProcessFrame(batch1, threshold);
    EXPECT_EQ(got.offloaded, offload);
    EXPECT_EQ(got.tiny_confidence, conf);
    ASSERT_EQ(got.detections.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got.detections[i].score, expected[i].score);
      EXPECT_EQ(got.detections[i].cls, expected[i].cls);
      EXPECT_EQ(got.detections[i].cx, expected[i].cx);
      EXPECT_EQ(got.detections[i].cy, expected[i].cy);
      EXPECT_EQ(got.detections[i].w, expected[i].w);
      EXPECT_EQ(got.detections[i].h, expected[i].h);
    }
  }
}

TEST(InferenceParityTest, BehaviorLocalAndServerMatchEager) {
  Rng rng(13);
  zoo::BehaviorConfig config;
  zoo::SplitBehaviorNet net(config, rng);
  datagen::BehaviorClipGenerator gen(config, 77);
  const zoo::Clip clip = gen.Generate(1);

  auto eager_local = net.RunLocal(clip);
  const auto eager_server = net.RunServer(eager_local.block1_out);

  Workspace arena;
  zoo::BehaviorSession session(net, /*n_clips=*/1, arena);
  auto local = session.RunLocal(TensorView::OfConst(clip.frames), 1);
  ExpectBitExact(eager_local.logits, local.logits);
  ExpectBitExact(eager_local.block1_out, local.block1_out);
  ASSERT_EQ(local.entropy.size(), 1u);
  EXPECT_EQ(local.entropy.front(), eager_local.entropy);

  const Tensor server_logits = session.ServerLogits(local.block1_out, 1);
  const Tensor server_probs = tensor::Softmax(server_logits);
  ASSERT_EQ(server_probs.size(), eager_server.size());
  for (std::size_t i = 0; i < eager_server.size(); ++i) {
    EXPECT_EQ(server_probs[i], eager_server[i]);
  }
}

TEST(InferenceParityTest, BehaviorPredictMatchesEagerBothExits) {
  Rng rng(14);
  zoo::BehaviorConfig config;
  zoo::SplitBehaviorNet net(config, rng);
  datagen::BehaviorClipGenerator gen(config, 78);

  Workspace arena;
  zoo::BehaviorSession session(net, 1, arena);
  // Threshold 0 forces the server exit; a huge one forces the local exit.
  for (float threshold : {0.0f, 100.0f}) {
    const zoo::Clip clip = gen.Generate();
    const auto expected = net.Predict(clip, threshold);
    const auto got = session.Predict(clip, threshold);
    EXPECT_EQ(got.label, expected.label);
    EXPECT_EQ(got.entropy, expected.entropy);
    EXPECT_EQ(got.used_server, expected.used_server);
    ASSERT_EQ(got.probs.size(), expected.probs.size());
    for (std::size_t i = 0; i < expected.probs.size(); ++i) {
      EXPECT_EQ(got.probs[i], expected.probs[i]);
    }
  }
}

TEST(InferenceParityTest, FusionEncodeDecodeMatchEager) {
  Rng rng(15);
  zoo::FusionConfig config;
  zoo::MultiModalAutoencoder model(config, rng);
  Tensor a = RandomInput({3, config.dim_a}, rng);
  Tensor b = RandomInput({3, config.dim_b}, rng);

  const Tensor eager_code = model.Encode(a, b, false);
  const auto eager_recon = model.Decode(eager_code, false);
  const float eager_err = model.ReconstructionError(a, b);

  Workspace arena;
  zoo::FusionSession session(model, 3, arena);
  const Tensor code =
      session.Encode(TensorView::OfConst(a), TensorView::OfConst(b));
  ExpectBitExact(eager_code, code);
  const auto recon = session.Decode(TensorView::OfConst(code));
  ExpectBitExact(eager_recon.a, recon.a);
  ExpectBitExact(eager_recon.b, recon.b);
  EXPECT_EQ(session.ReconstructionError(a, b), eager_err);
}

TEST(InferenceParityTest, CcaProjectIntoMatchesEager) {
  Rng rng(16);
  const int n = 24, p = 6, q = 4, k = 3;
  Tensor x = RandomInput({n, p}, rng);
  Tensor y = RandomInput({n, q}, rng);
  // Correlate y with x a little so CCA has structure.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < q; ++j) {
      y[std::size_t(i) * q + std::size_t(j)] +=
          0.5f * x[std::size_t(i) * p + std::size_t(j % p)];
    }
  }
  auto fit = zoo::FitCca(x, y, k);
  ASSERT_TRUE(fit.ok());
  const zoo::CcaModel& model = fit.value();

  const Tensor eager_px = zoo::CcaProjectX(model, x);
  const Tensor eager_py = zoo::CcaProjectY(model, y);

  Workspace scratch;
  Tensor px({n, k}), py({n, k});
  zoo::CcaProjectXInto(model, TensorView::OfConst(x), TensorView(px),
                       scratch);
  zoo::CcaProjectYInto(model, TensorView::OfConst(y), TensorView(py),
                       scratch);
  ExpectBitExact(eager_px, px);
  ExpectBitExact(eager_py, py);
  EXPECT_EQ(scratch.live_floats(), 0u);  // scratch rewound on exit
}

TEST(InferenceParityTest, SharedArenaSessionsDoNotClobberCutPoint) {
  Rng rng(17);
  zoo::DetectorConfig config;
  zoo::SplitDetector det(config, rng);
  datagen::VehicleFrameGenerator gen(config, 55);
  auto [images, truth] = gen.Batch(1);

  const Tensor stem = det.Stem(images, false);
  const Tensor tiny = det.TinyHead(stem, false);
  const Tensor full = det.FullHead(stem, false);

  Workspace arena;
  zoo::DetectorSession session(det, 1, arena);
  // Run both heads off the same stem output: the second head's execution
  // must not invalidate either the stem view or the first head's output.
  const TensorView stem_v = session.Stem(TensorView::OfConst(images));
  const TensorView tiny_v = session.TinyHead(stem_v);
  const TensorView full_v = session.FullHead(stem_v);
  ExpectBitExact(stem, stem_v);
  ExpectBitExact(tiny, tiny_v);
  ExpectBitExact(full, full_v);
}

}  // namespace
}  // namespace metro
