// Bit-exactness parity suite for the planned inference engine.
//
// The eager path `Forward(x, /*training=*/false)` is the oracle: every
// planned session / *Into kernel below must reproduce it bit-for-bit
// (compared with memcmp, not near). Also covers the arena lifecycle —
// steady-state runs must not grow the workspace — and transparent
// replanning across batch sizes.

#include <gtest/gtest.h>

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
