// Tests for the paper's model architectures: the Fig. 8 ResNet block (all
// three shortcut variants), the Fig. 5 split detector, the Fig. 7 split
// ResNet+LSTM behavior net, multimodal fusion, CCA, and DQN.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "datagen/video.h"
#include "nn/optimizer.h"
#include "zoo/behavior.h"
#include "zoo/cca.h"
#include "zoo/detector.h"
#include "zoo/dqn.h"
#include "zoo/fusion.h"
#include "zoo/resnet_block.h"

namespace metro::zoo {
namespace {

using nn::Shape;
using nn::Tensor;

// ---------------------------------------------------------------- ResNetBlock

TEST(ResNetBlockTest, OutputShapesAllShortcuts) {
  Rng rng(1);
  for (const ShortcutKind kind :
       {ShortcutKind::kConv, ShortcutKind::kMaxPool}) {
    ResNetBlock block(4, 8, 2, kind, rng);
    Tensor x({2, 8, 8, 4}, 0.5f);
    Tensor y = block.Forward(x, true);
    EXPECT_EQ(y.shape(), (Shape{2, 4, 4, 8})) << block.name();
    EXPECT_EQ(block.OutputShape(x.shape()), y.shape());
  }
  ResNetBlock identity(6, 6, 1, ShortcutKind::kIdentity, rng);
  Tensor x({1, 4, 4, 6}, 0.5f);
  EXPECT_EQ(identity.Forward(x, true).shape(), x.shape());
}

TEST(ResNetBlockTest, ConvShortcutHasMoreParamsThanPool) {
  Rng rng(2);
  ResNetBlock conv_block(4, 8, 2, ShortcutKind::kConv, rng);
  ResNetBlock pool_block(4, 8, 2, ShortcutKind::kMaxPool, rng);
  EXPECT_GT(conv_block.Params().size(), pool_block.Params().size());
  EXPECT_GT(conv_block.ForwardMacs({1, 8, 8, 4}),
            pool_block.ForwardMacs({1, 8, 8, 4}));
}

TEST(ResNetBlockTest, BackwardShapesMatchInput) {
  Rng rng(3);
  for (const ShortcutKind kind :
       {ShortcutKind::kConv, ShortcutKind::kMaxPool}) {
    ResNetBlock block(3, 6, 2, kind, rng);
    Tensor x = Tensor::RandomNormal({2, 8, 8, 3}, 1.0f, rng);
    Tensor y = block.Forward(x, true);
    Tensor grad = block.Backward(Tensor(y.shape(), 1.0f));
    EXPECT_EQ(grad.shape(), x.shape()) << block.name();
    bool any_nonzero = false;
    for (nn::Param* p : block.Params()) {
      for (const float g : p->grad.data()) {
        if (g != 0.0f) any_nonzero = true;
      }
    }
    EXPECT_TRUE(any_nonzero) << block.name();
  }
}

TEST(ResNetBlockTest, GradientCheckConvShortcut) {
  Rng rng(4);
  ResNetBlock block(2, 4, 1, ShortcutKind::kConv, rng);
  Tensor x = Tensor::RandomNormal({1, 4, 4, 2}, 1.0f, rng);
  Tensor y = block.Forward(x, true);
  Tensor probe = Tensor::RandomNormal(y.shape(), 1.0f, rng);
  Tensor grad_in = block.Backward(probe);

  auto loss = [&] {
    Tensor o = block.Forward(x, true);
    double acc = 0;
    for (std::size_t i = 0; i < o.size(); ++i) acc += double(o[i]) * probe[i];
    return acc;
  };
  const float eps = 1e-3f;
  for (const std::size_t idx : {std::size_t{0}, x.size() / 2}) {
    const float saved = x[idx];
    x[idx] = saved + eps;
    const double hi = loss();
    x[idx] = saved - eps;
    const double lo = loss();
    x[idx] = saved;
    EXPECT_NEAR(grad_in[idx], (hi - lo) / (2 * eps), 8e-2);
  }
}

TEST(ResNetBlockTest, TrainsAsClassifierBackbone) {
  // One block + GAP + dense head on a trivial two-class image task:
  // class = bright top half vs bright bottom half.
  Rng rng(5);
  ResNetBlock block(1, 6, 2, ShortcutKind::kConv, rng);
  nn::GlobalAvgPool gap;
  nn::Dense head(6, 2, rng);
  nn::Adam opt(5e-3f);

  auto make = [&rng](int n, Tensor& x, std::vector<int>& labels) {
    x = Tensor({n, 8, 8, 1});
    labels.resize(std::size_t(n));
    for (int i = 0; i < n; ++i) {
      const int cls = int(rng.UniformU64(2));
      labels[std::size_t(i)] = cls;
      for (int r = 0; r < 8; ++r) {
        const bool bright = cls == 0 ? r < 4 : r >= 4;
        for (int c = 0; c < 8; ++c) {
          x[((std::size_t(i) * 8 + r) * 8 + c)] =
              (bright ? 0.9f : 0.1f) + float(rng.Normal(0, 0.05));
        }
      }
    }
  };

  for (int step = 0; step < 60; ++step) {
    Tensor x;
    std::vector<int> labels;
    make(16, x, labels);
    Tensor logits =
        head.Forward(gap.Forward(block.Forward(x, true), true), true);
    auto ce = tensor::CrossEntropyLoss(logits, labels);
    block.Backward(gap.Backward(head.Backward(ce.grad)));
    std::vector<nn::Param*> params = block.Params();
    for (nn::Param* p : head.Params()) params.push_back(p);
    opt.Step(params);
  }

  Tensor x;
  std::vector<int> labels;
  make(64, x, labels);
  auto ce = tensor::CrossEntropyLoss(
      head.Forward(gap.Forward(block.Forward(x, false), false), false),
      labels);
  EXPECT_GT(double(ce.correct) / 64.0, 0.9);
}

// ---------------------------------------------------------------- Detector

TEST(IouTest, KnownOverlaps) {
  Detection a{1.0f, 0, 0.5f, 0.5f, 0.4f, 0.4f};
  EXPECT_NEAR(Iou(a, a), 1.0f, 1e-6f);
  Detection b{1.0f, 0, 0.9f, 0.9f, 0.1f, 0.1f};
  EXPECT_EQ(Iou(a, b), 0.0f);
  Detection c{1.0f, 0, 0.5f, 0.5f, 0.2f, 0.2f};  // inside a
  EXPECT_NEAR(Iou(a, c), (0.2f * 0.2f) / (0.4f * 0.4f), 1e-5f);
}

TEST(NmsTest, SuppressesOverlapsKeepsBest) {
  std::vector<Detection> dets = {
      {0.9f, 0, 0.5f, 0.5f, 0.4f, 0.4f},
      {0.8f, 0, 0.52f, 0.5f, 0.4f, 0.4f},  // overlaps the first
      {0.7f, 1, 0.1f, 0.1f, 0.1f, 0.1f},   // far away
      {0.05f, 2, 0.9f, 0.9f, 0.1f, 0.1f},  // below floor
  };
  const auto kept = Nms(dets, 0.5f, 0.1f);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_FLOAT_EQ(kept[0].score, 0.9f);
  EXPECT_FLOAT_EQ(kept[1].score, 0.7f);
}

TEST(SplitDetectorTest, ShapesAndBytes) {
  Rng rng(6);
  DetectorConfig config;
  SplitDetector det(config, rng);
  Tensor images({2, config.image_size, config.image_size, 3}, 0.3f);
  Tensor stem = det.Stem(images, false);
  Tensor tiny = det.TinyHead(stem, false);
  Tensor full = det.FullHead(stem, false);
  const Shape want{2, config.grid, config.grid, 5 + config.num_classes};
  EXPECT_EQ(tiny.shape(), want);
  EXPECT_EQ(full.shape(), want);
  EXPECT_GT(det.FeatureMapBytes(), 0u);
  // The server half must be heavier than the tiny exit (the offload premise).
  EXPECT_GT(det.FullHeadMacs(1), det.TinyHeadMacs(1));
}

TEST(SplitDetectorTest, LossDecreasesWithTraining) {
  Rng rng(7);
  DetectorConfig config;
  config.num_classes = 4;
  SplitDetector det(config, rng);
  datagen::VehicleFrameGenerator gen(config, 99);
  nn::Adam opt(2e-3f);

  auto [images0, truth0] = gen.Batch(16, 1);
  const float initial =
      det.DetectLoss(det.TinyHead(det.Stem(images0, false), false), truth0)
          .loss;

  float final_loss = 0;
  for (int step = 0; step < 40; ++step) {
    auto [images, truth] = gen.Batch(16, 1);
    final_loss = det.TrainStep(images, truth, opt);
  }
  auto [images1, truth1] = gen.Batch(16, 1);
  const float after =
      det.DetectLoss(det.TinyHead(det.Stem(images1, false), false), truth1)
          .loss;
  EXPECT_LT(after, initial);
  EXPECT_TRUE(std::isfinite(final_loss));
}

TEST(SplitDetectorTest, DecodeConfidenceConsistent) {
  Rng rng(8);
  DetectorConfig config;
  SplitDetector det(config, rng);
  Tensor images({1, config.image_size, config.image_size, 3}, 0.5f);
  Tensor out = det.TinyHead(det.Stem(images, false), false);
  const float conf = det.Confidence(out, 0);
  const auto dets = det.Decode(out, 0, 0.0f);
  float best = 0;
  for (const Detection& d : dets) best = std::max(best, d.score);
  EXPECT_FLOAT_EQ(conf, best);
  for (const Detection& d : dets) {
    EXPECT_GE(d.cx, 0.0f);
    EXPECT_LE(d.cx, 1.0f);
    EXPECT_GE(d.score, 0.0f);
    EXPECT_LE(d.score, 1.0f);
  }
}

TEST(SplitDetectorTest, ConfidenceIsBitExactBestDecodedScore) {
  // The exit gate and the decoder share one per-cell score, so over any
  // finite head output (ties, signed zeros, large logits) Confidence is the
  // best Decode score bit for bit, and tied logits decode to the first class.
  Rng rng(21);
  DetectorConfig config;
  SplitDetector det(config, rng);
  const int depth = 5 + config.num_classes;
  const int cells = config.grid * config.grid;
  const float kPicks[] = {-0.0f, 0.0f, 1.0f, -2.5f, 30.0f};
  for (int trial = 0; trial < 20; ++trial) {
    const int batch = 3;
    std::vector<float> head(std::size_t(batch * cells * depth));
    for (float& v : head) {
      v = rng.Bernoulli(0.5)
              ? kPicks[rng.UniformInt(0, 4)]
              : float(rng.Normal(0.0, 4.0));
    }
    // One cell whose logits all tie at -0 / +0.
    for (int k = 0; k < config.num_classes; ++k) {
      head[std::size_t(5 + k)] = (k % 2 == 0) ? -0.0f : 0.0f;
    }
    for (int b = 0; b < batch; ++b) {
      const auto dets = det.Decode(std::span<const float>(head), b, 0.0f);
      ASSERT_EQ(dets.size(), std::size_t(cells));
      float best = 0.0f;
      for (const Detection& d : dets) best = std::max(best, d.score);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(
                    det.Confidence(std::span<const float>(head), b)),
                std::bit_cast<std::uint32_t>(best))
          << "trial " << trial << " image " << b;
      if (b == 0) {
        EXPECT_EQ(dets[0].cls, 0) << "trial " << trial;
      }
    }
  }
}

TEST(SplitDetectorTest, DetectLossGradientCheck) {
  Rng rng(9);
  DetectorConfig config;
  config.num_classes = 3;
  SplitDetector det(config, rng);
  Tensor head_out = Tensor::RandomNormal(
      {1, config.grid, config.grid, 5 + config.num_classes}, 1.0f, rng);
  std::vector<std::vector<GroundTruthBox>> truth(1);
  truth[0].push_back({1, 0.4f, 0.6f, 0.3f, 0.2f});
  auto res = det.DetectLoss(head_out, truth);
  const float eps = 1e-3f;
  for (const std::size_t idx :
       {std::size_t{0}, head_out.size() / 2, head_out.size() - 1}) {
    Tensor hi = head_out, lo = head_out;
    hi[idx] += eps;
    lo[idx] -= eps;
    const float numeric =
        (det.DetectLoss(hi, truth).loss - det.DetectLoss(lo, truth).loss) /
        (2 * eps);
    EXPECT_NEAR(res.grad[idx], numeric, 2e-3f) << idx;
  }
}

// ---------------------------------------------------------------- Behavior

TEST(SplitBehaviorTest, ShapesAndMacs) {
  Rng rng(10);
  BehaviorConfig config;
  SplitBehaviorNet net(config, rng);
  datagen::BehaviorClipGenerator gen(config, 7);
  const Clip clip = gen.Generate(0);
  auto local = net.RunLocal(clip);
  EXPECT_EQ(local.logits.shape(), (Shape{1, config.num_classes}));
  EXPECT_GT(local.entropy, 0.0f);
  const auto probs = net.RunServer(local.block1_out);
  EXPECT_EQ(int(probs.size()), config.num_classes);
  float sum = 0;
  for (const float p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
  EXPECT_GT(net.ServerMacs(), net.LocalMacs());
  EXPECT_GT(net.FeatureMapBytes(), 0u);
}

TEST(SplitBehaviorTest, TrainingReducesLoss) {
  Rng rng(11);
  BehaviorConfig config;
  config.num_classes = 3;
  SplitBehaviorNet net(config, rng);
  datagen::BehaviorClipGenerator gen(config, 13);
  nn::Adam opt(3e-3f);

  float first = 0, last = 0;
  for (int step = 0; step < 30; ++step) {
    std::vector<Clip> batch;
    for (int i = 0; i < 8; ++i) batch.push_back(gen.Generate(i % 3));
    const float loss = net.TrainStep(batch, opt);
    if (step == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
}

TEST(SplitBehaviorTest, EntropyGateRoutes) {
  Rng rng(12);
  BehaviorConfig config;
  SplitBehaviorNet net(config, rng);
  datagen::BehaviorClipGenerator gen(config, 17);
  const Clip clip = gen.Generate(1);
  // Threshold 0: everything offloads. Threshold ln(classes)+1: nothing does.
  const auto off = net.Predict(clip, 0.0f);
  EXPECT_TRUE(off.used_server);
  const auto local =
      net.Predict(clip, std::log(float(config.num_classes)) + 1);
  EXPECT_FALSE(local.used_server);
}

// ---------------------------------------------------------------- Fusion

TEST(FusionTest, ConcatSplitRoundTrip) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}).Reshape({2, 2});
  Tensor b = Tensor::FromVector({5, 6, 7, 8, 9, 10}).Reshape({2, 3});
  Tensor cat = ConcatCols(a, b);
  EXPECT_EQ(cat.shape(), (Shape{2, 5}));
  auto [a2, b2] = SplitCols(cat, 2);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a2[i], a[i]);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b2[i], b[i]);
}

TEST(FusionTest, AutoencoderLearnsToReconstruct) {
  Rng rng(13);
  datagen::MultiModalEventGenerator gen(8, 4, 23);
  FusionConfig config;
  config.dim_a = 8;
  config.dim_b = 4;
  config.hidden = 16;
  config.bottleneck = 6;
  MultiModalAutoencoder ae(config, rng);
  nn::Adam opt(2e-3f);

  auto batch = gen.GenerateBatch(128, 0.3);
  const float before = ae.ReconstructionError(batch.video, batch.audio);
  Rng train_rng(29);
  for (int epoch = 0; epoch < 150; ++epoch) {
    ae.TrainStep(batch.video, batch.audio, opt, train_rng);
  }
  const float after = ae.ReconstructionError(batch.video, batch.audio);
  EXPECT_LT(after, before * 0.5f);
}

TEST(FusionTest, CodeIsDeterministicAtInference) {
  Rng rng(14);
  FusionConfig config;
  MultiModalAutoencoder ae(config, rng);
  Tensor a({2, config.dim_a}, 0.5f);
  Tensor b({2, config.dim_b}, -0.25f);
  Tensor c1 = ae.Encode(a, b, false);
  Tensor c2 = ae.Encode(a, b, false);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_EQ(c1[i], c2[i]);
}

// ---------------------------------------------------------------- CCA

TEST(CcaTest, SymmetricEigenDiagonal) {
  Tensor m = Tensor::FromVector({3, 0, 0, 1}).Reshape({2, 2});
  auto eig = SymmetricEigen(m);
  EXPECT_NEAR(eig.values[0], 3.0f, 1e-5f);
  EXPECT_NEAR(eig.values[1], 1.0f, 1e-5f);
}

TEST(CcaTest, SymmetricEigenKnownMatrix) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Tensor m = Tensor::FromVector({2, 1, 1, 2}).Reshape({2, 2});
  auto eig = SymmetricEigen(m);
  EXPECT_NEAR(eig.values[0], 3.0f, 1e-4f);
  EXPECT_NEAR(eig.values[1], 1.0f, 1e-4f);
  EXPECT_NEAR(std::fabs(eig.vectors.at(0, 0)), std::sqrt(0.5f), 1e-3f);
}

TEST(CcaTest, InverseSqrtIdentityProperty) {
  Rng rng(15);
  Tensor b = Tensor::RandomNormal({4, 4}, 1.0f, rng);
  Tensor a = tensor::MatMulTransposeB(b, b);
  for (int i = 0; i < 4; ++i) a.at(i, i) += 1.0f;
  Tensor is = SymmetricInverseSqrt(a);
  Tensor prod = tensor::MatMul(tensor::MatMul(is, a), is);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(prod.at(i, j), i == j ? 1.0f : 0.0f, 5e-2f);
    }
  }
}

TEST(CcaTest, PerfectlyCorrelatedViews) {
  Rng rng(16);
  const int n = 200;
  Tensor x = Tensor::RandomNormal({n, 3}, 1.0f, rng);
  Tensor y({n, 2});
  for (int i = 0; i < n; ++i) {
    y.at(i, 0) = 2 * x.at(i, 0) - x.at(i, 1);
    y.at(i, 1) = x.at(i, 2);
  }
  auto model = FitCca(x, y, 2);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->correlations[0], 0.95f);
  EXPECT_GT(model->correlations[1], 0.95f);
}

TEST(CcaTest, IndependentViewsLowCorrelation) {
  Rng rng(17);
  const int n = 400;
  Tensor x = Tensor::RandomNormal({n, 3}, 1.0f, rng);
  Tensor y = Tensor::RandomNormal({n, 3}, 1.0f, rng);
  auto model = FitCca(x, y, 1);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(model->correlations[0], 0.4f);
}

TEST(CcaTest, ProjectionsCorrelate) {
  Rng rng(18);
  const int n = 300;
  Tensor x = Tensor::RandomNormal({n, 2}, 1.0f, rng);
  Tensor y({n, 2});
  for (int i = 0; i < n; ++i) {
    y.at(i, 0) = x.at(i, 0) + float(rng.Normal(0, 0.1));
    y.at(i, 1) = float(rng.Normal(0, 1.0));
  }
  auto model = FitCca(x, y, 1);
  ASSERT_TRUE(model.ok());
  Tensor px = CcaProjectX(*model, x);
  Tensor py = CcaProjectY(*model, y);
  double sxy = 0, sxx = 0, syy = 0;
  for (int i = 0; i < n; ++i) {
    sxy += px.at(i, 0) * py.at(i, 0);
    sxx += px.at(i, 0) * px.at(i, 0);
    syy += py.at(i, 0) * py.at(i, 0);
  }
  EXPECT_GT(std::fabs(sxy) / std::sqrt(sxx * syy), 0.85);
}

TEST(CcaTest, RejectsBadArguments) {
  Tensor x({10, 3});
  Tensor y({8, 3});
  EXPECT_FALSE(FitCca(x, y, 1).ok());  // row mismatch
  Tensor y2({10, 3});
  EXPECT_FALSE(FitCca(x, y2, 5).ok());  // k > min(p, q)
  Tensor small_x({2, 3}), small_y({2, 3});
  EXPECT_FALSE(FitCca(small_x, small_y, 1).ok());  // too few samples
}

// ---------------------------------------------------------------- DQN

TEST(ReplayBufferTest, EvictsOldestAtCapacity) {
  ReplayBuffer buf(3);
  for (int i = 0; i < 5; ++i) {
    buf.Add({{float(i)}, 0, 0, {float(i)}, false});
  }
  EXPECT_EQ(buf.size(), 3u);
  Rng rng(19);
  const auto sample = buf.Sample(30, rng);
  for (const Transition* t : sample) {
    EXPECT_GE(t->state[0], 2.0f);  // 0 and 1 were evicted
  }
}

TEST(DqnTest, QValuesShape) {
  Rng rng(20);
  DqnConfig config;
  DqnAgent agent(3, 4, config, rng);
  const auto q = agent.QValues(std::vector<float>{0.1f, 0.2f, 0.3f});
  EXPECT_EQ(q.size(), 4u);
}

TEST(DqnTest, EpsilonOneIsUniformRandom) {
  Rng rng(21);
  DqnConfig config;
  DqnAgent agent(2, 3, config, rng);
  std::vector<int> counts(3, 0);
  Rng act_rng(22);
  for (int i = 0; i < 3000; ++i) {
    ++counts[std::size_t(
        agent.Act(std::vector<float>{0.0f, 0.0f}, 1.0f, act_rng))];
  }
  for (const int c : counts) EXPECT_NEAR(double(c) / 3000, 1.0 / 3, 0.05);
}

TEST(DqnTest, LearnsTwoArmedBandit) {
  // One state, two actions; action 1 pays 1, action 0 pays 0.
  Rng rng(23);
  DqnConfig config;
  config.hidden = {8};
  config.batch_size = 16;
  config.target_sync_interval = 20;
  config.learning_rate = 5e-3f;
  DqnAgent agent(1, 2, config, rng);
  Rng env_rng(24);
  for (int i = 0; i < 400; ++i) {
    const int action = agent.Act(std::vector<float>{0.0f}, 0.3f, env_rng);
    agent.Observe({{0.0f}, action, action == 1 ? 1.0f : 0.0f, {0.0f}, true});
    agent.TrainStep(env_rng);
  }
  const auto q = agent.QValues(std::vector<float>{0.0f});
  EXPECT_GT(q[1], q[0]);
  EXPECT_NEAR(q[1], 1.0f, 0.3f);
}

}  // namespace
}  // namespace metro::zoo
