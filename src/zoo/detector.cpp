#include "zoo/detector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace metro::zoo {

using nn::ActKind;
using nn::Activation;
using nn::BatchNorm;
using nn::Conv2d;
using nn::MaxPool2d;

namespace {

float SigmoidF(float x) { return 1.0f / (1.0f + std::exp(-x)); }

struct CellScore {
  float score;  ///< objectness x top-class softmax probability
  int cls;      ///< top class; the first of tied logits wins
};

/// Scores one (5 + num_classes)-wide head cell. Decode and Confidence both
/// go through here, so the exit gate always equals the best decoded score.
CellScore ScoreCell(const float* cell, int num_classes) {
  const float* logits = cell + 5;
  float mx = logits[0];
  int best = 0;
  for (int k = 1; k < num_classes; ++k) {
    if (logits[k] > mx) {
      mx = logits[k];
      best = k;
    }
  }
  float sum = 0;
  for (int k = 0; k < num_classes; ++k) sum += std::exp(logits[k] - mx);
  return {SigmoidF(cell[0]) * (1.0f / sum), best};  // exp(0)/sum
}

}  // namespace

float Iou(const Detection& a, const Detection& b) {
  const float ax0 = a.cx - a.w / 2, ax1 = a.cx + a.w / 2;
  const float ay0 = a.cy - a.h / 2, ay1 = a.cy + a.h / 2;
  const float bx0 = b.cx - b.w / 2, bx1 = b.cx + b.w / 2;
  const float by0 = b.cy - b.h / 2, by1 = b.cy + b.h / 2;
  const float ix = std::max(0.0f, std::min(ax1, bx1) - std::max(ax0, bx0));
  const float iy = std::max(0.0f, std::min(ay1, by1) - std::max(ay0, by0));
  const float inter = ix * iy;
  const float uni = a.w * a.h + b.w * b.h - inter;
  return uni <= 0 ? 0.0f : inter / uni;
}

std::vector<Detection> Nms(std::vector<Detection> dets, float iou_thresh,
                           float score_floor) {
  std::sort(dets.begin(), dets.end(),
            [](const Detection& a, const Detection& b) { return a.score > b.score; });
  std::vector<Detection> kept;
  kept.reserve(dets.size());
  for (const Detection& d : dets) {
    if (d.score < score_floor) break;
    const bool suppressed = std::any_of(
        kept.begin(), kept.end(),
        [&](const Detection& k) { return Iou(k, d) > iou_thresh; });
    if (!suppressed) kept.push_back(d);
  }
  return kept;
}

SplitDetector::SplitDetector(const DetectorConfig& config, Rng& rng)
    : config_(config) {
  assert(config_.image_size == config_.grid * 8 &&
         "stem downsamples 8x: image_size must be grid * 8");
  const int c = config_.channels;
  const int sc = config_.stem_channels;
  const int out = 5 + config_.num_classes;

  // Shared stem: two conv+pool stages, 8x spatial reduction overall counting
  // the heads' stride-2 stages below (stem itself is 4x).
  stem_.Emplace<Conv2d>(c, 8, 3, 1, 1, rng)
      .Emplace<BatchNorm>(8)
      .Emplace<Activation>(ActKind::kLeakyRelu)
      .Emplace<MaxPool2d>(2, 2)
      .Emplace<Conv2d>(8, sc, 3, 1, 1, rng)
      .Emplace<BatchNorm>(sc)
      .Emplace<Activation>(ActKind::kLeakyRelu)
      .Emplace<MaxPool2d>(2, 2);

  // Local exit: one stride-2 conv then a 1x1 prediction conv.
  tiny_head_.Emplace<Conv2d>(sc, 16, 3, 2, 1, rng)
      .Emplace<Activation>(ActKind::kLeakyRelu)
      .Emplace<Conv2d>(16, out, 1, 1, 0, rng);

  // Server path: deeper trunk, then the prediction conv.
  full_head_.Emplace<Conv2d>(sc, 24, 3, 1, 1, rng)
      .Emplace<BatchNorm>(24)
      .Emplace<Activation>(ActKind::kLeakyRelu)
      .Emplace<MaxPool2d>(2, 2)
      .Emplace<Conv2d>(24, 32, 3, 1, 1, rng)
      .Emplace<BatchNorm>(32)
      .Emplace<Activation>(ActKind::kLeakyRelu)
      .Emplace<Conv2d>(32, out, 1, 1, 0, rng);

  stem_out_shape_ = stem_.OutputShape(
      {1, config_.image_size, config_.image_size, config_.channels});
}

Tensor SplitDetector::Stem(const Tensor& images, bool training) {
  return stem_.Forward(images, training);
}

Tensor SplitDetector::TinyHead(const Tensor& stem_out, bool training) {
  return tiny_head_.Forward(stem_out, training);
}

Tensor SplitDetector::FullHead(const Tensor& stem_out, bool training) {
  return full_head_.Forward(stem_out, training);
}

DetectLossResult SplitDetector::DetectLoss(
    const Tensor& head_out,
    const std::vector<std::vector<GroundTruthBox>>& truth) const {
  const int n = head_out.dim(0);
  const int s = config_.grid;
  const int nc = config_.num_classes;
  const int depth = 5 + nc;
  assert(head_out.dim(1) == s && head_out.dim(2) == s &&
         head_out.dim(3) == depth && int(truth.size()) == n);

  DetectLossResult res;
  res.grad = Tensor(head_out.shape());
  const float invn = 1.0f / float(n);

  // Per-cell responsible ground truth (or -1).
  std::vector<int> cell_gt(std::size_t(s) * s);
  std::vector<float> probs(static_cast<std::size_t>(nc));

  for (int b = 0; b < n; ++b) {
    std::fill(cell_gt.begin(), cell_gt.end(), -1);
    const auto& boxes = truth[std::size_t(b)];
    for (std::size_t gi = 0; gi < boxes.size(); ++gi) {
      const auto& g = boxes[gi];
      const int cx = std::clamp(int(g.cx * s), 0, s - 1);
      const int cy = std::clamp(int(g.cy * s), 0, s - 1);
      if (cell_gt[std::size_t(cy) * s + cx] < 0) {
        cell_gt[std::size_t(cy) * s + cx] = int(gi);
      }
    }

    for (int cy = 0; cy < s; ++cy) {
      for (int cx = 0; cx < s; ++cx) {
        const std::size_t base =
            ((std::size_t(b) * s + cy) * s + cx) * depth;
        const float to = head_out[base];
        const float o = SigmoidF(to);
        float* gr = &res.grad.data()[base];
        const int gi = cell_gt[std::size_t(cy) * s + cx];

        if (gi < 0) {
          // No object: push objectness to 0.
          res.loss += config_.lambda_noobj * o * o * invn;
          gr[0] += 2 * config_.lambda_noobj * o * o * (1 - o) * invn;
          continue;
        }
        const auto& g = boxes[std::size_t(gi)];
        // Objectness toward 1.
        res.loss += (o - 1) * (o - 1) * invn;
        gr[0] += 2 * (o - 1) * o * (1 - o) * invn;

        // Box coordinates (sigmoid-squashed raw values).
        const float targets[4] = {g.cx * s - float(cx), g.cy * s - float(cy),
                                  g.w, g.h};
        for (int k = 0; k < 4; ++k) {
          const float tv = head_out[base + 1 + k];
          const float v = SigmoidF(tv);
          const float d = v - targets[k];
          res.loss += config_.lambda_coord * d * d * invn;
          gr[1 + k] += 2 * config_.lambda_coord * d * v * (1 - v) * invn;
        }

        // Class cross-entropy over softmax of the trailing logits.
        float mx = head_out[base + 5];
        for (int k = 1; k < nc; ++k) mx = std::max(mx, head_out[base + 5 + k]);
        float sum = 0;
        for (int k = 0; k < nc; ++k) {
          probs[std::size_t(k)] = std::exp(head_out[base + 5 + k] - mx);
          sum += probs[std::size_t(k)];
        }
        for (auto& p : probs) p /= sum;
        res.loss -= std::log(std::max(probs[std::size_t(g.cls)], 1e-12f)) * invn;
        for (int k = 0; k < nc; ++k) {
          gr[5 + k] += (probs[std::size_t(k)] - (k == g.cls ? 1.0f : 0.0f)) * invn;
        }
      }
    }
  }
  return res;
}

float SplitDetector::TrainStep(
    const Tensor& images, const std::vector<std::vector<GroundTruthBox>>& truth,
    nn::Optimizer& opt) {
  Tensor stem_out = Stem(images, true);

  Tensor tiny_out = TinyHead(stem_out, true);
  DetectLossResult tiny_loss = DetectLoss(tiny_out, truth);

  Tensor full_out = FullHead(stem_out, true);
  DetectLossResult full_loss = DetectLoss(full_out, truth);

  Tensor stem_grad = tiny_head_.Backward(tiny_loss.grad);
  stem_grad += full_head_.Backward(full_loss.grad);
  stem_.Backward(stem_grad);

  auto params = Params();
  nn::ClipGradNorm(params, 5.0f);
  opt.Step(params);
  return tiny_loss.loss + full_loss.loss;
}

std::vector<Detection> SplitDetector::Decode(const Tensor& head_out,
                                             int batch_index,
                                             float score_floor) const {
  return Decode(std::span<const float>(head_out.data()), batch_index,
                score_floor);
}

std::vector<Detection> SplitDetector::Decode(std::span<const float> head_out,
                                             int batch_index,
                                             float score_floor) const {
  const int s = config_.grid;
  const int nc = config_.num_classes;
  const int depth = 5 + nc;
  std::vector<Detection> dets;
  dets.reserve(std::size_t(s) * std::size_t(s));
  for (int cy = 0; cy < s; ++cy) {
    for (int cx = 0; cx < s; ++cx) {
      const std::size_t base =
          ((std::size_t(batch_index) * s + cy) * s + cx) * depth;
      const CellScore cell = ScoreCell(&head_out[base], nc);
      if (cell.score < score_floor) continue;
      Detection d;
      d.score = cell.score;
      d.cls = cell.cls;
      d.cx = (float(cx) + SigmoidF(head_out[base + 1])) / float(s);
      d.cy = (float(cy) + SigmoidF(head_out[base + 2])) / float(s);
      d.w = SigmoidF(head_out[base + 3]);
      d.h = SigmoidF(head_out[base + 4]);
      dets.push_back(d);
    }
  }
  return dets;
}

float SplitDetector::Confidence(const Tensor& head_out, int batch_index) const {
  return Confidence(std::span<const float>(head_out.data()), batch_index);
}

float SplitDetector::Confidence(std::span<const float> head_out,
                                int batch_index) const {
  // Allocation-free max over the per-cell scores — this runs on every frame
  // as the Fig. 5 exit gate.
  const int s = config_.grid;
  const int nc = config_.num_classes;
  const int depth = 5 + nc;
  float best = 0.0f;
  for (int cy = 0; cy < s; ++cy) {
    for (int cx = 0; cx < s; ++cx) {
      const std::size_t base =
          ((std::size_t(batch_index) * s + cy) * s + cx) * depth;
      best = std::max(best, ScoreCell(&head_out[base], nc).score);
    }
  }
  return best;
}

std::vector<nn::Param*> SplitDetector::Params() {
  std::vector<nn::Param*> params = stem_.Params();
  for (auto* p : tiny_head_.Params()) params.push_back(p);
  for (auto* p : full_head_.Params()) params.push_back(p);
  return params;
}

std::vector<nn::Tensor*> SplitDetector::Buffers() {
  std::vector<nn::Tensor*> buffers = stem_.Buffers();
  for (auto* b : tiny_head_.Buffers()) buffers.push_back(b);
  for (auto* b : full_head_.Buffers()) buffers.push_back(b);
  return buffers;
}

std::size_t SplitDetector::FeatureMapBytes() const {
  return tensor::NumElements(stem_out_shape_) * sizeof(float);
}

std::size_t SplitDetector::StemMacs(int batch) const {
  return stem_.ForwardMacs(
      {batch, config_.image_size, config_.image_size, config_.channels});
}

std::size_t SplitDetector::TinyHeadMacs(int batch) const {
  nn::Shape in = stem_out_shape_;
  in[0] = batch;
  return tiny_head_.ForwardMacs(in);
}

std::size_t SplitDetector::FullHeadMacs(int batch) const {
  nn::Shape in = stem_out_shape_;
  in[0] = batch;
  return full_head_.ForwardMacs(in);
}

}  // namespace metro::zoo
