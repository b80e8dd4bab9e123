// camera_inference path (Figs. 5 and 7): one fog-node thread serves an
// open-loop frame stream from simulated cameras. Every frame runs split
// early-exit detection; every sixth frame also completes a clip for split
// behavior recognition. Frame and clip latency run from the frame's due
// time, so a slow frame delays the ones queued behind it. A frame's request
// latency ends when all of its results are ready: its detections, and on
// every sixth frame the clip's label too.
//
// The models carry seeded untrained weights: their cost does not depend on
// the weights, and set-up calibrates both exit thresholds so the escalation
// share is pinned (25% of frames, 28% of clips: the mid-threshold regime of
// EXPERIMENTS.md).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "datagen/video.h"
#include "driver/phases.h"
#include "tensor/ops.h"
#include "zoo/session.h"

namespace perfbench {

namespace {

using metro::tensor::TensorView;

// Offered frames/s: a third to half of the 4000-6000 frames/s one fog thread
// serves on the 4-core box, depending on the host's load (WORKLOADS.md,
// "Offered loads").
constexpr double kRate = 2000;
constexpr int kFramesPerClip = 6;
constexpr int kFramePool = 256;
constexpr int kClipPool = 100;
constexpr int kDetectEscalations = kFramePool / 4;  // 25% of frames
constexpr int kBehaviorEscalations = 28;            // 28% of clips
constexpr float kScoreFloor = 0.1f;
constexpr float kNmsIou = 0.4f;
// Every this many frames / clips is re-run through the eager model.
constexpr std::size_t kCheckEveryFrame = 16;
constexpr std::size_t kCheckEveryClip = 4;

struct Inputs {
  std::vector<Ns> due;
  std::vector<metro::nn::Tensor> frames;  ///< (1, H, W, C)
  std::vector<metro::zoo::Clip> clips;
  std::vector<int> frame_order;  ///< pool index per arrival
  std::vector<int> clip_order;   ///< pool index per completed clip
};

/// Concatenated seeded shuffles of 0..pool-1, so every pool entry (and so
/// the calibrated escalation share) recurs evenly.
std::vector<int> CycleOrder(std::size_t n, int pool, metro::Rng& rng) {
  std::vector<int> out;
  out.reserve(n + std::size_t(pool));
  std::vector<int> perm(static_cast<std::size_t>(pool));
  while (out.size() < n) {
    for (int i = 0; i < pool; ++i) perm[std::size_t(i)] = i;
    rng.Shuffle(perm);
    out.insert(out.end(), perm.begin(), perm.end());
  }
  out.resize(n);
  return out;
}

Inputs BuildInputs(const PhaseArgs& args,
                   const metro::zoo::DetectorConfig& det_config,
                   const metro::zoo::BehaviorConfig& beh_config) {
  metro::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 23);
  Inputs in;
  in.due = JitteredSchedule(kRate, args.duration, rng);
  metro::datagen::VehicleFrameGenerator frames(det_config, rng.NextU64());
  for (int i = 0; i < kFramePool; ++i) {
    in.frames.push_back(frames.Generate().image.Reshape(
        {1, det_config.image_size, det_config.image_size,
         det_config.channels}));
  }
  metro::datagen::BehaviorClipGenerator clips(beh_config, rng.NextU64());
  for (int i = 0; i < kClipPool; ++i) in.clips.push_back(clips.Generate());
  in.frame_order = CycleOrder(in.due.size(), kFramePool, rng);
  in.clip_order =
      CycleOrder(in.due.size() / kFramesPerClip + 1, kClipPool, rng);
  return in;
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameDetections(const std::vector<metro::zoo::Detection>& a,
                    const std::vector<metro::zoo::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cls != b[i].cls || !SameBits(a[i].score, b[i].score) ||
        !SameBits(a[i].cx, b[i].cx) || !SameBits(a[i].cy, b[i].cy) ||
        !SameBits(a[i].w, b[i].w) || !SameBits(a[i].h, b[i].h)) {
      return false;
    }
  }
  return true;
}

bool SameGated(const metro::zoo::DetectorSession::Gated& a,
               const metro::zoo::DetectorSession::Gated& b) {
  return SameBits(a.tiny_confidence, b.tiny_confidence) &&
         a.offloaded == b.offloaded && SameDetections(a.detections, b.detections);
}

bool SamePrediction(const metro::zoo::BehaviorPrediction& a,
                    const metro::zoo::BehaviorPrediction& b) {
  if (a.label != b.label || a.used_server != b.used_server ||
      !SameBits(a.entropy, b.entropy) || a.probs.size() != b.probs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.probs.size(); ++i) {
    if (!SameBits(a.probs[i], b.probs[i])) return false;
  }
  return true;
}

}  // namespace

std::uint64_t CameraInputDigest(const PhaseArgs& args) {
  const Inputs in = BuildInputs(args, {}, {});
  Digest d;
  for (const Ns due : in.due) d.AddPod(due);
  for (const auto& f : in.frames) d.Add(f.data().data(), f.size() * 4);
  for (const auto& c : in.clips) {
    d.Add(c.frames.data().data(), c.frames.size() * 4);
    d.AddPod(c.label);
  }
  for (const int i : in.frame_order) d.AddPod(i);
  for (const int i : in.clip_order) d.AddPod(i);
  return d.value();
}

int RunCamera(const PhaseArgs& args) {
  const Ns setup_start = NowNs();
  RoundOutput out(args.out_dir);
  const metro::zoo::DetectorConfig det_config;
  const metro::zoo::BehaviorConfig beh_config;
  const Inputs in = BuildInputs(args, det_config, beh_config);
  // One deployed model for every seed: the seed varies the inputs only.
  metro::Rng weights(2026);
  metro::zoo::SplitDetector detector(det_config, weights);
  metro::zoo::SplitBehaviorNet behavior(beh_config, weights);
  metro::tensor::Workspace det_arena, beh_arena;
  metro::zoo::DetectorSession det(detector, 1, det_arena);
  metro::zoo::BehaviorSession beh(behavior, 1, beh_arena);

  // Calibrate the exit thresholds on the pools: a frame escalates when its
  // tiny-head confidence is below the threshold, a clip when its exit-1
  // entropy is above it.
  std::vector<float> conf;
  for (const auto& f : in.frames) {
    const TensorView tiny = det.TinyHead(det.Stem(TensorView::OfConst(f)));
    conf.push_back(detector.Confidence(std::span<const float>(tiny.data()), 0));
  }
  std::sort(conf.begin(), conf.end());
  const float det_threshold = conf[kDetectEscalations];
  std::vector<float> entropy;
  for (const auto& c : in.clips) {
    entropy.push_back(
        beh.RunLocal(TensorView::OfConst(c.frames), 1).entropy.front());
  }
  std::sort(entropy.begin(), entropy.end());
  const float beh_threshold = entropy[kClipPool - kBehaviorEscalations - 1];

  const std::size_t n = in.due.size();
  const std::size_t n_clips = n / kFramesPerClip;
  const bool trace = args.trace;
  std::vector<Ns> frame_lat, detect_lat, behavior_lat, late;
  frame_lat.reserve(n);
  detect_lat.reserve(n);
  behavior_lat.reserve(n_clips);
  late.reserve(n);
  SpanLog spans(trace ? n * 5 + n_clips * 4 : 0);
  std::int64_t det_escalations = 0, beh_escalations = 0;
  std::uint64_t frame_allocs = 0, clip_allocs = 0;
  Ns work_cpu = 0;  // this thread's CPU time inside the frames' work
  struct FrameCheck {
    int pool = 0;
    metro::zoo::DetectorSession::Gated gated;
  };
  struct ClipCheck {
    int pool = 0;
    metro::zoo::BehaviorPrediction pred;
  };
  std::vector<FrameCheck> frame_checks;
  std::vector<ClipCheck> clip_checks;
  frame_checks.reserve(n / kCheckEveryFrame + 1);
  clip_checks.reserve(n_clips / kCheckEveryClip + 1);

  // The traced path runs Detect's steps one by one through the session's
  // public halves, with a span around each; the untraced path calls Detect.
  // The checks below hold the step-by-step copies to Detect and Predict.
  auto detect_traced = [&](std::uint64_t id, const TensorView& image) {
    metro::zoo::DetectorSession::Gated g;
    const Ns s0 = NowNs();
    const TensorView stem = det.Stem(image);
    const Ns s1 = NowNs();
    const TensorView tiny = det.TinyHead(stem);
    const Ns s2 = NowNs();
    spans.Add(id, kZooStem, kZooDetect, s0, s1);
    spans.Add(id, kZooTiny, kZooDetect, s1, s2);
    g.tiny_confidence =
        detector.Confidence(std::span<const float>(tiny.data()), 0);
    g.offloaded = g.tiny_confidence < det_threshold;
    if (g.offloaded) {
      const Ns f0 = NowNs();
      const TensorView full = det.FullHead(stem);
      spans.Add(id, kZooFull, kZooDetect, f0, NowNs());
      g.detections = metro::zoo::Nms(
          detector.Decode(std::span<const float>(full.data()), 0, kScoreFloor),
          kNmsIou, kScoreFloor);
    } else {
      g.detections = metro::zoo::Nms(
          detector.Decode(std::span<const float>(tiny.data()), 0, kScoreFloor),
          kNmsIou, kScoreFloor);
    }
    return g;
  };
  // Mirrors BehaviorSession::Predict step by step.
  auto predict_traced = [&](std::uint64_t id, const metro::zoo::Clip& clip) {
    const Ns l0 = NowNs();
    auto pass = beh.RunLocal(TensorView::OfConst(clip.frames), 1);
    spans.Add(id, kZooBehaviorLocal, kZooBehavior, l0, NowNs());
    metro::zoo::BehaviorPrediction pred;
    if (pass.entropy.front() <= beh_threshold) {
      const metro::nn::Tensor probs = metro::tensor::Softmax(pass.logits);
      pred.probs.assign(probs.data().begin(), probs.data().end());
      pred.entropy = pass.entropy.front();
      pred.used_server = false;
    } else {
      const Ns s0 = NowNs();
      const metro::nn::Tensor logits = beh.ServerLogits(pass.block1_out, 1);
      spans.Add(id, kZooBehaviorServer, kZooBehavior, s0, NowNs());
      const metro::nn::Tensor probs = metro::tensor::Softmax(logits);
      pred.probs.assign(probs.data().begin(), probs.data().end());
      pred.entropy = metro::tensor::Entropy(
          std::span<const float>(pred.probs.data(), pred.probs.size()));
      pred.used_server = true;
    }
    pred.label = int(std::max_element(pred.probs.begin(), pred.probs.end()) -
                     pred.probs.begin());
    return pred;
  };

  UseFineTimerSlack();
  const Ns setup_ns = NowNs() - setup_start;
  const Ns t0 = NowNs() + 2 * kMs;
  std::size_t clip_index = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Ns due = t0 + in.due[i];
    const bool waited = WaitUntil(due);
    const Ns start = NowNs();
    if (waited) late.push_back(start - due);
    const Ns cpu0 = ThreadCpuNs();
    const int frame = in.frame_order[i];
    const TensorView image = TensorView::OfConst(in.frames[std::size_t(frame)]);
    const std::uint64_t a0 = ThreadAllocs();
    metro::zoo::DetectorSession::Gated g;
    if (trace) {
      g = detect_traced(i, image);
    } else {
      g = std::move(det.Detect(image, det_threshold, kScoreFloor, kNmsIou)
                        .front());
    }
    const Ns det_done = NowNs();
    frame_allocs += ThreadAllocs() - a0;
    detect_lat.push_back(det_done - due);
    if (trace) {
      spans.Add(i, kCameraFrame, kNoParent, due, det_done);
      spans.Add(i, kZooDetect, kCameraFrame, start, det_done);
    }
    det_escalations += g.offloaded ? 1 : 0;
    if (i % kCheckEveryFrame == 0) frame_checks.push_back({frame, std::move(g)});

    Ns frame_done = det_done;
    if (i % kFramesPerClip == kFramesPerClip - 1) {
      const int clip = in.clip_order[clip_index];
      const metro::zoo::Clip& c = in.clips[std::size_t(clip)];
      const std::uint64_t b0 = ThreadAllocs();
      const Ns clip_start = NowNs();
      const std::uint64_t clip_id = n + clip_index;
      metro::zoo::BehaviorPrediction pred =
          trace ? predict_traced(clip_id, c) : beh.Predict(c, beh_threshold);
      const Ns clip_done = NowNs();
      clip_allocs += ThreadAllocs() - b0;
      behavior_lat.push_back(clip_done - due);
      if (trace) {
        spans.Add(clip_id, kCameraClip, kNoParent, due, clip_done);
        spans.Add(clip_id, kZooBehavior, kCameraClip, clip_start, clip_done);
      }
      beh_escalations += pred.used_server ? 1 : 0;
      if (clip_index % kCheckEveryClip == 0) {
        clip_checks.push_back({clip, std::move(pred)});
      }
      ++clip_index;
      frame_done = clip_done;
    }
    frame_lat.push_back(frame_done - due);
    work_cpu += ThreadCpuNs() - cpu0;
  }

  // Correctness: sampled frames and clips re-run through the eager model
  // must match the session output bit for bit. In a traced round the output
  // came from the driver's step-by-step copies, which must also match what
  // Detect and Predict return.
  for (const FrameCheck& check : frame_checks) {
    const auto& image = in.frames[std::size_t(check.pool)];
    if (trace && !SameGated(det.Detect(TensorView::OfConst(image),
                                       det_threshold, kScoreFloor, kNmsIou)
                                .front(),
                            check.gated)) {
      out.Fail("frame " + std::to_string(check.pool) +
               ": traced steps differ from Detect");
    }
    const auto stem = detector.Stem(image, false);
    const auto tiny = detector.TinyHead(stem, false);
    const float confidence = detector.Confidence(tiny, 0);
    const bool offloaded = confidence < det_threshold;
    const auto head = offloaded ? detector.FullHead(stem, false) : tiny;
    const auto dets = metro::zoo::Nms(detector.Decode(head, 0, kScoreFloor),
                                      kNmsIou, kScoreFloor);
    if (!SameBits(confidence, check.gated.tiny_confidence) ||
        offloaded != check.gated.offloaded ||
        !SameDetections(dets, check.gated.detections)) {
      out.Fail("frame " + std::to_string(check.pool) +
               " differs from the eager detector");
    }
  }
  for (const ClipCheck& check : clip_checks) {
    const metro::zoo::Clip& clip = in.clips[std::size_t(check.pool)];
    if (trace && !SamePrediction(beh.Predict(clip, beh_threshold), check.pred)) {
      out.Fail("clip " + std::to_string(check.pool) +
               ": traced steps differ from Predict");
    }
    const auto eager = behavior.Predict(clip, beh_threshold);
    if (!SamePrediction(eager, check.pred)) {
      out.Fail("clip " + std::to_string(check.pool) +
               " differs from the eager recognizer");
    }
  }

  out.Samples("frame", frame_lat);
  out.Samples("detect", detect_lat);
  out.Samples("behavior", behavior_lat);
  out.Samples("gen_late.camera", late);
  out.Counter("setup_s", double(setup_ns) / double(kSec));
  out.Counter("peak_rss_kb", double(PeakRssKb()));
  out.Counter("cpu_us_per_request", double(work_cpu) / double(kUs) / double(n));
  out.Counter("zoo.offload_frac.detect", double(det_escalations) / double(n));
  out.Counter("zoo.offload_frac.behavior",
              n_clips ? double(beh_escalations) / double(n_clips) : 0);
  out.Counter("nn.allocs_per_frame", double(frame_allocs) / double(n));
  out.Counter("nn.allocs_per_clip",
              n_clips ? double(clip_allocs) / double(n_clips) : 0);
  out.Counter("tensor.arena_peak_bytes",
              double(det_arena.peak_bytes() + beh_arena.peak_bytes()));
  out.Counter("zoo.shipped_bytes_per_frame",
              (double(det_escalations) * double(detector.FeatureMapBytes()) +
               double(beh_escalations) * double(behavior.FeatureMapBytes())) /
                  double(n));
  out.Counter("zoo.stem_macs", double(detector.StemMacs(1)));
  out.Counter("zoo.tiny_macs", double(detector.TinyHeadMacs(1)));
  out.Counter("zoo.full_macs", double(detector.FullHeadMacs(1)));
  if (trace) out.Spans({&spans});
  return out.Finish(std::int64_t(n + n_clips)) ? 0 : 1;
}

}  // namespace perfbench
