#include "nn/inference.h"

#include <cassert>
#include <utility>

namespace metro::nn {

namespace {

// Takes into `step` the layers from layers[i] on that its Conv2d's kernel
// applies to each pixel: a BatchNorm, then a ReLU or LeakyReLU, each
// optional, in that order and adjacent.
void AbsorbConvTail(const std::vector<Layer*>& layers, std::size_t i,
                    InferencePlan::Step& step) {
  ConvTail& tail = step.tail;
  if (i < layers.size()) {
    if (const auto* bn = dynamic_cast<const BatchNorm*>(layers[i])) {
      tail.bn = bn;
      ++step.absorbed;
      ++i;
    }
  }
  if (i < layers.size()) {
    const auto* act = dynamic_cast<const Activation*>(layers[i]);
    if (act && (act->kind() == ActKind::kRelu ||
                act->kind() == ActKind::kLeakyRelu)) {
      tail.epilogue.act = act->kind() == ActKind::kRelu
                              ? tensor::ConvAct::kRelu
                              : tensor::ConvAct::kLeakyRelu;
      tail.epilogue.alpha = act->alpha();
      ++step.absorbed;
    }
  }
}

}  // namespace

InferencePlan::InferencePlan(std::vector<Layer*> layers,
                             const Shape& input_shape)
    : layers_(std::move(layers)), input_shape_(input_shape) {
  steps_.reserve(layers_.size());
  Shape cur = input_shape_;
  // -1 means the current activation still lives in the caller's input
  // buffer, which the plan must never write to.
  int cur_slot = -1;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Layer* layer = layers_[i];
    Step step;
    step.layer = layer;
    step.in_shape = cur;
    step.out_shape = layer->OutputShape(cur);
    if (dynamic_cast<Conv2d*>(layer)) {
      AbsorbConvTail(layers_, i + 1, step);
      i += std::size_t(step.absorbed);
    }
    switch (layer->placement()) {
      case InferencePlacement::kAlias:
        step.kind = ExecKind::kReshape;
        step.dst_slot = -1;
        break;
      case InferencePlacement::kInPlace:
        if (cur_slot == -1) {
          // Elementwise over the caller's input: redirect into a slot
          // instead of mutating foreign storage (the kernels support
          // non-aliased out, so this costs nothing extra).
          step.kind = ExecKind::kCompute;
          step.dst_slot = 0;
        } else {
          step.kind = ExecKind::kInPlace;
          step.dst_slot = -1;
        }
        break;
      case InferencePlacement::kNewBuffer:
        step.kind = ExecKind::kCompute;
        step.dst_slot = cur_slot == 0 ? 1 : 0;
        break;
    }
    if (step.kind == ExecKind::kCompute) {
      cur_slot = step.dst_slot;
      slot_floats_[std::size_t(cur_slot)] =
          std::max(slot_floats_[std::size_t(cur_slot)],
                   tensor::NumElements(step.out_shape));
    }
    cur = step.out_shape;
    steps_.push_back(std::move(step));
  }
  output_shape_ = cur;
  output_slot_ = cur_slot;
}

InferencePlan InferencePlan::For(Sequential& model, const Shape& input_shape) {
  std::vector<Layer*> layers;
  layers.reserve(model.num_layers());
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    layers.push_back(&model.layer(i));
  }
  return InferencePlan(std::move(layers), input_shape);
}

InferenceSession::InferenceSession(Sequential& model, const Shape& input_shape,
                                   Workspace& arena, ThreadPool* pool)
    : arena_(&arena),
      pool_(pool),
      plan_(InferencePlan::For(model, input_shape)) {
  EnsureSlots();
}

InferenceSession::InferenceSession(std::vector<Layer*> layers,
                                   const Shape& input_shape, Workspace& arena,
                                   ThreadPool* pool)
    : arena_(&arena),
      pool_(pool),
      plan_(InferencePlan(std::move(layers), input_shape)) {
  EnsureSlots();
}

void InferenceSession::EnsureSlots() {
  for (int s = 0; s < 2; ++s) {
    const std::size_t need = plan_.slot_floats(s);
    if (need > slot_capacity_[s]) {
      // Growth abandons the old (smaller) span inside the arena; steady
      // state never reaches this after the largest batch has been seen.
      slots_[s] = arena_->Alloc(need);
      slot_capacity_[s] = need;
    }
  }

  // Prebuild each step's output view so the Run loop allocates nothing
  // (TensorView holds a Shape, i.e. a heap vector — building one per step
  // per run was the last steady-state allocation). Views are resolvable
  // ahead of time once the activation lives in an arena slot; the only
  // unresolvable case is a kReshape relabeling of the caller's input
  // before the first compute step, left empty and handled in Run.
  const auto& steps = plan_.steps();
  step_views_.assign(steps.size(), TensorView());
  std::span<float> cur;
  bool in_arena = false;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto& step = steps[i];
    if (step.kind == InferencePlan::ExecKind::kCompute) {
      cur = slots_[step.dst_slot].first(tensor::NumElements(step.out_shape));
      in_arena = true;
      step_views_[i] = TensorView(step.out_shape, cur);
    } else if (in_arena) {
      // kInPlace / kReshape over arena storage: same floats, new label.
      cur = cur.first(tensor::NumElements(step.out_shape));
      step_views_[i] = TensorView(step.out_shape, cur);
    }
  }
}

void InferenceSession::Replan(const Shape& input_shape) {
  plan_ = InferencePlan(plan_.layers(), input_shape);
  EnsureSlots();
}

METRO_NOALLOC
TensorView InferenceSession::Run(const TensorView& input) {
  if (input.shape() != plan_.input_shape()) {
    Replan(input.shape());  // cold path: plan + slot storage rebuilt
    replans_.fetch_add(1, std::memory_order_relaxed);
  }

  InferenceContext ctx{arena_, pool_};
  // Walk pointers between the input and the prebuilt step views; copying a
  // TensorView copies its Shape (a heap vector), so the loop avoids it.
  const TensorView* cur = &input;
  TensorView relabeled;  // only used for kReshape over the caller's input
  const auto& steps = plan_.steps();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const InferencePlan::Step& step = steps[i];
    switch (step.kind) {
      case InferencePlan::ExecKind::kReshape:
        if (step_views_[i].empty()) {
          relabeled = cur->Reshaped(step.out_shape);
          cur = &relabeled;
        } else {
          cur = &step_views_[i];
        }
        break;
      case InferencePlan::ExecKind::kInPlace:
      case InferencePlan::ExecKind::kCompute: {
        const TensorView& out = step_views_[i];
        const Workspace::Mark scratch = arena_->Position();
        if (step.absorbed > 0) {
          static_cast<Conv2d*>(step.layer)->ForwardInto(*cur, out, ctx,
                                                        step.tail);
        } else {
          step.layer->ForwardInto(*cur, out, ctx);
        }
        arena_->Rewind(scratch);
        cur = &out;
        break;
      }
    }
  }

  runs_.fetch_add(1, std::memory_order_relaxed);
  return *cur;
}

Tensor InferenceSession::Run(const Tensor& input) {
  return Run(TensorView::OfConst(input)).ToTensor();
}

InferenceSession::Stats InferenceSession::stats() const {
  Stats stats;
  stats.runs = runs_.load(std::memory_order_relaxed);
  stats.replans = replans_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace metro::nn
