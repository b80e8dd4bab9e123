#include "zoo/resnet_block.h"

#include <algorithm>
#include <cassert>

namespace metro::zoo {

ResNetBlock::ResNetBlock(int in_channels, int out_channels, int stride,
                         ShortcutKind shortcut, Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      stride_(stride),
      shortcut_(shortcut),
      conv1_(in_channels, out_channels, 3, stride, 1, rng),
      bn1_(out_channels),
      conv2_(out_channels, out_channels, 3, 1, 1, rng),
      bn2_(out_channels) {
  switch (shortcut_) {
    case ShortcutKind::kConv:
      conv_sc_ = std::make_unique<nn::Conv2d>(in_channels, out_channels, 1,
                                              stride, 0, rng);
      break;
    case ShortcutKind::kIdentity:
      assert(stride == 1 && in_channels == out_channels &&
             "identity shortcut requires matching shapes");
      break;
    case ShortcutKind::kMaxPool:
      assert(out_channels >= in_channels &&
             "max-pool shortcut pads channels, it cannot drop them");
      if (stride > 1) {
        pool_sc_ = std::make_unique<nn::MaxPool2d>(stride, stride);
      }
      break;
  }
}

Tensor ResNetBlock::ShortcutForward(const Tensor& x, bool training) {
  switch (shortcut_) {
    case ShortcutKind::kConv:
      return conv_sc_->Forward(x, training);
    case ShortcutKind::kIdentity:
      return x;
    case ShortcutKind::kMaxPool: {
      Tensor pooled = pool_sc_ ? pool_sc_->Forward(x, training) : x;
      if (cout_ == cin_) return pooled;
      // Zero-pad the channel dimension up to cout_.
      Tensor padded({pooled.dim(0), pooled.dim(1), pooled.dim(2), cout_});
      const int pix = pooled.dim(0) * pooled.dim(1) * pooled.dim(2);
      for (int p = 0; p < pix; ++p) {
        for (int ch = 0; ch < cin_; ++ch) {
          padded[std::size_t(p) * cout_ + ch] = pooled[std::size_t(p) * cin_ + ch];
        }
      }
      return padded;
    }
  }
  return x;
}

Tensor ResNetBlock::ShortcutBackward(const Tensor& grad) {
  switch (shortcut_) {
    case ShortcutKind::kConv:
      return conv_sc_->Backward(grad);
    case ShortcutKind::kIdentity:
      return grad;
    case ShortcutKind::kMaxPool: {
      Tensor g = grad;
      if (cout_ != cin_) {
        // Drop gradients flowing into the zero-padded channels.
        Tensor trimmed({grad.dim(0), grad.dim(1), grad.dim(2), cin_});
        const int pix = grad.dim(0) * grad.dim(1) * grad.dim(2);
        for (int p = 0; p < pix; ++p) {
          for (int ch = 0; ch < cin_; ++ch) {
            trimmed[std::size_t(p) * cin_ + ch] = grad[std::size_t(p) * cout_ + ch];
          }
        }
        g = std::move(trimmed);
      }
      return pool_sc_ ? pool_sc_->Backward(g) : g;
    }
  }
  return grad;
}

Tensor ResNetBlock::Forward(const Tensor& x, bool training) {
  if (training) cached_in_shape_ = x.shape();
  Tensor main = bn1_.Forward(conv1_.Forward(x, training), training);
  if (training) cached_main_preact_ = main;
  main = tensor::ReluForward(main);
  main = bn2_.Forward(conv2_.Forward(main, training), training);

  Tensor sc = ShortcutForward(x, training);
  assert(sc.shape() == main.shape());
  main += sc;
  if (training) cached_preact_ = main;
  return tensor::ReluForward(main);
}

METRO_NOALLOC
void ResNetBlock::ForwardInto(const nn::TensorView& x,
                              const nn::TensorView& out,
                              nn::InferenceContext& ctx) {
  using tensor::TensorView;
  if (!ctx.scratch) {
    Layer::ForwardInto(x, out, ctx);
    return;
  }
  // The shortcut first, cout channels wide: x itself, or a map in block
  // scratch. Never `out`, which conv2 below writes while it reads this.
  const float* residual = x.data().data();
  switch (shortcut_) {
    case ShortcutKind::kConv: {
      TensorView sc = ctx.scratch->AllocView(out.shape());
      conv_sc_->ForwardInto(x, sc, ctx);
      residual = sc.data().data();
      break;
    }
    case ShortcutKind::kIdentity:
      break;
    case ShortcutKind::kMaxPool: {
      TensorView pooled = x;
      if (pool_sc_) {
        pooled = ctx.scratch->AllocView(pool_sc_->OutputShape(x.shape()));
        pool_sc_->ForwardInto(x, pooled, ctx);
      }
      residual = pooled.data().data();
      if (cout_ != cin_) {
        // The eager zero padding: the pad channels add +0.0f, which turns a
        // -0 sum into +0 exactly as the eager `main += padded` does.
        const std::span<float> padded = ctx.scratch->Alloc(out.size());
        const float* pd = pooled.data().data();
        const std::size_t pix = pooled.size() / std::size_t(cin_);
        for (std::size_t p = 0; p < pix; ++p) {
          float* dst = &padded[p * std::size_t(cout_)];
          std::copy_n(&pd[p * std::size_t(cin_)], cin_, dst);
          std::fill(dst + cin_, dst + cout_, 0.0f);
        }
        residual = padded.data();
      }
      break;
    }
  }
  // Main path: conv1 -> bn1 -> relu in one pass into block scratch, then
  // conv2 -> bn2 -> + shortcut -> relu in one pass into `out`.
  TensorView mid = ctx.scratch->AllocView(conv1_.OutputShape(x.shape()));
  nn::ConvTail tail;
  tail.epilogue.act = tensor::ConvAct::kRelu;
  tail.bn = &bn1_;
  conv1_.ForwardInto(x, mid, ctx, tail);
  tail.bn = &bn2_;
  tail.epilogue.residual = residual;
  conv2_.ForwardInto(mid, out, ctx, tail);
}

Tensor ResNetBlock::Backward(const Tensor& grad_out) {
  Tensor g = tensor::ReluBackward(cached_preact_, grad_out);
  // Branch 1: main path.
  Tensor gm = conv2_.Backward(bn2_.Backward(g));
  gm = tensor::ReluBackward(cached_main_preact_, gm);
  Tensor gx = conv1_.Backward(bn1_.Backward(gm));
  // Branch 2: shortcut.
  gx += ShortcutBackward(g);
  return gx;
}

std::vector<Param*> ResNetBlock::Params() {
  std::vector<Param*> params;
  for (Param* p : conv1_.Params()) params.push_back(p);
  for (Param* p : bn1_.Params()) params.push_back(p);
  for (Param* p : conv2_.Params()) params.push_back(p);
  for (Param* p : bn2_.Params()) params.push_back(p);
  if (conv_sc_) {
    for (Param* p : conv_sc_->Params()) params.push_back(p);
  }
  return params;
}

std::vector<Tensor*> ResNetBlock::Buffers() {
  std::vector<Tensor*> buffers = bn1_.Buffers();
  for (Tensor* b : bn2_.Buffers()) buffers.push_back(b);
  return buffers;
}

std::string ResNetBlock::name() const {
  std::string sc;
  switch (shortcut_) {
    case ShortcutKind::kConv: sc = "conv-sc"; break;
    case ShortcutKind::kIdentity: sc = "id-sc"; break;
    case ShortcutKind::kMaxPool: sc = "pool-sc"; break;
  }
  return "resblock" + std::to_string(cout_) + "(" + sc + ")";
}

std::size_t ResNetBlock::ForwardMacs(const Shape& input_shape) const {
  std::size_t macs = conv1_.ForwardMacs(input_shape);
  const Shape mid = conv1_.OutputShape(input_shape);
  macs += bn1_.ForwardMacs(mid);
  macs += conv2_.ForwardMacs(mid);
  macs += bn2_.ForwardMacs(mid);
  if (conv_sc_) macs += conv_sc_->ForwardMacs(input_shape);
  if (pool_sc_) macs += pool_sc_->ForwardMacs(input_shape);
  return macs;
}

Shape ResNetBlock::OutputShape(const Shape& input_shape) const {
  return conv1_.OutputShape(input_shape);
}

}  // namespace metro::zoo
