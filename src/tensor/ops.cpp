#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/thread_pool.h"

namespace metro::tensor {
namespace {

int ConvOutDim(int in, int k, int stride, int pad) {
  return (in + 2 * pad - k) / stride + 1;
}

struct ConvDims {
  int n, h, w, cin, kh, kw, cout, oh, ow, stride, pad;
};

// Computes output rows [row_begin, row_end), where a "row" is one (batch,
// output-y) pair. All indexing is raw pointers with precomputed strides —
// no per-element Tensor::at() — and the bias span is hoisted out of the
// pixel loop. The eager Conv2dForward's kernel, and the planned
// Conv2dForwardInto's for widths past kConvAccChannels; each output element
// is written by exactly one row, so ParallelFor over rows is race-free and
// order-preserving.
METRO_NOALLOC
void ConvRowRange(const float* in_d, const float* w_d, const float* bias_d,
                  const ConvDims& d, float* out_d, std::int64_t row_begin,
                  std::int64_t row_end) {
  const std::size_t in_row_stride = std::size_t(d.w) * d.cin;
  const std::size_t w_tap_stride = std::size_t(d.cin) * d.cout;
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const int b = int(r / d.oh);
    const int oy = int(r % d.oh);
    const float* in_img = &in_d[std::size_t(b) * d.h * in_row_stride];
    float* out_row = &out_d[std::size_t(r) * d.ow * d.cout];
    for (int ox = 0; ox < d.ow; ++ox) {
      float* out_px = &out_row[std::size_t(ox) * d.cout];
      if (bias_d) {
        std::memcpy(out_px, bias_d, std::size_t(d.cout) * sizeof(float));
      } else {
        std::memset(out_px, 0, std::size_t(d.cout) * sizeof(float));
      }
      for (int ky = 0; ky < d.kh; ++ky) {
        const int iy = oy * d.stride + ky - d.pad;
        if (iy < 0 || iy >= d.h) continue;
        for (int kx = 0; kx < d.kw; ++kx) {
          const int ix = ox * d.stride + kx - d.pad;
          if (ix < 0 || ix >= d.w) continue;
          const float* in_px =
              &in_img[std::size_t(iy) * in_row_stride + std::size_t(ix) * d.cin];
          const float* w_px = &w_d[(std::size_t(ky) * d.kw + kx) * w_tap_stride];
          for (int ic = 0; ic < d.cin; ++ic) {
            const float iv = in_px[ic];
            if (iv == 0.0f) continue;
            const float* w_row = &w_px[std::size_t(ic) * d.cout];
            for (int oc = 0; oc < d.cout; ++oc) out_px[oc] += iv * w_row[oc];
          }
        }
      }
    }
  }
}

// Planned-path kernels. Each keeps the eager kernel's tap order, so every
// output element receives the same additions in the same (ky, kx, ic)
// order and the results are bit-identical; only the schedule around them
// changes. The accumulators are provably local (in ConvRowRange the output
// may alias the input as far as the compiler knows, so every tap is a
// load-modify-store through memory), and each pixel is stored once.
constexpr int kConvAccChannels = 128;

// What every output pixel of one (batch, output-y) row shares.
struct ConvRow {
  const ConvDims* d;
  const float* in_img;  // the row's batch image
  const float* w;
  const float* bias;    // null: no bias
  int iy0;              // input row of tap ky = 0
  int ky_lo, ky_hi;     // the taps whose input row is in bounds
  float* out;           // the output row
  const ConvEpilogue* epi;
  const float* res;     // the row's residual; null: none
};

// GCC vector-extension types; the *U ones are the unaligned, may-alias
// forms for loads and stores, as immintrin.h's __m256_u. F8 code is only
// ever inlined into a target("avx") function (ConvRowRangeAvx): in a
// function compiled for baseline x86-64, GCC lowers a 32-byte vector
// through memory. No function takes or returns one by value.
typedef float F4 __attribute__((vector_size(16)));
typedef float F8 __attribute__((vector_size(32)));
typedef float F4U __attribute__((vector_size(16), aligned(4), may_alias));
typedef float F8U __attribute__((vector_size(32), aligned(4), may_alias));
template <int kLanes> struct LaneVec {
  using type = float;
  using unaligned = float;
};
template <> struct LaneVec<4> {
  using type = F4;
  using unaligned = F4U;
};
template <> struct LaneVec<8> {
  using type = F8;
  using unaligned = F8U;
};
// The unaligned load type of T: float, F4 or F8.
template <class T>
using UnalignedOf = typename LaneVec<sizeof(T) / sizeof(float)>::unaligned;

// ConvEpilogue's operations on the accumulator `a` of the channels from
// `ch` on: one float, or one vector T of them. Each operation rounds on its
// own, as the eager layers do one after the other. The selects keep NaN and
// -0, neither of which is < 0, as the eager `v < 0` tests do.
template <class T>
[[gnu::always_inline]] inline void EpilogueAffine(T& a, const ConvEpilogue& e,
                                                  int ch) {
  using TU = UnalignedOf<T>;
  const T scale = *reinterpret_cast<const TU*>(e.scale + ch);
  const T shift = *reinterpret_cast<const TU*>(e.shift + ch);
  a = a * scale;
  a = a + shift;
}

template <class T>
[[gnu::always_inline]] inline void EpilogueAdd(T& a, const float* res) {
  const T r = *reinterpret_cast<const UnalignedOf<T>*>(res);
  a = a + r;
}

template <class T>
[[gnu::always_inline]] inline void EpilogueAct(T& a, const ConvEpilogue& e) {
  if (e.act == ConvAct::kRelu) {
    a = a < T{} ? T{} : a;
  } else {
    a = a < T{} ? a * e.alpha : a;
  }
}

// The whole epilogue on one accumulator, `res` being its pixel's residual
// or null; for the kernels that run one channel at a time.
template <class T>
[[gnu::always_inline]] inline void ApplyEpilogue(T& a, const ConvEpilogue& e,
                                                 const float* res, int ch) {
  if (e.scale) EpilogueAffine(a, e, ch);
  if (res) EpilogueAdd(a, res + ch);
  if (e.act != ConvAct::kNone) EpilogueAct(a, e);
}

// How kCout channels sit in registers at kLanes lanes: kFull kLanes-wide
// vectors, then (12 at 8 lanes) one 4-lane vector, then the last
// kCout % 4 channels as scalars. A register block takes kP pixels, fewer
// the more registers one pixel needs, so that the accumulators and one
// pixel's weights fit the 16 vector registers.
template <int kLanes, int kCout>
struct ConvLayout {
  static constexpr int kFull = kCout / kLanes;
  static constexpr int kHalf = kLanes == 8 && kCout % 8 >= 4 ? 4 : 0;
  static constexpr int kTail = kCout - kFull * kLanes - kHalf;
  static constexpr int kTailAt = kCout - kTail;
  static constexpr int kRegs = kFull + (kHalf > 0) + kTail;
  static constexpr int kP = std::max(2, 7 - kRegs);
};

// The accumulators of kP pixels, laid out as ConvLayout says. Only ever a
// local of an always-inline function, so it lives in registers.
template <int kLanes, int kCout, int kP>
struct ConvBlock {
  using L = ConvLayout<kLanes, kCout>;
  typename LaneVec<kLanes>::type acc[kP][L::kFull > 0 ? L::kFull : 1];
  F4 acc4[kP];
  float acc1[kP][L::kTail > 0 ? L::kTail : 1];
};

// Taps kx in [kx_lo, kx_hi) of kP output pixels from ox on, each held in
// registers as ConvLayout lays them out. For each ky the (kx, ic) taps are
// one contiguous run of floats in both the NHWC input and the HWIO
// weights, at any stride, so each weight vector is loaded once per tap and
// feeds kP broadcast multiply-adds. The multiply and the
// add stay two instructions (no FMA), so every lane rounds as the eager
// `acc += iv * w` does, in the eager (ky, kx, ic) order. kSkipZeros keeps
// the eager `iv == 0` skip; without it, the taps must hold no +-0, since
// adding `0 * w` would turn a -0 accumulator (a -0 bias) into +0 and
// `0 * inf` into NaN.
template <int kLanes, int kCout, int kP, bool kSkipZeros>
[[gnu::always_inline]] inline void ConvTaps(const ConvRow& row, int ox,
                                            int kx_lo, int kx_hi,
                                            ConvBlock<kLanes, kCout, kP>& b) {
  using V = typename LaneVec<kLanes>::type;
  using VU = typename LaneVec<kLanes>::unaligned;
  using L = ConvLayout<kLanes, kCout>;
  constexpr int kFull = L::kFull, kHalf = L::kHalf, kTail = L::kTail;
  constexpr int kTailAt = L::kTailAt;
  const ConvDims& d = *row.d;
  auto& acc = b.acc;
  auto& acc4 = b.acc4;
  auto& acc1 = b.acc1;
#pragma GCC unroll 8
  for (int p = 0; p < kP; ++p) {
#pragma GCC unroll 8
    for (int v = 0; v < kFull; ++v) {
      acc[p][v] = row.bias ? *reinterpret_cast<const VU*>(row.bias + v * kLanes)
                           : V{};
    }
    if constexpr (kHalf > 0) {
      acc4[p] = row.bias
                    ? *reinterpret_cast<const F4U*>(row.bias + kFull * kLanes)
                    : F4{};
    }
#pragma GCC unroll 4
    for (int c = 0; c < kTail; ++c) {
      acc1[p][c] = row.bias ? row.bias[kTailAt + c] : 0.0f;
    }
  }
  // A border pixel past the image's edge (pad >= kw) has no taps at all.
  const int run = std::max(0, kx_hi - kx_lo) * d.cin;
  const std::size_t px_stride = std::size_t(d.stride) * d.cin;
  for (int ky = row.ky_lo; run > 0 && ky < row.ky_hi; ++ky) {
    const float* in_ky =
        &row.in_img[(std::size_t(row.iy0 + ky) * d.w +
                     std::size_t(ox * d.stride - d.pad + kx_lo)) * d.cin];
    const float* w_ky =
        &row.w[(std::size_t(ky) * d.kw + kx_lo) * d.cin * kCout];
    for (int t = 0; t < run; ++t) {
      const float* w_t = &w_ky[std::size_t(t) * kCout];
      V wv[kFull > 0 ? kFull : 1];
#pragma GCC unroll 8
      for (int v = 0; v < kFull; ++v) {
        wv[v] = *reinterpret_cast<const VU*>(w_t + v * kLanes);
      }
      F4 wv4 = F4{};
      if constexpr (kHalf > 0) {
        wv4 = *reinterpret_cast<const F4U*>(w_t + kFull * kLanes);
      }
#pragma GCC unroll 8
      for (int p = 0; p < kP; ++p) {
        const float iv = in_ky[std::size_t(p) * px_stride + t];
        if constexpr (kSkipZeros) {
          // x + -0 is x for every x but a signaling NaN, -0 included, so
          // a zero tap adds -0 in place of `iv * w`: the eager skip as a
          // select off the accumulator's dependency chain. A branch here
          // mispredicts on ReLU outputs, where zeros are common.
          const auto live = (V{} + iv) != V{};
          const auto live4 = (F4{} + iv) != F4{};
#pragma GCC unroll 8
          for (int v = 0; v < kFull; ++v) {
            acc[p][v] += live ? iv * wv[v] : -V{};
          }
          if constexpr (kHalf > 0) acc4[p] += live4 ? iv * wv4 : -F4{};
#pragma GCC unroll 4
          for (int c = 0; c < kTail; ++c) {
            acc1[p][c] += iv != 0.0f ? iv * w_t[kTailAt + c] : -0.0f;
          }
        } else {
#pragma GCC unroll 8
          for (int v = 0; v < kFull; ++v) acc[p][v] += iv * wv[v];
          if constexpr (kHalf > 0) acc4[p] += iv * wv4;
#pragma GCC unroll 4
          for (int c = 0; c < kTail; ++c) acc1[p][c] += iv * w_t[kTailAt + c];
        }
      }
    }
  }
}

// Applies the row's epilogue to a block's registers, one operation at a
// time over the whole block so each branch is taken once per block, then
// stores the kP pixels from ox on.
template <int kLanes, int kCout, int kP>
[[gnu::always_inline]] inline void ConvStore(const ConvRow& row, int ox,
                                             ConvBlock<kLanes, kCout, kP>& b) {
  using VU = typename LaneVec<kLanes>::unaligned;
  using L = ConvLayout<kLanes, kCout>;
  constexpr int kFull = L::kFull, kHalf = L::kHalf, kTail = L::kTail;
  constexpr int kTailAt = L::kTailAt;
  auto& acc = b.acc;
  auto& acc4 = b.acc4;
  auto& acc1 = b.acc1;
  const ConvEpilogue& e = *row.epi;
  const auto each = [&](auto op) __attribute__((always_inline)) {
#pragma GCC unroll 8
    for (int p = 0; p < kP; ++p) {
#pragma GCC unroll 8
      for (int v = 0; v < kFull; ++v) op(acc[p][v], p, v * kLanes);
      if constexpr (kHalf > 0) op(acc4[p], p, kFull * kLanes);
#pragma GCC unroll 4
      for (int c = 0; c < kTail; ++c) op(acc1[p][c], p, kTailAt + c);
    }
  };
  if (e.scale) {
    each([&](auto& a, int, int ch) __attribute__((always_inline)) {
      EpilogueAffine(a, e, ch);
    });
  }
  if (row.res) {
    each([&](auto& a, int p, int ch) __attribute__((always_inline)) {
      EpilogueAdd(a, row.res + std::size_t(ox + p) * kCout + ch);
    });
  }
  if (e.act != ConvAct::kNone) {
    each([&](auto& a, int, int) __attribute__((always_inline)) {
      EpilogueAct(a, e);
    });
  }
  float* out_px = &row.out[std::size_t(ox) * kCout];
#pragma GCC unroll 8
  for (int p = 0; p < kP; ++p) {
    float* o = out_px + std::size_t(p) * kCout;
#pragma GCC unroll 8
    for (int v = 0; v < kFull; ++v) {
      *reinterpret_cast<VU*>(o + v * kLanes) = acc[p][v];
    }
    if constexpr (kHalf > 0) {
      *reinterpret_cast<F4U*>(o + kFull * kLanes) = acc4[p];
    }
#pragma GCC unroll 4
    for (int c = 0; c < kTail; ++c) o[kTailAt + c] = acc1[p][c];
  }
}

#if defined(__SSE2__)
// Index of the first +-0 in p[0, n), or n. NaN compares unequal to zero,
// as in the eager `iv == 0` test.
METRO_NOALLOC
[[gnu::always_inline]] inline std::size_t FirstZero(const float* p,
                                                    std::size_t n) {
  const __m128 zero = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int mask = _mm_movemask_ps(_mm_cmpeq_ps(_mm_loadu_ps(p + i), zero));
    if (mask != 0) return i + std::size_t(__builtin_ctz(unsigned(mask)));
  }
  for (; i < n; ++i) {
    if (p[i] == 0.0f) return i;
  }
  return n;
}

// The first input column in [from, to) that holds a +-0 in any in-bounds
// tap row of `row`, or `to`.
METRO_NOALLOC
[[gnu::always_inline]] inline int NextZeroColumn(const ConvRow& row, int from,
                                                 int to) {
  const ConvDims& d = *row.d;
  int first = to;
  for (int ky = row.ky_lo; ky < row.ky_hi && first > from; ++ky) {
    const float* p =
        &row.in_img[(std::size_t(row.iy0 + ky) * d.w + from) * d.cin];
    first = from + int(FirstZero(p, std::size_t(first - from) * d.cin) /
                       std::size_t(d.cin));
  }
  return first;
}
#endif

// kPx output pixels from ox on, over taps kx in [kx_lo, kx_hi). Where none
// of their input columns holds +-0 they run without the zero select.
// Pixels come in order of ox, so `zero_col`, the first zero column at or
// after the last scan, only moves right, and each input float of the row
// is scanned at most once.
template <int kLanes, int kCout, int kPx>
[[gnu::always_inline]] inline void ConvPixels(
    const ConvRow& row, int ox, int kx_lo, int kx_hi,
    [[maybe_unused]] int& zero_col) {
#if defined(__SSE2__)
  if constexpr (kLanes > 1) {
    const ConvDims& d = *row.d;
    const int c0 = ox * d.stride - d.pad + kx_lo;
    const int c1 = (ox + kPx - 1) * d.stride - d.pad + kx_hi;
    if (zero_col < c0) zero_col = NextZeroColumn(row, c0, d.w);
    ConvBlock<kLanes, kCout, kPx> block;
    if (zero_col >= c1) {
      ConvTaps<kLanes, kCout, kPx, false>(row, ox, kx_lo, kx_hi, block);
    } else {
      ConvTaps<kLanes, kCout, kPx, true>(row, ox, kx_lo, kx_hi, block);
    }
    ConvStore(row, ox, block);
    return;
  }
#endif
  ConvBlock<kLanes, kCout, kPx> block;
  ConvTaps<kLanes, kCout, kPx, true>(row, ox, kx_lo, kx_hi, block);
  ConvStore(row, ox, block);
}

// One border output pixel, over the taps that land inside the image.
template <int kLanes, int kCout>
[[gnu::always_inline]] inline void ConvBorderPixel(const ConvRow& row, int ox,
                                                   int& zero_col) {
  const ConvDims& d = *row.d;
  const int ix0 = ox * d.stride - d.pad;
  ConvPixels<kLanes, kCout, 1>(row, ox, std::max(0, -ix0),
                               std::min(d.kw, d.w - ix0), zero_col);
}

// The planned conv kernel at kLanes lanes: 4 (SSE2) or 8 (AVX), or 1, the
// scalar kernel without __SSE2__, which runs single pixels only. Border
// pixels run over their in-bounds taps. The interior, where every tap is in
// bounds, runs in register blocks of kP pixels, the last one shifted left
// to end at the interior's edge (its overlap is recomputed to the same
// bits, which is why a residual must not be read from the output); an
// interior narrower than one block runs single pixels.
template <int kLanes, int kCout>
[[gnu::always_inline]] inline void ConvRows(
    const float* in_d, const float* w_d, const float* bias_d,
    const ConvDims& d, const ConvEpilogue& e, float* out_d,
    std::int64_t row_begin, std::int64_t row_end) {
  assert(d.cout == kCout);
  const int stride = std::max(d.stride, 1);
  // Interior ox range where every kx tap lands in-bounds. Skipped border
  // taps contribute no additions, so splitting the range preserves the
  // accumulation order.
  const int ox_lo = std::min(d.ow, (d.pad + stride - 1) / stride);
  const int ox_hi =
      std::max(ox_lo, std::min(d.ow, (d.w - d.kw + d.pad) / stride + 1));
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const int b = int(r / d.oh);
    const int oy = int(r % d.oh);
    const std::size_t row_floats = std::size_t(d.ow) * kCout;
    ConvRow row{&d,
                &in_d[std::size_t(b) * d.h * d.w * d.cin],
                w_d,
                bias_d,
                oy * d.stride - d.pad,
                0,
                d.kh,
                &out_d[std::size_t(r) * row_floats],
                &e,
                e.residual ? &e.residual[std::size_t(r) * row_floats]
                           : nullptr};
    while (row.ky_lo < row.ky_hi && row.iy0 + row.ky_lo < 0) ++row.ky_lo;
    while (row.ky_hi > row.ky_lo && row.iy0 + row.ky_hi - 1 >= d.h) {
      --row.ky_hi;
    }

    int zero_col = -1;
    int ox = 0;
    for (; ox < ox_lo; ++ox) ConvBorderPixel<kLanes, kCout>(row, ox, zero_col);
    if constexpr (kLanes > 1) {
      constexpr int kP = ConvLayout<kLanes, kCout>::kP;
      if (ox_hi - ox_lo >= kP) {
        while (ox < ox_hi) {
          const int start = std::min(ox, ox_hi - kP);
          ConvPixels<kLanes, kCout, kP>(row, start, 0, d.kw, zero_col);
          ox = start + kP;
        }
      }
    }
    for (; ox < ox_hi; ++ox) {
      ConvPixels<kLanes, kCout, 1>(row, ox, 0, d.kw, zero_col);
    }
    for (; ox < d.ow; ++ox) ConvBorderPixel<kLanes, kCout>(row, ox, zero_col);
  }
}

// Generic-width fallback with a local accumulator block.
METRO_NOALLOC
void ConvRowRangeBlocked(const float* in_d, const float* w_d,
                         const float* bias_d, const ConvDims& d,
                         const ConvEpilogue& e, float* out_d,
                         std::int64_t row_begin, std::int64_t row_end) {
  assert(d.cout <= kConvAccChannels);
  const std::size_t in_row_stride = std::size_t(d.w) * d.cin;
  const std::size_t w_tap_stride = std::size_t(d.cin) * d.cout;
  float acc[kConvAccChannels];
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const int b = int(r / d.oh);
    const int oy = int(r % d.oh);
    const float* in_img = &in_d[std::size_t(b) * d.h * in_row_stride];
    float* out_row = &out_d[std::size_t(r) * d.ow * d.cout];
    for (int ox = 0; ox < d.ow; ++ox) {
      if (bias_d) {
        std::memcpy(acc, bias_d, std::size_t(d.cout) * sizeof(float));
      } else {
        std::memset(acc, 0, std::size_t(d.cout) * sizeof(float));
      }
      for (int ky = 0; ky < d.kh; ++ky) {
        const int iy = oy * d.stride + ky - d.pad;
        if (iy < 0 || iy >= d.h) continue;
        for (int kx = 0; kx < d.kw; ++kx) {
          const int ix = ox * d.stride + kx - d.pad;
          if (ix < 0 || ix >= d.w) continue;
          const float* in_px =
              &in_img[std::size_t(iy) * in_row_stride + std::size_t(ix) * d.cin];
          const float* w_px = &w_d[(std::size_t(ky) * d.kw + kx) * w_tap_stride];
          for (int ic = 0; ic < d.cin; ++ic) {
            const float iv = in_px[ic];
            if (iv == 0.0f) continue;
            const float* w_row = &w_px[std::size_t(ic) * d.cout];
            for (int oc = 0; oc < d.cout; ++oc) acc[oc] += iv * w_row[oc];
          }
        }
      }
      const float* res =
          e.residual ? &e.residual[(std::size_t(r) * d.ow + ox) * d.cout]
                     : nullptr;
      for (int oc = 0; oc < d.cout; ++oc) ApplyEpilogue(acc[oc], e, res, oc);
      std::memcpy(&out_row[std::size_t(ox) * d.cout], acc,
                  std::size_t(d.cout) * sizeof(float));
    }
  }
}

// Widths past kConvAccChannels: the eager kernel, then the epilogue over
// each pixel it stored.
METRO_NOALLOC
void ConvRowRangeWide(const float* in_d, const float* w_d,
                      const float* bias_d, const ConvDims& d,
                      const ConvEpilogue& e, float* out_d,
                      std::int64_t row_begin, std::int64_t row_end) {
  ConvRowRange(in_d, w_d, bias_d, d, out_d, row_begin, row_end);
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    for (int ox = 0; ox < d.ow; ++ox) {
      const std::size_t at = (std::size_t(r) * d.ow + ox) * d.cout;
      const float* res = e.residual ? &e.residual[at] : nullptr;
      float* px = &out_d[at];
      for (int oc = 0; oc < d.cout; ++oc) ApplyEpilogue(px[oc], e, res, oc);
    }
  }
}

using ConvRowFn = void (*)(const float*, const float*, const float*,
                           const ConvDims&, const ConvEpilogue&, float*,
                           std::int64_t, std::int64_t);

// ConvRows at the baseline width: 4 lanes (SSE2), or the scalar kernel
// where __SSE2__ is not defined.
template <int kCout>
METRO_NOALLOC
void ConvRowRangeBaseline(const float* in_d, const float* w_d,
                          const float* bias_d, const ConvDims& d,
                          const ConvEpilogue& e, float* out_d,
                          std::int64_t row_begin, std::int64_t row_end) {
#if defined(__SSE2__)
  ConvRows<4, kCout>(in_d, w_d, bias_d, d, e, out_d, row_begin, row_end);
#else
  ConvRows<1, kCout>(in_d, w_d, bias_d, d, e, out_d, row_begin, row_end);
#endif
}

#if defined(__SSE2__)
// ConvRows at 8 lanes. Only "avx", never "fma" or "avx2": a fused
// multiply-add rounds once and would break bit parity with the eager
// kernel. Called only where the CPU has AVX (detail::ConvKernelLanes).
template <int kCout>
METRO_NOALLOC
[[gnu::target("avx")]] void ConvRowRangeAvx(
    const float* in_d, const float* w_d, const float* bias_d,
    const ConvDims& d, const ConvEpilogue& e, float* out_d,
    std::int64_t row_begin, std::int64_t row_end) {
  ConvRows<8, kCout>(in_d, w_d, bias_d, d, e, out_d, row_begin, row_end);
}
#endif

template <int kCout>
ConvRowFn ConvRowFnAt([[maybe_unused]] int lanes) {
#if defined(__SSE2__)
  if (lanes == 8) return ConvRowRangeAvx<kCout>;
#endif
  return ConvRowRangeBaseline<kCout>;
}

// Picks the register-blocked kernel, at `lanes` lanes, for the channel
// widths the zoo uses: multiples of 4, and 13, the prediction convs.
ConvRowFn PickConvRowFn(int cout, int lanes) {
  switch (cout) {
    case 4: return ConvRowFnAt<4>(lanes);
    case 8: return ConvRowFnAt<8>(lanes);
    case 12: return ConvRowFnAt<12>(lanes);
    case 13: return ConvRowFnAt<13>(lanes);
    case 16: return ConvRowFnAt<16>(lanes);
    case 24: return ConvRowFnAt<24>(lanes);
    case 32: return ConvRowFnAt<32>(lanes);
    default: return cout <= kConvAccChannels ? ConvRowRangeBlocked
                                             : ConvRowRangeWide;
  }
}

ConvDims MakeConvDims(const Shape& in_shape, const Tensor& weights, int stride,
                      int pad) {
  ConvDims d;
  d.n = in_shape[0];
  d.h = in_shape[1];
  d.w = in_shape[2];
  d.cin = in_shape[3];
  d.kh = weights.dim(0);
  d.kw = weights.dim(1);
  d.cout = weights.dim(3);
  d.oh = ConvOutDim(d.h, d.kh, stride, pad);
  d.ow = ConvOutDim(d.w, d.kw, stride, pad);
  d.stride = stride;
  d.pad = pad;
  return d;
}

struct PoolDims {
  int n, h, w, c, k, stride, oh, ow;
};

// MaxPool2dForwardInto's loops. Channels are innermost (NHWC), so one load
// per window tap covers four adjacent channels. `_mm_max_ps(v, best)`
// returns `v > best ? v : best` lane by lane -- the eager kernel's
// `if (v > best) best = v` exactly, so a NaN tap never replaces `best` and
// a +0/-0 tie keeps the earlier tap; taps fold in the eager (ky, kx) order.
// kK > 0 fixes the window size at compile time, so the 2x2 pool every zoo
// model uses unrolls into four loads; kK == 0 reads d.k.
template <int kK>
METRO_NOALLOC
void MaxPoolWindows(const float* in_d, const PoolDims& d, float* out_d) {
  const int k = kK > 0 ? kK : d.k;
  const int c = d.c;
  const std::size_t row_stride = std::size_t(d.w) * c;
  for (int b = 0; b < d.n; ++b) {
    for (int oy = 0; oy < d.oh; ++oy) {
      for (int ox = 0; ox < d.ow; ++ox) {
        const float* win =
            &in_d[((std::size_t(b) * d.h + std::size_t(oy) * d.stride) * d.w +
                   std::size_t(ox) * d.stride) * c];
        float* o = &out_d[((std::size_t(b) * d.oh + oy) * d.ow + ox) * c];
        int ch = 0;
#if defined(__SSE2__)
        for (; ch + 4 <= c; ch += 4) {
          __m128 best = _mm_set1_ps(-std::numeric_limits<float>::infinity());
          for (int ky = 0; ky < k; ++ky) {
            const float* tap = win + ky * row_stride + ch;
            for (int kx = 0; kx < k; ++kx) {
              best = _mm_max_ps(_mm_loadu_ps(tap + std::size_t(kx) * c), best);
            }
          }
          _mm_storeu_ps(o + ch, best);
        }
#endif
        for (; ch < c; ++ch) {
          float best = -std::numeric_limits<float>::infinity();
          for (int ky = 0; ky < k; ++ky) {
            const float* tap = win + ky * row_stride + ch;
            for (int kx = 0; kx < k; ++kx) {
              const float v = tap[std::size_t(kx) * c];
              if (v > best) best = v;
            }
          }
          o[ch] = best;
        }
      }
    }
  }
}

}  // namespace

Tensor Conv2dForward(const Tensor& input, const Tensor& weights,
                     const Tensor& bias, int stride, int pad) {
  assert(input.rank() == 4 && weights.rank() == 4);
  assert(weights.dim(2) == input.dim(3));
  assert(bias.empty() || int(bias.size()) == weights.dim(3));
  const ConvDims d = MakeConvDims(input.shape(), weights, stride, pad);
  assert(d.oh > 0 && d.ow > 0);

  Tensor out({d.n, d.oh, d.ow, d.cout});
  ConvRowRange(input.data().data(), weights.data().data(),
               bias.empty() ? nullptr : bias.data().data(), d,
               out.data().data(), 0, std::int64_t(d.n) * d.oh);
  return out;
}

METRO_NOALLOC
void Conv2dForwardInto(const TensorView& input, const Tensor& weights,
                       const Tensor& bias, int stride, int pad,
                       const TensorView& out, ThreadPool* pool,
                       const ConvEpilogue& epilogue) {
  detail::Conv2dForwardIntoAtLanes(detail::ConvKernelLanes(), input, weights,
                                   bias, stride, pad, out, pool, epilogue);
}

namespace detail {

int ConvKernelLanes() {
#if defined(__SSE2__)
  static const int lanes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx") ? 8 : 4;
  }();
  return lanes;
#else
  return 1;
#endif
}

METRO_NOALLOC
void Conv2dForwardIntoAtLanes(int lanes, const TensorView& input,
                              const Tensor& weights, const Tensor& bias,
                              int stride, int pad, const TensorView& out,
                              ThreadPool* pool, const ConvEpilogue& epilogue) {
  assert(input.rank() == 4 && weights.rank() == 4 && out.rank() == 4);
  assert(weights.dim(2) == input.dim(3));
  assert(bias.empty() || int(bias.size()) == weights.dim(3));
  assert(lanes <= ConvKernelLanes());
  const ConvDims d = MakeConvDims(input.shape(), weights, stride, pad);
  assert(out.dim(0) == d.n && out.dim(1) == d.oh && out.dim(2) == d.ow &&
         out.dim(3) == d.cout);
  assert(epilogue.residual == nullptr ||
         epilogue.residual != out.data().data());

  const float* in_d = input.data().data();
  const float* w_d = weights.data().data();
  const float* bias_d = bias.empty() ? nullptr : bias.data().data();
  float* out_d = out.data().data();
  // Aim for a handful of rows per chunk so even a single image (n == 1)
  // spreads across the pool; the MAC count per row is what matters, so
  // smaller feature maps get coarser chunks via the grain.
  const std::int64_t rows = std::int64_t(d.n) * d.oh;
  const std::int64_t macs_per_row =
      std::int64_t(d.ow) * d.cout * d.kh * d.kw * d.cin;
  const std::int64_t grain =
      std::max<std::int64_t>(1, 65536 / std::max<std::int64_t>(macs_per_row, 1));
  const ConvRowFn row_fn = PickConvRowFn(d.cout, lanes);
  ParallelFor(pool, 0, rows, grain,
              [&](std::int64_t lo, std::int64_t hi) {
                row_fn(in_d, w_d, bias_d, d, epilogue, out_d, lo, hi);
              });
}

}  // namespace detail

ConvGrads Conv2dBackward(const Tensor& input, const Tensor& weights,
                         const Tensor& grad_out, int stride, int pad) {
  const int n = input.dim(0), h = input.dim(1), w = input.dim(2),
            cin = input.dim(3);
  const int kh = weights.dim(0), kw = weights.dim(1), cout = weights.dim(3);
  const int oh = grad_out.dim(1), ow = grad_out.dim(2);
  assert(grad_out.dim(0) == n && grad_out.dim(3) == cout);

  ConvGrads grads{Tensor(input.shape()), Tensor(weights.shape()),
                  Tensor({cout})};
  const auto in_d = input.data();
  const auto w_d = weights.data();
  const auto go_d = grad_out.data();
  auto gi_d = grads.input.data();
  auto gw_d = grads.weights.data();
  auto gb_d = grads.bias.data();

  for (int b = 0; b < n; ++b) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const float* go_px =
            &go_d[((std::size_t(b) * oh + oy) * ow + ox) * cout];
        for (int oc = 0; oc < cout; ++oc) gb_d[oc] += go_px[oc];
        for (int ky = 0; ky < kh; ++ky) {
          const int iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) continue;
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = ox * stride + kx - pad;
            if (ix < 0 || ix >= w) continue;
            const std::size_t in_off =
                ((std::size_t(b) * h + iy) * w + ix) * cin;
            const std::size_t w_off = (std::size_t(ky) * kw + kx) * cin * cout;
            for (int ic = 0; ic < cin; ++ic) {
              const float iv = in_d[in_off + ic];
              const float* w_row = &w_d[w_off + std::size_t(ic) * cout];
              float* gw_row = &gw_d[w_off + std::size_t(ic) * cout];
              float gi_acc = 0.0f;
              for (int oc = 0; oc < cout; ++oc) {
                const float go = go_px[oc];
                gw_row[oc] += iv * go;
                gi_acc += w_row[oc] * go;
              }
              gi_d[in_off + ic] += gi_acc;
            }
          }
        }
      }
    }
  }
  return grads;
}

MaxPoolResult MaxPool2dForward(const Tensor& input, int k, int stride) {
  assert(input.rank() == 4);
  const int n = input.dim(0), h = input.dim(1), w = input.dim(2),
            c = input.dim(3);
  const int oh = (h - k) / stride + 1;
  const int ow = (w - k) / stride + 1;
  assert(oh > 0 && ow > 0);

  MaxPoolResult res;
  res.output = Tensor({n, oh, ow, c});
  res.argmax.assign(res.output.size(), 0);
  const auto in_d = input.data();
  auto out_d = res.output.data();

  for (int b = 0; b < n; ++b) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        for (int ch = 0; ch < c; ++ch) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride + ky;
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ox * stride + kx;
              const std::size_t idx =
                  ((std::size_t(b) * h + iy) * w + ix) * c + ch;
              if (in_d[idx] > best) {
                best = in_d[idx];
                best_idx = idx;
              }
            }
          }
          const std::size_t oidx =
              ((std::size_t(b) * oh + oy) * ow + ox) * c + ch;
          out_d[oidx] = best;
          res.argmax[oidx] = best_idx;
        }
      }
    }
  }
  return res;
}

Tensor MaxPool2dBackward(const Shape& input_shape, const MaxPoolResult& fwd,
                         const Tensor& grad_out) {
  Tensor grad_in(input_shape);
  auto gi = grad_in.data();
  const auto go = grad_out.data();
  assert(grad_out.size() == fwd.argmax.size());
  for (std::size_t i = 0; i < fwd.argmax.size(); ++i) {
    gi[fwd.argmax[i]] += go[i];
  }
  return grad_in;
}

Tensor GlobalAvgPoolForward(const Tensor& input) {
  assert(input.rank() == 4);
  const int n = input.dim(0), h = input.dim(1), w = input.dim(2),
            c = input.dim(3);
  Tensor out({n, c});
  const float inv = 1.0f / float(h * w);
  const auto in_d = input.data();
  auto out_d = out.data();
  for (int b = 0; b < n; ++b) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const float* px = &in_d[((std::size_t(b) * h + y) * w + x) * c];
        float* orow = &out_d[std::size_t(b) * c];
        for (int ch = 0; ch < c; ++ch) orow[ch] += px[ch] * inv;
      }
    }
  }
  return out;
}

Tensor GlobalAvgPoolBackward(const Shape& input_shape, const Tensor& grad_out) {
  assert(input_shape.size() == 4);
  const int n = input_shape[0], h = input_shape[1], w = input_shape[2],
            c = input_shape[3];
  Tensor grad_in(input_shape);
  const float inv = 1.0f / float(h * w);
  auto gi = grad_in.data();
  const auto go = grad_out.data();
  for (int b = 0; b < n; ++b) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        float* px = &gi[((std::size_t(b) * h + y) * w + x) * c];
        const float* grow = &go[std::size_t(b) * c];
        for (int ch = 0; ch < c; ++ch) px[ch] = grow[ch] * inv;
      }
    }
  }
  return grad_in;
}

Tensor ReluForward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.data()) v = std::max(v, 0.0f);
  return y;
}

Tensor ReluBackward(const Tensor& x, const Tensor& grad_out) {
  assert(x.size() == grad_out.size());
  Tensor g = grad_out;
  auto gd = g.data();
  const auto xd = x.data();
  for (std::size_t i = 0; i < gd.size(); ++i) {
    if (xd[i] <= 0.0f) gd[i] = 0.0f;
  }
  return g;
}

Tensor LeakyReluForward(const Tensor& x, float alpha) {
  Tensor y = x;
  for (auto& v : y.data()) {
    if (v < 0.0f) v *= alpha;
  }
  return y;
}

Tensor LeakyReluBackward(const Tensor& x, const Tensor& grad_out, float alpha) {
  assert(x.size() == grad_out.size());
  Tensor g = grad_out;
  auto gd = g.data();
  const auto xd = x.data();
  for (std::size_t i = 0; i < gd.size(); ++i) {
    if (xd[i] < 0.0f) gd[i] *= alpha;
  }
  return g;
}

Tensor SigmoidForward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.data()) v = 1.0f / (1.0f + std::exp(-v));
  return y;
}

Tensor SigmoidBackward(const Tensor& y, const Tensor& grad_out) {
  assert(y.size() == grad_out.size());
  Tensor g = grad_out;
  auto gd = g.data();
  const auto yd = y.data();
  for (std::size_t i = 0; i < gd.size(); ++i) gd[i] *= yd[i] * (1.0f - yd[i]);
  return g;
}

Tensor TanhForward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.data()) v = std::tanh(v);
  return y;
}

Tensor TanhBackward(const Tensor& y, const Tensor& grad_out) {
  assert(y.size() == grad_out.size());
  Tensor g = grad_out;
  auto gd = g.data();
  const auto yd = y.data();
  for (std::size_t i = 0; i < gd.size(); ++i) gd[i] *= 1.0f - yd[i] * yd[i];
  return g;
}

Tensor Softmax(const Tensor& logits) {
  assert(logits.rank() == 2);
  const int n = logits.dim(0), c = logits.dim(1);
  Tensor out({n, c});
  for (int i = 0; i < n; ++i) {
    const float* row = &logits.data()[std::size_t(i) * c];
    float* orow = &out.data()[std::size_t(i) * c];
    float mx = row[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (int j = 0; j < c; ++j) {
      orow[j] = std::exp(row[j] - mx);
      sum += orow[j];
    }
    const float inv = 1.0f / sum;
    for (int j = 0; j < c; ++j) orow[j] *= inv;
  }
  return out;
}

CrossEntropyResult CrossEntropyLoss(const Tensor& logits,
                                    const std::vector<int>& labels) {
  assert(logits.rank() == 2 && int(labels.size()) == logits.dim(0));
  const int n = logits.dim(0), c = logits.dim(1);
  CrossEntropyResult res{0.0f, Tensor(logits.shape()), Softmax(logits), 0};
  const float invn = 1.0f / float(n);
  for (int i = 0; i < n; ++i) {
    const int label = labels[std::size_t(i)];
    assert(label >= 0 && label < c);
    const float* prow = &res.probs.data()[std::size_t(i) * c];
    float* grow = &res.grad.data()[std::size_t(i) * c];
    res.loss -= std::log(std::max(prow[label], 1e-12f)) * invn;
    for (int j = 0; j < c; ++j) grow[j] = prow[j] * invn;
    grow[label] -= invn;
    std::size_t am = 0;
    for (int j = 1; j < c; ++j) {
      if (prow[j] > prow[am]) am = std::size_t(j);
    }
    if (int(am) == label) ++res.correct;
  }
  return res;
}

float Entropy(std::span<const float> probs) {
  float h = 0.0f;
  for (const float p : probs) {
    if (p > 1e-12f) h -= p * std::log(p);
  }
  return h;
}

float MaxProb(std::span<const float> probs) {
  float mx = 0.0f;
  for (const float p : probs) mx = std::max(mx, p);
  return mx;
}

// ---------------------------------------------------------------------------
// Planned-inference kernels.

METRO_NOALLOC
void MaxPool2dForwardInto(const TensorView& input, int k, int stride,
                          const TensorView& out) {
  assert(input.rank() == 4 && out.rank() == 4);
  const int n = input.dim(0), h = input.dim(1), w = input.dim(2),
            c = input.dim(3);
  const int oh = (h - k) / stride + 1;
  const int ow = (w - k) / stride + 1;
  assert(out.dim(0) == n && out.dim(1) == oh && out.dim(2) == ow &&
         out.dim(3) == c);
  const PoolDims d{n, h, w, c, k, stride, oh, ow};
  if (k == 2) {
    MaxPoolWindows<2>(input.data().data(), d, out.data().data());
  } else {
    MaxPoolWindows<0>(input.data().data(), d, out.data().data());
  }
}

METRO_NOALLOC
void GlobalAvgPoolForwardInto(const TensorView& input, const TensorView& out) {
  assert(input.rank() == 4 && out.rank() == 2);
  const int n = input.dim(0), h = input.dim(1), w = input.dim(2),
            c = input.dim(3);
  assert(out.dim(0) == n && out.dim(1) == c);
  const float inv = 1.0f / float(h * w);
  const float* in_d = input.data().data();
  float* out_d = out.data().data();
  std::memset(out_d, 0, std::size_t(n) * c * sizeof(float));
  for (int b = 0; b < n; ++b) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const float* px = &in_d[((std::size_t(b) * h + y) * w + x) * c];
        float* orow = &out_d[std::size_t(b) * c];
        for (int ch = 0; ch < c; ++ch) orow[ch] += px[ch] * inv;
      }
    }
  }
}

METRO_NOALLOC
void MatMulInto(const TensorView& a, const Tensor& b, const TensorView& c,
                ThreadPool* pool) {
  assert(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  assert(a.dim(1) == b.dim(0) && c.dim(0) == a.dim(0) && c.dim(1) == b.dim(1));
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* cd = c.data().data();
  const std::int64_t grain =
      std::max<std::int64_t>(1, 65536 / std::max(std::int64_t(k) * n, std::int64_t(1)));
  ParallelFor(pool, 0, m, grain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      float* crow = &cd[std::size_t(i) * n];
      std::memset(crow, 0, std::size_t(n) * sizeof(float));
      // Same i-k-j order (and zero-skip) as the eager MatMul.
      for (int p = 0; p < k; ++p) {
        const float av = ad[std::size_t(i) * k + p];
        if (av == 0.0f) continue;
        const float* brow = &bd[std::size_t(p) * n];
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

METRO_NOALLOC
void DenseForwardInto(const TensorView& x, const Tensor& w, const Tensor& b,
                      const TensorView& out, ThreadPool* pool) {
  MatMulInto(x, w, out, pool);
  const int n = out.dim(0), features = out.dim(1);
  const float* bd = b.data().data();
  float* yd = out.data().data();
  for (int i = 0; i < n; ++i) {
    float* row = &yd[std::size_t(i) * features];
    for (int j = 0; j < features; ++j) row[j] += bd[j];
  }
}

METRO_NOALLOC
void ReluInto(const TensorView& x, const TensorView& out) {
  assert(x.size() == out.size());
  const std::span<float> xd = x.data();
  const std::span<float> od = out.data();
  for (std::size_t i = 0; i < xd.size(); ++i) od[i] = std::max(xd[i], 0.0f);
}

// Branch-free: `v * alpha` in every lane, kept only where `v < 0`. The
// mask select leaves -0 (not < 0) and NaN (compares false) untouched, as
// the eager `if (v < 0) v *= alpha` does. A plain scalar loop here compiles
// to a compare-and-branch that mispredicts on about half of the elements.
METRO_NOALLOC
void LeakyReluInto(const TensorView& x, const TensorView& out, float alpha) {
  assert(x.size() == out.size());
  const float* xd = x.data().data();
  float* od = out.data().data();
  const std::size_t size = x.size();
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128 a = _mm_set1_ps(alpha);
  const __m128 zero = _mm_setzero_ps();
  for (; i + 4 <= size; i += 4) {
    const __m128 v = _mm_loadu_ps(xd + i);
    const __m128 neg = _mm_cmplt_ps(v, zero);
    _mm_storeu_ps(od + i, _mm_or_ps(_mm_and_ps(neg, _mm_mul_ps(v, a)),
                                    _mm_andnot_ps(neg, v)));
  }
#endif
  for (; i < size; ++i) {
    const float v = xd[i];
    od[i] = v < 0.0f ? v * alpha : v;
  }
}

METRO_NOALLOC
void SigmoidInto(const TensorView& x, const TensorView& out) {
  assert(x.size() == out.size());
  const std::span<float> xd = x.data();
  const std::span<float> od = out.data();
  for (std::size_t i = 0; i < xd.size(); ++i) {
    od[i] = 1.0f / (1.0f + std::exp(-xd[i]));
  }
}

METRO_NOALLOC
void TanhInto(const TensorView& x, const TensorView& out) {
  assert(x.size() == out.size());
  const std::span<float> xd = x.data();
  const std::span<float> od = out.data();
  for (std::size_t i = 0; i < xd.size(); ++i) od[i] = std::tanh(xd[i]);
}

METRO_NOALLOC
void BatchNormFoldScaleShift(std::span<const float> gamma,
                             std::span<const float> beta,
                             std::span<const float> mean,
                             std::span<const float> var, float eps,
                             std::span<float> scale, std::span<float> shift) {
  assert(gamma.size() == beta.size() && gamma.size() == mean.size() &&
         gamma.size() == var.size() && gamma.size() == scale.size() &&
         gamma.size() == shift.size());
  for (std::size_t ch = 0; ch < gamma.size(); ++ch) {
    scale[ch] = gamma[ch] / std::sqrt(var[ch] + eps);
    shift[ch] = beta[ch] - mean[ch] * scale[ch];
  }
}

METRO_NOALLOC
void BatchNormInferenceInto(const TensorView& x, std::span<const float> scale,
                            std::span<const float> shift,
                            const TensorView& out) {
  assert(x.size() == out.size());
  const int c = int(scale.size());
  assert(int(shift.size()) == c && x.size() % std::size_t(c) == 0);
  const std::size_t rows = x.size() / std::size_t(c);
  const float* xd = x.data().data();
  float* od = out.data().data();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = &xd[r * c];
    float* orow = &od[r * c];
    int ch = 0;
#if defined(__SSE2__)
    // Four channels at a time, the multiply and the add as two rounded
    // instructions each, as in the scalar `x * scale + shift`.
    for (; ch + 4 <= c; ch += 4) {
      const __m128 v =
          _mm_mul_ps(_mm_loadu_ps(xr + ch), _mm_loadu_ps(&scale[ch]));
      _mm_storeu_ps(orow + ch, _mm_add_ps(v, _mm_loadu_ps(&shift[ch])));
    }
#endif
    for (; ch < c; ++ch) orow[ch] = xr[ch] * scale[ch] + shift[ch];
  }
}

}  // namespace metro::tensor
