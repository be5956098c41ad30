#ifndef EALGAP_TENSOR_KERNELS_IMPL_H_
#define EALGAP_TENSOR_KERNELS_IMPL_H_

/// Generic kernel bodies, templated on a vec.h backend. Each backend TU
/// (kernels_{scalar,sse2,avx2}.cc) instantiates MakeTable<B>() once; the
/// TU carries the ISA compile flags, this header carries the algorithms.
///
/// Determinism rules every kernel here follows (see vec.h for why this
/// yields bit-identical results across backends, lane widths and threads):
///  - elementwise kernels are per-element pure: the main loop runs the
///    backend instantiation, the remainder runs the VScalar instantiation
///    of the SAME functor, so element i's value never depends on lane
///    position or chunk boundaries;
///  - reductions accumulate into 4 interleaved double lanes (lane = i mod
///    4 within the block), remainder elements join their lane after the
///    vector loop, and lanes combine in fixed order;
///  - matmul keeps one fixed expression tree per output element, with the
///    column loop (not the accumulation) vectorized.

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "tensor/kernels.h"
#include "tensor/vec.h"

namespace ealgap {
namespace kernels {
namespace impl {

using vec::VScalar;

// --- aligned-access selection ---
//
// Tensor storage and serve buffers are 64-byte aligned (common/
// aligned_alloc.h), and ops.cc chunks ranges at multiples of large powers
// of two, so in practice most kernel calls see 64-byte-aligned pointers.
// Each dispatching wrapper below checks its operand pointers at runtime
// and, when ALL of them are 64-byte aligned, runs the same skeleton
// instantiated over AlignedIO<B> — identical arithmetic, aligned
// load/store instructions. Results are bit-identical by construction:
// LoadA reads the same bits Load reads; only the instruction encoding
// (and the fault-on-misalignment contract) differs. The parity tests in
// vec_test.cc verify this at offsets 0..3 anyway.

inline bool Aligned64(const void* p) {
  return (reinterpret_cast<std::uintptr_t>(p) & 63u) == 0;
}

/// Backend adapter: same arithmetic as B, aligned loads/stores.
template <class B>
struct AlignedIO : B {
  static typename B::V Load(const float* p) { return B::LoadA(p); }
  static void Store(float* p, typename B::V v) { B::StoreA(p, v); }
};

// --- elementwise op functors (vector and scalar form via backend B) ---

struct OpAdd {
  template <class B>
  static typename B::V Run(typename B::V a, typename B::V b) {
    return B::Add(a, b);
  }
};
struct OpSub {
  template <class B>
  static typename B::V Run(typename B::V a, typename B::V b) {
    return B::Sub(a, b);
  }
};
struct OpMul {
  template <class B>
  static typename B::V Run(typename B::V a, typename B::V b) {
    return B::Mul(a, b);
  }
};
struct OpDiv {
  template <class B>
  static typename B::V Run(typename B::V a, typename B::V b) {
    return B::Div(a, b);
  }
};
struct OpMax {
  template <class B>
  static typename B::V Run(typename B::V a, typename B::V b) {
    return B::SMax(a, b);
  }
};

struct OpNeg {
  template <class B>
  static typename B::V Run(typename B::V a) {
    return B::Xor(a, B::Set1(std::bit_cast<float>(0x80000000u)));
  }
};
struct OpAbs {
  template <class B>
  static typename B::V Run(typename B::V a) {
    return B::AndNot(B::Set1(std::bit_cast<float>(0x80000000u)), a);
  }
};
struct OpSign {  // x > 0 ? 1 : (x < 0 ? -1 : 0); NaN/±0 -> 0
  template <class B>
  static typename B::V Run(typename B::V a) {
    const typename B::V zero = B::Set1(0.f);
    const typename B::V pos = B::And(B::CmpGt(a, zero), B::Set1(1.f));
    const typename B::V neg = B::And(B::CmpLt(a, zero), B::Set1(-1.f));
    return B::Or(pos, neg);
  }
};
struct OpSqrt {
  template <class B>
  static typename B::V Run(typename B::V a) {
    return B::Sqrt(a);
  }
};
struct OpRelu {  // x > 0 ? x : 0 (NaN -> 0, matching the historical op)
  template <class B>
  static typename B::V Run(typename B::V a) {
    return B::And(B::CmpGt(a, B::Set1(0.f)), a);
  }
};
struct OpExp {
  template <class B>
  static typename B::V Run(typename B::V a) {
    return vec::VExp<B>(a);
  }
};
struct OpTanh {
  template <class B>
  static typename B::V Run(typename B::V a) {
    return vec::VTanh<B>(a);
  }
};
struct OpSigmoid {
  template <class B>
  static typename B::V Run(typename B::V a) {
    return vec::VSigmoid<B>(a);
  }
};
struct OpClamp {  // min(hi, max(lo, x)) with std::min/max semantics
  template <class B>
  static typename B::V Run(typename B::V a, typename B::V lo,
                           typename B::V hi) {
    return B::SMin(B::SMax(lo, a), hi);
  }
};

// --- loop skeletons ---

template <class B, class Op>
void EwBinaryVV(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    B::Store(o + i, Op::template Run<B>(B::Load(a + i), B::Load(b + i)));
  }
  for (; i < n; ++i) o[i] = Op::template Run<VScalar>(a[i], b[i]);
}

template <class B, class Op>
void EwBinaryVS(const float* a, float s, float* o, int64_t n) {
  const typename B::V vs = B::Set1(s);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    B::Store(o + i, Op::template Run<B>(B::Load(a + i), vs));
  }
  for (; i < n; ++i) o[i] = Op::template Run<VScalar>(a[i], s);
}

template <class B, class Op>
void EwBinarySV(float s, const float* b, float* o, int64_t n) {
  const typename B::V vs = B::Set1(s);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    B::Store(o + i, Op::template Run<B>(vs, B::Load(b + i)));
  }
  for (; i < n; ++i) o[i] = Op::template Run<VScalar>(s, b[i]);
}

template <class B, class Op>
void EwUnary(const float* a, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    B::Store(o + i, Op::template Run<B>(B::Load(a + i)));
  }
  for (; i < n; ++i) o[i] = Op::template Run<VScalar>(a[i]);
}

template <class B>
void ClampK(const float* a, float lo, float hi, float* o, int64_t n) {
  const typename B::V vlo = B::Set1(lo), vhi = B::Set1(hi);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    B::Store(o + i, OpClamp::Run<B>(B::Load(a + i), vlo, vhi));
  }
  for (; i < n; ++i) o[i] = OpClamp::Run<VScalar>(a[i], lo, hi);
}

// --- in-place ---

template <class B>
void AddIp(float* a, const float* b, int64_t n) {
  EwBinaryVV<B, OpAdd>(a, b, a, n);
}

template <class B>
void AxpyIp(float* a, float alpha, const float* b, int64_t n) {
  const typename B::V va = B::Set1(alpha);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    // a[i] + alpha*b[i]: one multiply, one add — never contracted (vec.h).
    B::Store(a + i, B::Add(B::Load(a + i), B::Mul(va, B::Load(b + i))));
  }
  for (; i < n; ++i) a[i] = a[i] + alpha * b[i];
}

template <class B>
void ScaleIp(float* a, float s, int64_t n) {
  EwBinaryVS<B, OpMul>(a, s, a, n);
}

template <class B>
void ReluIp(float* a, int64_t n) {
  EwUnary<B, OpRelu>(a, a, n);
}

template <class B>
void ClampIp(float* a, float lo, float hi, int64_t n) {
  ClampK<B>(a, lo, hi, a, n);
}

// --- reductions ---

/// Sum of p[0..n) with lane (i mod 4) double accumulators, combined in
/// lane order. Bit-identical to the VScalar instantiation by design.
template <class B>
double SumBlock(const float* p, int64_t n) {
  typename B::Dacc acc = B::DZero();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) B::DAcc4(acc, p + i);
  double lanes[4];
  B::DStore(acc, lanes);
  for (; i < n; ++i) lanes[i & 3] += static_cast<double>(p[i]);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

template <class B>
double SumSqBlock(const float* p, int64_t n) {
  typename B::Dacc acc = B::DZero();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) B::DAcc4Sq(acc, p + i);
  double lanes[4];
  B::DStore(acc, lanes);
  for (; i < n; ++i) {
    lanes[i & 3] += static_cast<double>(p[i]) * static_cast<double>(p[i]);
  }
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

/// Max of p[0..n), n >= 1. Max over reals is order-insensitive, so the
/// lane tree is free to differ from sequential order — results are still
/// bit-identical across backends for NaN-free input (the documented
/// requirement; guards upstream reject NaN).
template <class B>
float MaxBlock(const float* p, int64_t n) {
  int64_t i = 0;
  float m;
  if (n >= B::kWidth) {
    typename B::V acc = B::Load(p);
    for (i = B::kWidth; i + B::kWidth <= n; i += B::kWidth) {
      acc = B::SMax(acc, B::Load(p + i));
    }
    float lanes[B::kWidth];
    B::Store(lanes, acc);
    m = lanes[0];
    for (int j = 1; j < B::kWidth; ++j) m = VScalar::SMax(m, lanes[j]);
  } else {
    m = p[0];
    i = 1;
  }
  for (; i < n; ++i) m = VScalar::SMax(m, p[i]);
  return m;
}

// --- fused rows ---

template <class B>
void SoftmaxRow(const float* src, float* dst, int64_t n) {
  const float mx = MaxBlock<B>(src, n);
  // dst = exp(src - mx), elementwise pure.
  const typename B::V vmx = B::Set1(mx);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    B::Store(dst + i, vec::VExp<B>(B::Sub(B::Load(src + i), vmx)));
  }
  for (; i < n; ++i) dst[i] = vec::VExp<VScalar>(src[i] - mx);
  // Deterministic double-lane denominator, then an elementwise scale.
  const float inv = static_cast<float>(1.0 / SumBlock<B>(dst, n));
  ScaleIp<B>(dst, inv, n);
}

/// softmax_row applied to every column of the (n, lanes) row-major matrix
/// src, vectorized across columns. Per column it is SoftmaxRow's
/// arithmetic: the max (taken sequentially — for NaN-free input the same
/// value as MaxBlock's, up to the sign of a zero max, which cannot change
/// VExp(x - max)), VExp of the differences, the 4-lane double sum of
/// SumBlock combined in lane order, and one multiply by the float inverse.
template <class B>
void SoftmaxCols(const float* src, float* dst, int64_t n, int64_t lanes) {
  using V = typename B::V;
  constexpr int64_t kColBlock = 64;
  float inv[kColBlock];
  for (int64_t c0 = 0; c0 < lanes; c0 += kColBlock) {
    const int64_t c1 = std::min(lanes, c0 + kColBlock);
    int64_t c = c0;
    // dst = exp(src - max), a vector of columns at a time.
    for (; c + B::kWidth <= c1; c += B::kWidth) {
      V mx = B::Load(src + c);
      for (int64_t j = 1; j < n; ++j) {
        mx = B::SMax(mx, B::Load(src + j * lanes + c));
      }
      for (int64_t j = 0; j < n; ++j) {
        B::Store(dst + j * lanes + c,
                 vec::VExp<B>(B::Sub(B::Load(src + j * lanes + c), mx)));
      }
    }
    for (; c < c1; ++c) {
      float mx = src[c];
      for (int64_t j = 1; j < n; ++j) {
        mx = VScalar::SMax(mx, src[j * lanes + c]);
      }
      for (int64_t j = 0; j < n; ++j) {
        dst[j * lanes + c] = vec::VExp<VScalar>(src[j * lanes + c] - mx);
      }
    }
    for (c = c0; c < c1; ++c) {
      double acc[4] = {0.0, 0.0, 0.0, 0.0};
      for (int64_t j = 0; j < n; ++j) {
        acc[j & 3] += static_cast<double>(dst[j * lanes + c]);
      }
      inv[c - c0] =
          static_cast<float>(1.0 / (((acc[0] + acc[1]) + acc[2]) + acc[3]));
    }
    for (int64_t j = 0; j < n; ++j) {
      float* row = dst + j * lanes;
      c = c0;
      for (; c + B::kWidth <= c1; c += B::kWidth) {
        B::Store(row + c, B::Mul(B::Load(row + c), B::Load(inv + (c - c0))));
      }
      for (; c < c1; ++c) row[c] = row[c] * inv[c - c0];
    }
  }
}

template <class B>
void ExpPdfRow(const float* x, float lambda, float* o, int64_t n) {
  const typename B::V vneg = B::Set1(-lambda);
  const typename B::V vlam = B::Set1(lambda);
  const typename B::V zero = B::Set1(0.f);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    const typename B::V v = B::Load(x + i);
    const typename B::V pdf = B::Mul(vlam, vec::VExp<B>(B::Mul(vneg, v)));
    B::Store(o + i, B::Select(B::CmpLt(v, zero), zero, pdf));
  }
  for (; i < n; ++i) {
    const float pdf = lambda * vec::VExp<VScalar>(-lambda * x[i]);
    o[i] = x[i] < 0.f ? 0.f : pdf;
  }
}

template <class B>
void NormalPdfRow(const float* x, float mean, float inv_stddev, float inv_norm,
                  float* o, int64_t n) {
  const typename B::V vmean = B::Set1(mean);
  const typename B::V vinv = B::Set1(inv_stddev);
  const typename B::V vnorm = B::Set1(inv_norm);
  const typename B::V vhalf = B::Set1(-0.5f);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    const typename B::V z = B::Mul(B::Sub(B::Load(x + i), vmean), vinv);
    const typename B::V e = vec::VExp<B>(B::Mul(vhalf, B::Mul(z, z)));
    B::Store(o + i, B::Mul(vnorm, e));
  }
  for (; i < n; ++i) {
    const float z = (x[i] - mean) * inv_stddev;
    o[i] = inv_norm * vec::VExp<VScalar>(-0.5f * (z * z));
  }
}

// --- matmul microkernel ---

/// Output columns [j, j + T*W) of row `orow`, T in 1..4 vectors: loads the
/// running sums once, folds in every p-group in order, stores once.
template <class B, int T>
inline void MatMulTile(const float* arow, int64_t sa_p, const float* pb,
                       float* orow, int64_t j, int64_t k, int64_t n) {
  using V = typename B::V;
  constexpr int W = B::kWidth;
  static_assert(T >= 1 && T <= 4);
  // One named register per vector; the sums past T are dead code.
  V c0 = B::Load(orow + j), c1 = c0, c2 = c0, c3 = c0;
  if constexpr (T >= 2) c1 = B::Load(orow + j + W);
  if constexpr (T >= 3) c2 = B::Load(orow + j + 2 * W);
  if constexpr (T >= 4) c3 = B::Load(orow + j + 3 * W);
  int64_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const V a0 = B::Set1(arow[p * sa_p]);
    const V a1 = B::Set1(arow[(p + 1) * sa_p]);
    const V a2 = B::Set1(arow[(p + 2) * sa_p]);
    const V a3 = B::Set1(arow[(p + 3) * sa_p]);
    const float* b0 = pb + p * n + j;
    const float* b1 = b0 + n;
    const float* b2 = b1 + n;
    const float* b3 = b2 + n;
    auto group = [&](int64_t o) {
      V s = B::Mul(a0, B::Load(b0 + o));
      s = B::Add(s, B::Mul(a1, B::Load(b1 + o)));
      s = B::Add(s, B::Mul(a2, B::Load(b2 + o)));
      return B::Add(s, B::Mul(a3, B::Load(b3 + o)));
    };
    c0 = B::Add(c0, group(0));
    if constexpr (T >= 2) c1 = B::Add(c1, group(W));
    if constexpr (T >= 3) c2 = B::Add(c2, group(2 * W));
    if constexpr (T >= 4) c3 = B::Add(c3, group(3 * W));
  }
  for (; p < k; ++p) {
    const V a = B::Set1(arow[p * sa_p]);
    const float* b = pb + p * n + j;
    c0 = B::Add(c0, B::Mul(a, B::Load(b)));
    if constexpr (T >= 2) c1 = B::Add(c1, B::Mul(a, B::Load(b + W)));
    if constexpr (T >= 3) c2 = B::Add(c2, B::Mul(a, B::Load(b + 2 * W)));
    if constexpr (T >= 4) c3 = B::Add(c3, B::Mul(a, B::Load(b + 3 * W)));
  }
  B::Store(orow + j, c0);
  if constexpr (T >= 2) B::Store(orow + j + W, c1);
  if constexpr (T >= 3) B::Store(orow + j + 2 * W, c2);
  if constexpr (T >= 4) B::Store(orow + j + 3 * W, c3);
}

/// Rows [i0, i1) of a (m,k)x(k,n) product accumulated into po, vectorized
/// across output columns j. Element (i, p) of A is read at
/// pa[i * sa_i + p * sa_p] — (k, 1) for row-major A, (1, m) for A stored
/// transposed — always through a scalar broadcast, so the stride changes
/// which float is read, never the arithmetic. Per output element the
/// expression tree is fixed: k is split into groups of four, each group
/// summed as ((a0*b0 + a1*b1) + a2*b2) + a3*b3 and added onto the running
/// element, then the leftover products added one at a time. Scalar, SSE2
/// and AVX2 therefore produce identical bits, both A layouts do, and so
/// does any column tiling: tiles of up to four vectors keep the running
/// sums in registers across the whole k loop, reading each B element once
/// per row.
template <class B>
void MatMulRowsStrided(const float* pa, int64_t sa_i, int64_t sa_p,
                       const float* pb, float* po, int64_t i0, int64_t i1,
                       int64_t k, int64_t n) {
  constexpr int64_t kColBlock = 256;
  constexpr int W = B::kWidth;
  for (int64_t j0 = 0; j0 < n; j0 += kColBlock) {
    const int64_t j1 = std::min(n, j0 + kColBlock);
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + i * sa_i;
      float* orow = po + i * n;
      int64_t j = j0;
      if constexpr (W > 1) {
        for (; j + 4 * W <= j1; j += 4 * W) {
          MatMulTile<B, 4>(arow, sa_p, pb, orow, j, k, n);
        }
        switch ((j1 - j) / W) {  // the last 1-3 whole vectors, one tile
          case 3:
            MatMulTile<B, 3>(arow, sa_p, pb, orow, j, k, n);
            j += 3 * W;
            break;
          case 2:
            MatMulTile<B, 2>(arow, sa_p, pb, orow, j, k, n);
            j += 2 * W;
            break;
          case 1:
            MatMulTile<B, 1>(arow, sa_p, pb, orow, j, k, n);
            j += W;
            break;
          default:
            break;
        }
      }
      for (; j < j1; ++j) {
        MatMulTile<VScalar, 1>(arow, sa_p, pb, orow, j, k, n);
      }
    }
  }
}

// --- contiguous copy ---

/// memcpy in kernel clothing: routes Tensor::Slice / CopyFrom row copies
/// through the dispatch table so they show up in the same profiling layer
/// as everything else. Destination alignment is whatever the caller's
/// buffer has (fresh tensor storage: 64 bytes); the source may be an
/// arbitrary row offset — memcpy has no alignment requirement, so this
/// kernel PRESERVES no alignment guarantee beyond the destination's own.
template <class B>
void CopyK(const float* src, float* dst, int64_t n) {
  std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}

// --- aligned-path dispatchers (see AlignedIO above) ---
//
// `if constexpr (B::kWidth > 1)` keeps the scalar table free of a useless
// double instantiation: scalar loads have no alignment requirement.

template <class B, class Op>
void EwBinaryVVD(const float* a, const float* b, float* o, int64_t n) {
  if constexpr (B::kWidth > 1) {
    if (Aligned64(a) && Aligned64(b) && Aligned64(o)) {
      return EwBinaryVV<AlignedIO<B>, Op>(a, b, o, n);
    }
  }
  EwBinaryVV<B, Op>(a, b, o, n);
}

template <class B, class Op>
void EwBinaryVSD(const float* a, float s, float* o, int64_t n) {
  if constexpr (B::kWidth > 1) {
    if (Aligned64(a) && Aligned64(o)) {
      return EwBinaryVS<AlignedIO<B>, Op>(a, s, o, n);
    }
  }
  EwBinaryVS<B, Op>(a, s, o, n);
}

template <class B, class Op>
void EwBinarySVD(float s, const float* b, float* o, int64_t n) {
  if constexpr (B::kWidth > 1) {
    if (Aligned64(b) && Aligned64(o)) {
      return EwBinarySV<AlignedIO<B>, Op>(s, b, o, n);
    }
  }
  EwBinarySV<B, Op>(s, b, o, n);
}

template <class B, class Op>
void EwUnaryD(const float* a, float* o, int64_t n) {
  if constexpr (B::kWidth > 1) {
    if (Aligned64(a) && Aligned64(o)) {
      return EwUnary<AlignedIO<B>, Op>(a, o, n);
    }
  }
  EwUnary<B, Op>(a, o, n);
}

template <class B>
void ClampKD(const float* a, float lo, float hi, float* o, int64_t n) {
  if constexpr (B::kWidth > 1) {
    if (Aligned64(a) && Aligned64(o)) {
      return ClampK<AlignedIO<B>>(a, lo, hi, o, n);
    }
  }
  ClampK<B>(a, lo, hi, o, n);
}

template <class B>
void AddIpD(float* a, const float* b, int64_t n) {
  EwBinaryVVD<B, OpAdd>(a, b, a, n);
}

template <class B>
void AxpyIpD(float* a, float alpha, const float* b, int64_t n) {
  if constexpr (B::kWidth > 1) {
    if (Aligned64(a) && Aligned64(b)) {
      return AxpyIp<AlignedIO<B>>(a, alpha, b, n);
    }
  }
  AxpyIp<B>(a, alpha, b, n);
}

template <class B>
void ScaleIpD(float* a, float s, int64_t n) {
  EwBinaryVSD<B, OpMul>(a, s, a, n);
}

template <class B>
void ReluIpD(float* a, int64_t n) {
  EwUnaryD<B, OpRelu>(a, a, n);
}

template <class B>
void ClampIpD(float* a, float lo, float hi, int64_t n) {
  ClampKD<B>(a, lo, hi, a, n);
}

template <class B>
void SoftmaxRowD(const float* src, float* dst, int64_t n) {
  if constexpr (B::kWidth > 1) {
    if (Aligned64(src) && Aligned64(dst)) {
      return SoftmaxRow<AlignedIO<B>>(src, dst, n);
    }
  }
  SoftmaxRow<B>(src, dst, n);
}

template <class B>
void ExpPdfRowD(const float* x, float lambda, float* o, int64_t n) {
  if constexpr (B::kWidth > 1) {
    if (Aligned64(x) && Aligned64(o)) {
      return ExpPdfRow<AlignedIO<B>>(x, lambda, o, n);
    }
  }
  ExpPdfRow<B>(x, lambda, o, n);
}

template <class B>
void NormalPdfRowD(const float* x, float mean, float inv_stddev,
                   float inv_norm, float* o, int64_t n) {
  if constexpr (B::kWidth > 1) {
    if (Aligned64(x) && Aligned64(o)) {
      return NormalPdfRow<AlignedIO<B>>(x, mean, inv_stddev, inv_norm, o, n);
    }
  }
  NormalPdfRow<B>(x, mean, inv_stddev, inv_norm, o, n);
}

/// The B-row loads of MatMulRowsStrided walk pb/po at offsets p*n + j with
/// j a multiple of kWidth, so every load is aligned iff the bases are
/// 64-byte aligned AND a row stride of n floats preserves that (n % 16 ==
/// 0, i.e. 64 bytes). A is consumed through Set1 broadcasts — no
/// requirement.
template <class B>
void MatMulStridedD(const float* pa, int64_t sa_i, int64_t sa_p,
                    const float* pb, float* po, int64_t i0, int64_t i1,
                    int64_t k, int64_t n) {
  if constexpr (B::kWidth > 1) {
    if (Aligned64(pb) && Aligned64(po) && (n & 15) == 0) {
      return MatMulRowsStrided<AlignedIO<B>>(pa, sa_i, sa_p, pb, po, i0, i1,
                                             k, n);
    }
  }
  MatMulRowsStrided<B>(pa, sa_i, sa_p, pb, po, i0, i1, k, n);
}

template <class B>
void MatMulRowsD(const float* pa, const float* pb, float* po, int64_t i0,
                 int64_t i1, int64_t k, int64_t n) {
  MatMulStridedD<B>(pa, k, 1, pb, po, i0, i1, k, n);
}

template <class B>
void MatMulTnRowsD(const float* pa, const float* pb, float* po, int64_t i0,
                   int64_t i1, int64_t m, int64_t k, int64_t n) {
  MatMulStridedD<B>(pa, 1, m, pb, po, i0, i1, k, n);
}

template <class B>
KernelTable MakeTable(Backend backend) {
  KernelTable t;
  t.backend = backend;
  t.add_vv = &EwBinaryVVD<B, OpAdd>;
  t.sub_vv = &EwBinaryVVD<B, OpSub>;
  t.mul_vv = &EwBinaryVVD<B, OpMul>;
  t.div_vv = &EwBinaryVVD<B, OpDiv>;
  t.max_vv = &EwBinaryVVD<B, OpMax>;
  t.add_vs = &EwBinaryVSD<B, OpAdd>;
  t.sub_vs = &EwBinaryVSD<B, OpSub>;
  t.sub_sv = &EwBinarySVD<B, OpSub>;
  t.mul_vs = &EwBinaryVSD<B, OpMul>;
  t.div_vs = &EwBinaryVSD<B, OpDiv>;
  t.div_sv = &EwBinarySVD<B, OpDiv>;
  t.max_vs = &EwBinaryVSD<B, OpMax>;
  t.max_sv = &EwBinarySVD<B, OpMax>;
  t.neg = &EwUnaryD<B, OpNeg>;
  t.abs = &EwUnaryD<B, OpAbs>;
  t.sign = &EwUnaryD<B, OpSign>;
  t.sqrt = &EwUnaryD<B, OpSqrt>;
  t.relu = &EwUnaryD<B, OpRelu>;
  t.clamp = &ClampKD<B>;
  t.exp = &EwUnaryD<B, OpExp>;
  t.tanh = &EwUnaryD<B, OpTanh>;
  t.sigmoid = &EwUnaryD<B, OpSigmoid>;
  t.add_ip = &AddIpD<B>;
  t.axpy_ip = &AxpyIpD<B>;
  t.scale_ip = &ScaleIpD<B>;
  t.relu_ip = &ReluIpD<B>;
  t.clamp_ip = &ClampIpD<B>;
  t.sum_block = &SumBlock<B>;
  t.sumsq_block = &SumSqBlock<B>;
  t.max_block = &MaxBlock<B>;
  t.softmax_row = &SoftmaxRowD<B>;
  t.softmax_cols = &SoftmaxCols<B>;
  t.exp_pdf_row = &ExpPdfRowD<B>;
  t.normal_pdf_row = &NormalPdfRowD<B>;
  t.copy = &CopyK<B>;
  t.matmul_rows = &MatMulRowsD<B>;
  t.matmul_tn_rows = &MatMulTnRowsD<B>;
  return t;
}

}  // namespace impl
}  // namespace kernels
}  // namespace ealgap

#endif  // EALGAP_TENSOR_KERNELS_IMPL_H_
