#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "tensor/kernels.h"

namespace ealgap {
namespace ops {

namespace {

using kernels::KernelTable;

/// Elementwise kernels split into chunks of at least this many elements;
/// anything smaller runs serially with zero threading overhead.
constexpr int64_t kElemGrain = 1 << 12;

/// MatMul-family kernels parallelize only when one chunk carries at least
/// this many multiply-adds.
constexpr int64_t kMatMulGrainOps = 1 << 15;

/// Fixed reduction block size. Chunk boundaries of reductions must NOT
/// depend on the thread count, or results would change with it; partial
/// sums over these fixed blocks are combined in block order.
constexpr int64_t kReduceBlock = 1 << 14;

/// The three row forms a broadcast binary op decomposes into; filled from
/// the active KernelTable per op. All three are bit-identical across SIMD
/// backends, so broadcasting never breaks the determinism contract.
struct BinK {
  void (*vv)(const float*, const float*, float*, int64_t);
  void (*vs)(const float*, float, float*, int64_t);
  void (*sv)(float, const float*, float*, int64_t);
};

/// Walks the broadcast iteration space of (a, b) and applies `row` to each
/// contiguous output row. `row(ra, sa, rb, sb, ro, inner)` receives the
/// row base pointers, the inner strides (1 = contiguous, 0 = broadcast
/// along the inner dim), and the row length.
template <typename RowFn>
Tensor BroadcastRows(const Tensor& a, const Tensor& b, RowFn row) {
  const Shape out_shape = BroadcastShape(a.shape(), b.shape());
  Tensor out(out_shape);
  const int64_t rank = out.ndim();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  if (rank == 0) {  // two rank-0 scalars
    row(pa, 1, pb, 1, po, 1);
    return out;
  }
  // Right-aligned strides for a and b (0 = broadcast along that dim).
  // Fixed-size stack arrays (rank <= Shape::kMaxRank): no per-op heap
  // traffic — this runs on the zero-allocation serve path.
  int64_t ta[Shape::kMaxRank] = {0};
  int64_t tb[Shape::kMaxRank] = {0};
  {
    int64_t stride = 1;
    for (int64_t i = a.ndim() - 1, j = rank - 1; i >= 0; --i, --j) {
      ta[j] = a.shape()[i] == 1 ? 0 : stride;
      stride *= a.shape()[i];
    }
    stride = 1;
    for (int64_t i = b.ndim() - 1, j = rank - 1; i >= 0; --i, --j) {
      tb[j] = b.shape()[i] == 1 ? 0 : stride;
      stride *= b.shape()[i];
    }
  }
  // The innermost dim is contiguous (stride 1) or broadcast (stride 0) for
  // both inputs, so each output row is one kernel call; the multi-index
  // bookkeeping only ever walks the outer dims, once per row.
  const int64_t inner = out_shape[rank - 1];
  const int64_t rows = out.numel() / inner;
  const int64_t sa = ta[rank - 1], sb = tb[rank - 1];
  const int64_t grain = std::max<int64_t>(1, kElemGrain / inner);
  ParallelFor(0, rows, grain, [&](int64_t r0, int64_t r1) {
    // Seed the outer multi-index and input offsets for row r0.
    int64_t idx[Shape::kMaxRank] = {0};
    int64_t oa = 0, ob = 0;
    for (int64_t d = rank - 2, rem = r0; d >= 0; --d) {
      idx[d] = rem % out_shape[d];
      rem /= out_shape[d];
      oa += idx[d] * ta[d];
      ob += idx[d] * tb[d];
    }
    for (int64_t r = r0; r < r1; ++r) {
      row(pa + oa, sa, pb + ob, sb, po + r * inner, inner);
      // Advance the outer multi-index (row-major) and the two offsets.
      for (int64_t d = rank - 2; d >= 0; --d) {
        ++idx[d];
        oa += ta[d];
        ob += tb[d];
        if (idx[d] < out_shape[d]) break;
        idx[d] = 0;
        oa -= ta[d] * out_shape[d];
        ob -= tb[d] * out_shape[d];
      }
    }
  });
  return out;
}

/// Broadcast binary op on the SIMD kernel layer. The same-shape fast path
/// skips all stride bookkeeping and fans flat chunks across the pool.
Tensor BroadcastBinaryK(const Tensor& a, const Tensor& b, const BinK& k) {
  if (a.SameShape(b)) {
    Tensor out(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    ParallelFor(0, out.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
      k.vv(pa + i0, pb + i0, po + i0, i1 - i0);
    });
    return out;
  }
  return BroadcastRows(
      a, b,
      [&k](const float* ra, int64_t sa, const float* rb, int64_t sb, float* ro,
           int64_t inner) {
        if (sa == 1 && sb == 1) {
          k.vv(ra, rb, ro, inner);
        } else if (sa == 1) {  // b constant along the inner dim
          k.vs(ra, rb[0], ro, inner);
        } else if (sb == 1) {  // a constant along the inner dim
          k.sv(ra[0], rb, ro, inner);
        } else {  // both broadcast => inner == 1
          k.vv(ra, rb, ro, 1);
        }
      });
}

/// Generic scalar fallback for ops with no dedicated kernel (Log,
/// PowScalar, BroadcastTo). Not SIMD-dispatched, hence trivially
/// backend-independent.
template <typename F>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, F f) {
  if (a.SameShape(b)) {
    Tensor out(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    ParallelFor(0, out.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) po[i] = f(pa[i], pb[i]);
    });
    return out;
  }
  return BroadcastRows(a, b,
                       [&f](const float* ra, int64_t sa, const float* rb,
                            int64_t sb, float* ro, int64_t inner) {
                         for (int64_t j = 0; j < inner; ++j) {
                           ro[j] = f(ra[sa == 1 ? j : 0], rb[sb == 1 ? j : 0]);
                         }
                       });
}

template <typename F>
Tensor Unary(const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) po[i] = f(pa[i]);
  });
  return out;
}

/// Unary op on a table kernel, fanned across the pool.
Tensor UnaryK(const Tensor& a,
              void (*fn)(const float*, float*, int64_t)) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
    fn(pa + i0, po + i0, i1 - i0);
  });
  return out;
}

/// Unary op with one float parameter (AddScalar/MulScalar/MaximumScalar).
Tensor UnaryKs(const Tensor& a, float s,
               void (*fn)(const float*, float, float*, int64_t)) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
    fn(pa + i0, s, po + i0, i1 - i0);
  });
  return out;
}

/// Deterministic parallel reduction: partial results over fixed-size blocks
/// (independent of the thread count), combined in block order.
template <typename BlockFn>
double BlockedReduce(int64_t n, BlockFn block_sum) {
  if (n <= 0) return 0.0;
  const int64_t nblocks = (n + kReduceBlock - 1) / kReduceBlock;
  if (nblocks <= 1 || InParallelRegion()) return block_sum(0, n);
  std::vector<double> partial(nblocks, 0.0);
  ParallelFor(0, nblocks, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t b = c * kReduceBlock;
      partial[c] = block_sum(b, std::min(n, b + kReduceBlock));
    }
  });
  double acc = 0.0;
  for (double v : partial) acc += v;
  return acc;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  const KernelTable& t = kernels::Active();
  // add is commutative, so the scalar-side variant serves both row forms.
  return BroadcastBinaryK(
      a, b,
      {t.add_vv, t.add_vs,
       [](float s, const float* p, float* o, int64_t n) {
         kernels::Active().add_vs(p, s, o, n);
       }});
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  const KernelTable& t = kernels::Active();
  return BroadcastBinaryK(a, b, {t.sub_vv, t.sub_vs, t.sub_sv});
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  const KernelTable& t = kernels::Active();
  return BroadcastBinaryK(
      a, b,
      {t.mul_vv, t.mul_vs,
       [](float s, const float* p, float* o, int64_t n) {
         kernels::Active().mul_vs(p, s, o, n);
       }});
}
Tensor Div(const Tensor& a, const Tensor& b) {
  const KernelTable& t = kernels::Active();
  return BroadcastBinaryK(a, b, {t.div_vv, t.div_vs, t.div_sv});
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  const KernelTable& t = kernels::Active();
  return BroadcastBinaryK(a, b, {t.max_vv, t.max_vs, t.max_sv});
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryKs(a, s, kernels::Active().add_vs);
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryKs(a, s, kernels::Active().mul_vs);
}
Tensor PowScalar(const Tensor& a, float p) {
  return Unary(a, [p](float x) { return std::pow(x, p); });
}
Tensor MaximumScalar(const Tensor& a, float s) {
  return UnaryKs(a, s, kernels::Active().max_vs);
}
Tensor Clamp(const Tensor& a, float lo, float hi) {
  const KernelTable& t = kernels::Active();
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
    t.clamp(pa + i0, lo, hi, po + i0, i1 - i0);
  });
  return out;
}

Tensor Neg(const Tensor& a) { return UnaryK(a, kernels::Active().neg); }
Tensor Exp(const Tensor& a) { return UnaryK(a, kernels::Active().exp); }
Tensor Log(const Tensor& a) {
  return Unary(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) { return UnaryK(a, kernels::Active().sqrt); }
Tensor Tanh(const Tensor& a) { return UnaryK(a, kernels::Active().tanh); }
Tensor Sigmoid(const Tensor& a) {
  return UnaryK(a, kernels::Active().sigmoid);
}
Tensor Relu(const Tensor& a) { return UnaryK(a, kernels::Active().relu); }
Tensor Abs(const Tensor& a) { return UnaryK(a, kernels::Active().abs); }
Tensor Sign(const Tensor& a) { return UnaryK(a, kernels::Active().sign); }

void AddInPlace(Tensor& a, const Tensor& b) {
  EALGAP_CHECK(a.SameShape(b))
      << ShapeToString(a.shape()) << " += " << ShapeToString(b.shape());
  const KernelTable& t = kernels::Active();
  float* pa = a.data();
  const float* pb = b.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
    t.add_ip(pa + i0, pb + i0, i1 - i0);
  });
}

void AxpyInPlace(Tensor& a, float alpha, const Tensor& b) {
  EALGAP_CHECK(a.SameShape(b))
      << ShapeToString(a.shape()) << " += a*" << ShapeToString(b.shape());
  const KernelTable& t = kernels::Active();
  float* pa = a.data();
  const float* pb = b.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
    t.axpy_ip(pa + i0, alpha, pb + i0, i1 - i0);
  });
}

void ScaleInPlace(Tensor& a, float s) {
  const KernelTable& t = kernels::Active();
  float* pa = a.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
    t.scale_ip(pa + i0, s, i1 - i0);
  });
}

void ClampInPlace(Tensor& a, float lo, float hi) {
  const KernelTable& t = kernels::Active();
  float* pa = a.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
    t.clamp_ip(pa + i0, lo, hi, i1 - i0);
  });
}

double SumSquares(const Tensor& a) {
  const KernelTable& t = kernels::Active();
  const float* p = a.data();
  return BlockedReduce(a.numel(), [&t, p](int64_t b, int64_t e) {
    return t.sumsq_block(p + b, e - b);
  });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  EALGAP_CHECK_EQ(a.ndim(), 2);
  EALGAP_CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  EALGAP_CHECK_EQ(k, b.dim(0))
      << ShapeToString(a.shape()) << " x " << ShapeToString(b.shape());
  const KernelTable& t = kernels::Active();
  Tensor out({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t row_ops = std::max<int64_t>(1, k * n);
  const int64_t grain = std::max<int64_t>(1, kMatMulGrainOps / row_ops);
  ParallelFor(0, m, grain, [&](int64_t i0, int64_t i1) {
    t.matmul_rows(pa, pb, po, i0, i1, k, n);
  });
  return out;
}

Tensor BMatMul(const Tensor& a, const Tensor& b) {
  EALGAP_CHECK_EQ(a.ndim(), 3);
  EALGAP_CHECK_EQ(b.ndim(), 3);
  const int64_t bs = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(2);
  EALGAP_CHECK_EQ(bs, b.dim(0));
  EALGAP_CHECK_EQ(k, b.dim(1))
      << ShapeToString(a.shape()) << " x " << ShapeToString(b.shape());
  const KernelTable& t = kernels::Active();
  Tensor out({bs, m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // Parallel over the flattened (batch, row) space so a few large matrices
  // and many small ones both split well.
  const int64_t row_ops = std::max<int64_t>(1, k * n);
  const int64_t grain = std::max<int64_t>(1, kMatMulGrainOps / row_ops);
  ParallelFor(0, bs * m, grain, [&](int64_t r0, int64_t r1) {
    int64_t r = r0;
    while (r < r1) {
      const int64_t s = r / m;
      const int64_t i = r % m;
      const int64_t i1 = std::min(m, i + (r1 - r));
      t.matmul_rows(pa + s * m * k, pb + s * k * n, po + s * m * n, i, i1, k,
                    n);
      r += i1 - i;
    }
  });
  return out;
}

Tensor TransposeLast2(const Tensor& a) {
  EALGAP_CHECK_GE(a.ndim(), 2);
  Shape out_shape = a.shape();
  std::swap(out_shape[a.ndim() - 1], out_shape[a.ndim() - 2]);
  Tensor out(out_shape);
  const int64_t r = a.dim(-2), c = a.dim(-1);
  const int64_t batch = a.numel() / (r * c);
  const float* pa = a.data();
  float* po = out.data();
  const int64_t grain = std::max<int64_t>(1, kElemGrain / (r * c));
  ParallelFor(0, batch, grain, [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      const float* sa = pa + s * r * c;
      float* so = po + s * r * c;
      for (int64_t i = 0; i < r; ++i) {
        for (int64_t j = 0; j < c; ++j) so[j * r + i] = sa[i * c + j];
      }
    }
  });
  return out;
}

Tensor SumAll(const Tensor& a) {
  const KernelTable& t = kernels::Active();
  const float* p = a.data();
  const double acc = BlockedReduce(a.numel(), [&t, p](int64_t b, int64_t e) {
    return t.sum_block(p + b, e - b);
  });
  return Tensor::Scalar(static_cast<float>(acc));
}

Tensor MeanAll(const Tensor& a) {
  EALGAP_CHECK_GT(a.numel(), 0);
  Tensor s = SumAll(a);
  s.ScaleInPlace(1.f / static_cast<float>(a.numel()));
  return s;
}

Tensor MaxAll(const Tensor& a) {
  EALGAP_CHECK_GT(a.numel(), 0);
  const KernelTable& t = kernels::Active();
  const float* p = a.data();
  // Max is insensitive to the combine order, so fixed blocks + ordered
  // combine keeps it bit-stable across thread counts like the sums.
  const int64_t n = a.numel();
  const int64_t nblocks = (n + kReduceBlock - 1) / kReduceBlock;
  std::vector<float> partial(nblocks, p[0]);
  ParallelFor(0, nblocks, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t b = c * kReduceBlock;
      partial[c] = t.max_block(p + b, std::min(n, b + kReduceBlock) - b);
    }
  });
  float m = partial[0];
  for (float v : partial) m = std::max(m, v);
  return Tensor::Scalar(m);
}

namespace {
// Decomposes a shape around `axis` into (outer, axis_size, inner).
void AxisSplit(const Shape& shape, int64_t axis, int64_t* outer, int64_t* n,
               int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int64_t i = 0; i < axis; ++i) *outer *= shape[i];
  *n = shape[axis];
  for (size_t i = axis + 1; i < shape.size(); ++i) *inner *= shape[i];
}
}  // namespace

Tensor SumAxis(const Tensor& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.ndim();
  EALGAP_CHECK(axis >= 0 && axis < a.ndim());
  int64_t outer, n, inner;
  AxisSplit(a.shape(), axis, &outer, &n, &inner);
  Shape out_shape = a.shape();
  if (keepdim) {
    out_shape[axis] = 1;
  } else {
    out_shape.erase(out_shape.begin() + axis);
  }
  const KernelTable& t = kernels::Active();
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  // Each output segment [o*inner, (o+1)*inner) is owned by one chunk and
  // accumulated in fixed k order: deterministic for any thread count.
  const int64_t grain = std::max<int64_t>(1, kElemGrain / (n * inner));
  ParallelFor(0, outer, grain, [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      float* dst = po + o * inner;
      for (int64_t k = 0; k < n; ++k) {
        t.add_ip(dst, pa + (o * n + k) * inner, inner);
      }
    }
  });
  return out;
}

Tensor MeanAxis(const Tensor& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.ndim();
  Tensor s = SumAxis(a, axis, keepdim);
  s.ScaleInPlace(1.f / static_cast<float>(a.shape()[axis]));
  return s;
}

Tensor SoftmaxLastDim(const Tensor& a) {
  EALGAP_CHECK_GE(a.ndim(), 1);
  const int64_t n = a.dim(-1);
  const int64_t rows = a.numel() / n;
  const KernelTable& t = kernels::Active();
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t grain = std::max<int64_t>(1, kElemGrain / n);
  ParallelFor(0, rows, grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      t.softmax_row(pa + r * n, po + r * n, n);
    }
  });
  return out;
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t end) {
  if (axis < 0) axis += a.ndim();
  EALGAP_CHECK(axis >= 0 && axis < a.ndim());
  EALGAP_CHECK(start >= 0 && start <= end && end <= a.shape()[axis])
      << "slice [" << start << "," << end << ") of dim " << a.shape()[axis];
  int64_t outer, n, inner;
  AxisSplit(a.shape(), axis, &outer, &n, &inner);
  Shape out_shape = a.shape();
  out_shape[axis] = end - start;
  const KernelTable& t = kernels::Active();
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  const int64_t len = end - start;
  if (outer == 1) {
    // Contiguous row range (no dims outside `axis`): ONE kernel copy of
    // the whole block. Alignment guarantee: the destination is fresh
    // 64-byte-aligned tensor storage, but the source offset start*inner
    // is arbitrary — the copy kernel accepts that (memcpy semantics), so
    // this fast path preserves the output's alignment and requires none
    // of the input slice.
    t.copy(pa + start * inner, po, len * inner);
    return out;
  }
  for (int64_t o = 0; o < outer; ++o) {
    t.copy(pa + (o * n + start) * inner, po + o * len * inner, len * inner);
  }
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  EALGAP_CHECK(!parts.empty());
  if (axis < 0) axis += parts[0].ndim();
  int64_t total = 0;
  for (const Tensor& p : parts) {
    EALGAP_CHECK_EQ(p.ndim(), parts[0].ndim());
    for (int64_t d = 0; d < p.ndim(); ++d) {
      if (d != axis) EALGAP_CHECK_EQ(p.shape()[d], parts[0].shape()[d]);
    }
    total += p.shape()[axis];
  }
  Shape out_shape = parts[0].shape();
  out_shape[axis] = total;
  const KernelTable& t = kernels::Active();
  Tensor out(out_shape);
  int64_t outer, n_out, inner;
  AxisSplit(out_shape, axis, &outer, &n_out, &inner);
  float* po = out.data();
  int64_t written = 0;
  for (const Tensor& p : parts) {
    const int64_t n = p.shape()[axis];
    const float* pp = p.data();
    for (int64_t o = 0; o < outer; ++o) {
      t.copy(pp + o * n * inner, po + (o * n_out + written) * inner,
             n * inner);
    }
    written += n;
  }
  return out;
}

Tensor Stack(const std::vector<Tensor>& parts) {
  EALGAP_CHECK(!parts.empty());
  std::vector<Tensor> reshaped;
  reshaped.reserve(parts.size());
  for (const Tensor& p : parts) {
    Shape s = p.shape();
    s.insert(s.begin(), 1);
    reshaped.push_back(p.Reshape(s));
  }
  return Concat(reshaped, 0);
}

Tensor BroadcastTo(const Tensor& a, const Shape& shape) {
  return BroadcastBinary(a, Tensor::Zeros(shape),
                         [](float x, float) { return x; });
}

Tensor ReduceToShape(const Tensor& grad, const Shape& target) {
  if (grad.shape() == target) return grad;
  Tensor cur = grad;
  // Sum away extra leading dims.
  while (cur.ndim() > static_cast<int64_t>(target.size())) {
    cur = SumAxis(cur, 0, /*keepdim=*/false);
  }
  // Sum broadcast dims (target dim == 1, grad dim > 1).
  for (int64_t d = 0; d < cur.ndim(); ++d) {
    if (target[d] == 1 && cur.shape()[d] != 1) {
      cur = SumAxis(cur, d, /*keepdim=*/true);
    }
  }
  EALGAP_CHECK(cur.shape() == target)
      << ShapeToString(grad.shape()) << " -> " << ShapeToString(target);
  return cur;
}

}  // namespace ops
}  // namespace ealgap
