#ifndef EALGAP_TENSOR_KERNELS_H_
#define EALGAP_TENSOR_KERNELS_H_

/// SIMD kernel layer with runtime dispatch.
///
/// Every hot inner loop of tensor/ops.cc (and the distribution-PDF rows of
/// stats/) goes through a KernelTable of raw float-pointer kernels. Three
/// tables exist — scalar, SSE2, AVX2 — compiled from the SAME templates
/// (kernels_impl.h over the backends in vec.h), so every kernel is
/// bit-identical across tables; dispatch picks the widest table the CPU
/// supports at first use.
///
/// Override for testing/debugging with EALGAP_SIMD=scalar|sse2|avx2:
///  - an unknown value aborts (catches typos in CI),
///  - a known value the CPU/build cannot run falls back to the best
///    supported table with a warning (results are identical either way).

#include <cstdint>

namespace ealgap {
namespace kernels {

enum class Backend { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// "scalar", "sse2", "avx2".
const char* BackendName(Backend b);

/// All kernels take raw pointers (no alignment requirement) and an element
/// count; `n == 0` is a no-op. Kernels internally detect 64-byte-aligned
/// operands and switch to aligned load/store instructions — same bits,
/// same results (kernels_impl.h, AlignedIO). Reduction kernels define a
/// fixed accumulation order (4 interleaved double lanes, combined in lane
/// order) that callers rely on for thread-count determinism.
struct KernelTable {
  Backend backend;

  // elementwise binary: o[i] = a[i] op b[i]
  void (*add_vv)(const float* a, const float* b, float* o, int64_t n);
  void (*sub_vv)(const float* a, const float* b, float* o, int64_t n);
  void (*mul_vv)(const float* a, const float* b, float* o, int64_t n);
  void (*div_vv)(const float* a, const float* b, float* o, int64_t n);
  void (*max_vv)(const float* a, const float* b, float* o, int64_t n);

  // elementwise binary, one side a broadcast scalar
  void (*add_vs)(const float* a, float s, float* o, int64_t n);
  void (*sub_vs)(const float* a, float s, float* o, int64_t n);
  void (*sub_sv)(float s, const float* b, float* o, int64_t n);
  void (*mul_vs)(const float* a, float s, float* o, int64_t n);
  void (*div_vs)(const float* a, float s, float* o, int64_t n);
  void (*div_sv)(float s, const float* b, float* o, int64_t n);
  void (*max_vs)(const float* a, float s, float* o, int64_t n);
  void (*max_sv)(float s, const float* b, float* o, int64_t n);

  // elementwise unary
  void (*neg)(const float* a, float* o, int64_t n);
  void (*abs)(const float* a, float* o, int64_t n);
  void (*sign)(const float* a, float* o, int64_t n);
  void (*sqrt)(const float* a, float* o, int64_t n);
  void (*relu)(const float* a, float* o, int64_t n);  // x > 0 ? x : 0
  void (*clamp)(const float* a, float lo, float hi, float* o, int64_t n);
  void (*exp)(const float* a, float* o, int64_t n);
  void (*tanh)(const float* a, float* o, int64_t n);
  void (*sigmoid)(const float* a, float* o, int64_t n);

  // in-place
  void (*add_ip)(float* a, const float* b, int64_t n);          // a += b
  void (*axpy_ip)(float* a, float alpha, const float* b, int64_t n);
  void (*scale_ip)(float* a, float s, int64_t n);
  void (*relu_ip)(float* a, int64_t n);
  void (*clamp_ip)(float* a, float lo, float hi, int64_t n);

  // deterministic block reductions (fixed 4-lane interleave)
  double (*sum_block)(const float* p, int64_t n);
  double (*sumsq_block)(const float* p, int64_t n);
  float (*max_block)(const float* p, int64_t n);  // n >= 1; NaN-free input

  /// Contiguous copy (memcpy semantics, regions must not overlap). Routes
  /// Slice/CopyFrom through the kernel layer; preserves no alignment
  /// guarantee beyond what the destination already has.
  void (*copy)(const float* src, float* dst, int64_t n);

  // fused rows
  void (*softmax_row)(const float* src, float* dst, int64_t n);
  /// softmax_row over each column of the (n, lanes) row-major matrix src,
  /// bit-identical to it per column (NaN-free input, like softmax_row);
  /// dst may equal src. The no-grad attention runs one softmax per region
  /// and query step this way, vectorized across regions.
  void (*softmax_cols)(const float* src, float* dst, int64_t n,
                       int64_t lanes);
  /// out[i] = x[i] < 0 ? 0 : lambda * exp(-lambda * x[i])
  void (*exp_pdf_row)(const float* x, float lambda, float* o, int64_t n);
  /// out[i] = inv_norm * exp(-0.5 * ((x[i]-mean) * inv_stddev)^2)
  void (*normal_pdf_row)(const float* x, float mean, float inv_stddev,
                         float inv_norm, float* o, int64_t n);

  /// Rows [i0, i1) of the (m,k)x(k,n) product accumulated into po (callers
  /// zero-initialize). Vectorized across output columns; each output
  /// element keeps the exact scalar accumulation order.
  void (*matmul_rows)(const float* pa, const float* pb, float* po, int64_t i0,
                      int64_t i1, int64_t k, int64_t n);
  /// Rows [i0, i1) of the (m,k)x(k,n) product Aᵀ·B where pa holds A
  /// transposed, (k,m) row-major — accumulated into po like matmul_rows,
  /// with the same per-element expression tree. The no-grad inference
  /// pass keeps activations feature-major (one column per region), so a
  /// Linear there is Wᵀ·x with W read in place.
  void (*matmul_tn_rows)(const float* pa, const float* pb, float* po,
                         int64_t i0, int64_t i1, int64_t m, int64_t k,
                         int64_t n);
};

/// The active table (resolved once: CPU detection + EALGAP_SIMD override).
const KernelTable& Active();

/// Backend of the active table.
Backend ActiveBackend();

/// True when the backend was compiled in AND the CPU can execute it.
bool BackendSupported(Backend b);

/// Table for an explicit backend, or nullptr when unsupported. Used by
/// vec_test to compare backends bit-for-bit in one process.
const KernelTable* Table(Backend b);

/// Replaces the active table (must be supported). Tests only.
void SetBackendForTesting(Backend b);

}  // namespace kernels
}  // namespace ealgap

#endif  // EALGAP_TENSOR_KERNELS_H_
