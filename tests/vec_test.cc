// Bit-exactness tests for the SIMD kernel layer (src/tensor/vec.h,
// src/tensor/kernels.h).
//
// The contract under test: every kernel produces BITWISE-identical output in
// the scalar, SSE2 and AVX2 tables, for every length (vector body + scalar
// tail), every alignment, and with NaN/Inf inputs. The in-house vexp/vtanh/
// vsigmoid additionally stay within a small ULP bound of correctly-rounded
// libm on dense grids.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/aligned_alloc.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace ealgap {
namespace {

using kernels::Backend;
using kernels::KernelTable;

uint32_t Bits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// Lengths that exercise empty input, pure tail, full vectors of every lane
// width (1/4/8) and vector-plus-tail combinations.
constexpr int64_t kMaxLen = 35;  // 4 * 8 + 3
// Start offsets that break 16/32-byte alignment.
constexpr int64_t kMaxOff = 3;

struct NamedTable {
  std::string name;
  const KernelTable* t;
};

// All supported non-scalar tables; parity is always measured against scalar.
std::vector<NamedTable> AltTables() {
  std::vector<NamedTable> out;
  for (Backend b : {Backend::kSse2, Backend::kAvx2}) {
    if (const KernelTable* t = kernels::Table(b)) {
      out.push_back({kernels::BackendName(b), t});
    }
  }
  return out;
}

const KernelTable& Scalar() {
  const KernelTable* t = kernels::Table(Backend::kScalar);
  EXPECT_NE(t, nullptr);
  return *t;
}

// Deterministic value stream mixing magnitudes and signs; index-stable so
// the same (len, off) always sees the same data.
float TestValue(int64_t i) {
  // xorshift on the index; map to a wide range of exponents.
  uint32_t x = static_cast<uint32_t>(i * 2654435761u + 12345u);
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  const float u = static_cast<float>(x & 0xffffff) / 16777216.f;  // [0,1)
  switch (i % 5) {
    case 0:
      return (u - 0.5f) * 4.f;  // small, signed
    case 1:
      return (u - 0.5f) * 2e4f;  // large, signed
    case 2:
      return (u - 0.5f) * 2e-4f;  // tiny, signed
    case 3:
      return u + 0.5f;  // strictly positive (safe for sqrt/div)
    default:
      return i % 10 == 4 ? 0.f : (u - 0.5f) * 16.f;  // exact zeros mixed in
  }
}

std::vector<float> MakeInput(int64_t n, int64_t off, int64_t salt) {
  std::vector<float> v(off + n);
  for (int64_t i = 0; i < off + n; ++i) v[i] = TestValue(i + 97 * salt);
  return v;
}

void ExpectBitEqual(const std::vector<float>& want,
                    const std::vector<float>& got, int64_t off, int64_t n,
                    const std::string& what) {
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(Bits(want[off + i]), Bits(got[off + i]))
        << what << " diverges at element " << i << " of " << n << " (offset "
        << off << "): scalar=" << want[off + i] << " simd=" << got[off + i];
  }
}

// Runs `call(t, a, b, o, n)` for the scalar table and one alt table over all
// (len, off) combinations and compares output buffers bitwise.
template <typename CallFn>
void CheckParity(const std::string& kernel, CallFn call) {
  for (const NamedTable& alt : AltTables()) {
    for (int64_t n = 0; n <= kMaxLen; ++n) {
      for (int64_t off = 0; off <= kMaxOff; ++off) {
        std::vector<float> a = MakeInput(n, off, 1);
        std::vector<float> b = MakeInput(n, off, 2);
        std::vector<float> o_ref(off + n, -777.f), o_alt(off + n, -777.f);
        // In-place kernels mutate the first buffer: give each run a copy.
        std::vector<float> a_ref = a, a_alt = a;
        call(Scalar(), a_ref.data() + off, b.data() + off, o_ref.data() + off,
             n);
        call(*alt.t, a_alt.data() + off, b.data() + off, o_alt.data() + off,
             n);
        ExpectBitEqual(o_ref, o_alt, off, n,
                       kernel + " [" + alt.name + "] out");
        ExpectBitEqual(a_ref, a_alt, off, n,
                       kernel + " [" + alt.name + "] in-place");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(VecParity, ElementwiseBinary) {
  CheckParity("add_vv", [](const KernelTable& t, float* a, const float* b,
                           float* o, int64_t n) { t.add_vv(a, b, o, n); });
  CheckParity("sub_vv", [](const KernelTable& t, float* a, const float* b,
                           float* o, int64_t n) { t.sub_vv(a, b, o, n); });
  CheckParity("mul_vv", [](const KernelTable& t, float* a, const float* b,
                           float* o, int64_t n) { t.mul_vv(a, b, o, n); });
  CheckParity("div_vv", [](const KernelTable& t, float* a, const float* b,
                           float* o, int64_t n) { t.div_vv(a, b, o, n); });
  CheckParity("max_vv", [](const KernelTable& t, float* a, const float* b,
                           float* o, int64_t n) { t.max_vv(a, b, o, n); });
}

TEST(VecParity, ElementwiseScalarOperand) {
  const float s = 1.7f;
  CheckParity("add_vs", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.add_vs(a, s, o, n); });
  CheckParity("sub_vs", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.sub_vs(a, s, o, n); });
  CheckParity("sub_sv", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.sub_sv(s, a, o, n); });
  CheckParity("mul_vs", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.mul_vs(a, s, o, n); });
  CheckParity("div_vs", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.div_vs(a, s, o, n); });
  CheckParity("div_sv", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.div_sv(s, a, o, n); });
  CheckParity("max_vs", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.max_vs(a, s, o, n); });
  CheckParity("max_sv", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.max_sv(s, a, o, n); });
}

TEST(VecParity, ElementwiseUnary) {
  CheckParity("neg", [](const KernelTable& t, float* a, const float*, float* o,
                        int64_t n) { t.neg(a, o, n); });
  CheckParity("abs", [](const KernelTable& t, float* a, const float*, float* o,
                        int64_t n) { t.abs(a, o, n); });
  CheckParity("sign", [](const KernelTable& t, float* a, const float*,
                         float* o, int64_t n) { t.sign(a, o, n); });
  CheckParity("sqrt", [](const KernelTable& t, float* a, const float*,
                         float* o, int64_t n) { t.sqrt(a, o, n); });
  CheckParity("relu", [](const KernelTable& t, float* a, const float*,
                         float* o, int64_t n) { t.relu(a, o, n); });
  CheckParity("clamp", [](const KernelTable& t, float* a, const float*,
                          float* o,
                          int64_t n) { t.clamp(a, -1.25f, 2.5f, o, n); });
  CheckParity("exp", [](const KernelTable& t, float* a, const float*, float* o,
                        int64_t n) { t.exp(a, o, n); });
  CheckParity("tanh", [](const KernelTable& t, float* a, const float*,
                         float* o, int64_t n) { t.tanh(a, o, n); });
  CheckParity("sigmoid", [](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.sigmoid(a, o, n); });
}

TEST(VecParity, InPlace) {
  CheckParity("add_ip", [](const KernelTable& t, float* a, const float* b,
                           float*, int64_t n) { t.add_ip(a, b, n); });
  CheckParity("axpy_ip", [](const KernelTable& t, float* a, const float* b,
                            float*, int64_t n) { t.axpy_ip(a, -0.3f, b, n); });
  CheckParity("scale_ip", [](const KernelTable& t, float* a, const float*,
                             float*, int64_t n) { t.scale_ip(a, 0.77f, n); });
  CheckParity("relu_ip", [](const KernelTable& t, float* a, const float*,
                            float*, int64_t n) { t.relu_ip(a, n); });
  CheckParity("clamp_ip", [](const KernelTable& t, float* a, const float*,
                             float*,
                             int64_t n) { t.clamp_ip(a, -0.5f, 1.5f, n); });
}

TEST(VecParity, FusedRows) {
  CheckParity("softmax_row",
              [](const KernelTable& t, float* a, const float*, float* o,
                 int64_t n) {
                if (n > 0) t.softmax_row(a, o, n);
              });
  CheckParity("exp_pdf_row",
              [](const KernelTable& t, float* a, const float*, float* o,
                 int64_t n) { t.exp_pdf_row(a, 0.8f, o, n); });
  CheckParity("normal_pdf_row", [](const KernelTable& t, float* a,
                                   const float*, float* o, int64_t n) {
    t.normal_pdf_row(a, 0.4f, 1.6f, 0.25f, o, n);
  });
}

TEST(VecParity, Reductions) {
  for (const NamedTable& alt : AltTables()) {
    // Long enough to cover many full 4-float groups plus every tail shape.
    for (int64_t n = 1; n <= 131; ++n) {
      for (int64_t off = 0; off <= kMaxOff; ++off) {
        std::vector<float> a = MakeInput(n, off, 3);
        const double s_ref = Scalar().sum_block(a.data() + off, n);
        const double s_alt = alt.t->sum_block(a.data() + off, n);
        ASSERT_EQ(s_ref, s_alt) << "sum_block " << alt.name << " n=" << n;
        const double q_ref = Scalar().sumsq_block(a.data() + off, n);
        const double q_alt = alt.t->sumsq_block(a.data() + off, n);
        ASSERT_EQ(q_ref, q_alt) << "sumsq_block " << alt.name << " n=" << n;
        const float m_ref = Scalar().max_block(a.data() + off, n);
        const float m_alt = alt.t->max_block(a.data() + off, n);
        ASSERT_EQ(Bits(m_ref), Bits(m_alt))
            << "max_block " << alt.name << " n=" << n;
      }
    }
  }
}

TEST(VecParity, MatMulRows) {
  for (const NamedTable& alt : AltTables()) {
    for (int64_t m : {1, 3}) {
      for (int64_t k : {1, 2, 5, 8}) {
        for (int64_t n : {1, 2, 7, 8, 17, 33}) {
          std::vector<float> a = MakeInput(m * k, 0, 4);
          std::vector<float> b = MakeInput(k * n, 0, 5);
          std::vector<float> o_ref(m * n, 0.f), o_alt(m * n, 0.f);
          Scalar().matmul_rows(a.data(), b.data(), o_ref.data(), 0, m, k, n);
          alt.t->matmul_rows(a.data(), b.data(), o_alt.data(), 0, m, k, n);
          for (int64_t i = 0; i < m * n; ++i) {
            ASSERT_EQ(Bits(o_ref[i]), Bits(o_alt[i]))
                << "matmul_rows " << alt.name << " m=" << m << " k=" << k
                << " n=" << n << " elem " << i;
          }
        }
      }
    }
  }
}

// The per-element expression tree matmul_rows documents: k in groups of
// four, each group ((a0*b0 + a1*b1) + a2*b2) + a3*b3 added onto the
// running element, leftover products added one at a time.
float TreeDot(const std::vector<float>& a, int64_t i, int64_t k,
              const std::vector<float>& b, int64_t j, int64_t n) {
  float o = 0.f;
  int64_t p = 0;
  for (; p + 4 <= k; p += 4) {
    float t = a[i * k + p] * b[p * n + j];
    t = t + a[i * k + p + 1] * b[(p + 1) * n + j];
    t = t + a[i * k + p + 2] * b[(p + 2) * n + j];
    t = t + a[i * k + p + 3] * b[(p + 3) * n + j];
    o = o + t;
  }
  for (; p < k; ++p) o = o + a[i * k + p] * b[p * n + j];
  return o;
}

// matmul_rows and matmul_tn_rows (A stored transposed) both follow the
// documented tree, in every backend, across the column-tile boundaries.
TEST(VecParity, MatMulKernelsFollowTheDocumentedTree) {
  std::vector<NamedTable> tables = AltTables();
  tables.push_back({"scalar", &Scalar()});
  for (const NamedTable& nt : tables) {
    for (int64_t m : {1, 3, 16}) {
      for (int64_t k : {1, 2, 4, 5, 8, 17}) {
        for (int64_t n : {1, 7, 8, 16, 33, 64, 70, 300}) {
          std::vector<float> a = MakeInput(m * k, 0, 6);
          std::vector<float> b = MakeInput(k * n, 0, 7);
          std::vector<float> at(k * m);
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
          }
          std::vector<float> o(m * n, 0.f), ot(m * n, 0.f);
          nt.t->matmul_rows(a.data(), b.data(), o.data(), 0, m, k, n);
          nt.t->matmul_tn_rows(at.data(), b.data(), ot.data(), 0, m, m, k, n);
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) {
              const float want = TreeDot(a, i, k, b, j, n);
              ASSERT_EQ(Bits(want), Bits(o[i * n + j]))
                  << "matmul_rows [" << nt.name << "] m=" << m << " k=" << k
                  << " n=" << n << " at (" << i << "," << j << ")";
              ASSERT_EQ(Bits(want), Bits(ot[i * n + j]))
                  << "matmul_tn_rows [" << nt.name << "] m=" << m
                  << " k=" << k << " n=" << n << " at (" << i << "," << j
                  << ")";
            }
          }
        }
      }
    }
  }
}

// softmax_cols is softmax_row down every column, bit for bit, including
// signed-zero maxima and in place.
TEST(VecParity, SoftmaxColsIsSoftmaxRowPerColumn) {
  std::vector<NamedTable> tables = AltTables();
  tables.push_back({"scalar", &Scalar()});
  for (const NamedTable& nt : tables) {
    for (int64_t n : {1, 2, 4, 5, 6, 9, 17}) {
      for (int64_t lanes : {1, 3, 8, 16, 64, 70, 130}) {
        std::vector<float> src = MakeInput(n * lanes, 0, 8);
        for (int64_t i = 0; i < n * lanes; i += 7) {
          src[i] = (i / 7) % 2 ? -0.f : 0.f;  // ties between +0 and -0
        }
        std::vector<float> dst(n * lanes, -777.f);
        nt.t->softmax_cols(src.data(), dst.data(), n, lanes);
        std::vector<float> inplace = src;
        nt.t->softmax_cols(inplace.data(), inplace.data(), n, lanes);
        std::vector<float> col(n), want(n);
        for (int64_t c = 0; c < lanes; ++c) {
          for (int64_t j = 0; j < n; ++j) col[j] = src[j * lanes + c];
          Scalar().softmax_row(col.data(), want.data(), n);
          for (int64_t j = 0; j < n; ++j) {
            ASSERT_EQ(Bits(want[j]), Bits(dst[j * lanes + c]))
                << "softmax_cols [" << nt.name << "] n=" << n
                << " lanes=" << lanes << " at (" << j << "," << c << ")";
            ASSERT_EQ(Bits(want[j]), Bits(inplace[j * lanes + c]))
                << "softmax_cols in place [" << nt.name << "]";
          }
        }
      }
    }
  }
}

// Aligned-dispatch parity: kernels silently switch to aligned load/store
// instructions when operand base pointers are 64-byte aligned
// (kernels_impl.h, AlignedIO). Both paths must produce identical bits:
// run each kernel from 64-byte-aligned buffers (the aligned path) and
// from views misaligned by 1..3 floats (the unaligned path), same values.
TEST(VecParity, AlignedVsUnalignedDispatchBitIdentical) {
  std::vector<NamedTable> tables = AltTables();
  tables.push_back({"scalar", &Scalar()});
  for (const NamedTable& nt : tables) {
    const KernelTable& t = *nt.t;
    for (int64_t n = 1; n <= kMaxLen; ++n) {
      AlignedBuffer<float> a_al(n), b_al(n), o_al(n);
      for (int64_t i = 0; i < n; ++i) {
        a_al[i] = TestValue(i + 97);
        b_al[i] = TestValue(i + 194);
      }
      ASSERT_TRUE(IsAligned(a_al.data()) && IsAligned(b_al.data()) &&
                  IsAligned(o_al.data()));
      auto run_pair = [&](const char* what, auto&& call) {
        std::fill(o_al.begin(), o_al.end(), -777.f);
        call(a_al.data(), b_al.data(), o_al.data());
        for (int64_t off = 1; off <= kMaxOff; ++off) {
          std::vector<float> a(off + n), b(off + n), o(off + n, -777.f);
          std::copy(a_al.begin(), a_al.end(), a.begin() + off);
          std::copy(b_al.begin(), b_al.end(), b.begin() + off);
          ASSERT_FALSE(IsAligned(a.data() + off));
          call(a.data() + off, b.data() + off, o.data() + off);
          for (int64_t i = 0; i < n; ++i) {
            ASSERT_EQ(Bits(o_al[i]), Bits(o[off + i]))
                << what << " [" << nt.name << "] aligned vs offset " << off
                << " elem " << i << " of " << n;
          }
        }
      };
      run_pair("add_vv", [&](const float* a, const float* b, float* o) {
        t.add_vv(a, b, o, n);
      });
      run_pair("mul_vv", [&](const float* a, const float* b, float* o) {
        t.mul_vv(a, b, o, n);
      });
      run_pair("relu", [&](const float* a, const float*, float* o) {
        t.relu(a, o, n);
      });
      run_pair("exp", [&](const float* a, const float*, float* o) {
        t.exp(a, o, n);
      });
      run_pair("sigmoid", [&](const float* a, const float*, float* o) {
        t.sigmoid(a, o, n);
      });
      run_pair("copy", [&](const float* a, const float*, float* o) {
        t.copy(a, o, n);
      });
    }
    // matmul_rows takes its aligned fast path only when b and o are
    // 64-byte aligned AND n is a multiple of 16 — check both n shapes.
    for (int64_t n : {16, 32, 48, 7, 17}) {
      const int64_t m = 3, k = 5;
      AlignedBuffer<float> a_al(m * k), b_al(k * n), o_al(m * n);
      for (int64_t i = 0; i < m * k; ++i) a_al[i] = TestValue(i + 11);
      for (int64_t i = 0; i < k * n; ++i) b_al[i] = TestValue(i + 13);
      t.matmul_rows(a_al.data(), b_al.data(), o_al.data(), 0, m, k, n);
      // matmul_rows accumulates onto the output row: both runs start at 0
      // (o_al is zero-initialized by AlignedBuffer).
      std::vector<float> b_un(1 + k * n), o_un(m * n, 0.f);
      std::copy(b_al.begin(), b_al.end(), b_un.begin() + 1);
      t.matmul_rows(a_al.data(), b_un.data() + 1, o_un.data(), 0, m, k, n);
      for (int64_t i = 0; i < m * n; ++i) {
        ASSERT_EQ(Bits(o_al[i]), Bits(o_un[i]))
            << "matmul_rows [" << nt.name << "] n=" << n << " elem " << i;
      }
    }
  }
}

// NaN and Inf must flow through elementwise kernels identically in every
// backend (max_block is excluded by contract: NaN-free input only).
TEST(VecParity, NanInfPropagation) {
  const float nan = std::nanf("");
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {nan,  inf,   -inf, 0.f, -0.f,
                                       1.f,  -2.5f, nan,  inf, -inf,
                                       3e38f, -3e38f, 1e-40f, nan, 7.f};
  const int64_t n = static_cast<int64_t>(specials.size());
  for (const NamedTable& alt : AltTables()) {
    std::vector<float> b = MakeInput(n, 0, 6);
    auto check = [&](const char* what, auto&& run) {
      std::vector<float> o_ref(n, 0.f), o_alt(n, 0.f);
      std::vector<float> a_ref = specials, a_alt = specials;
      run(Scalar(), a_ref.data(), b.data(), o_ref.data());
      run(*alt.t, a_alt.data(), b.data(), o_alt.data());
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(o_ref[i]), Bits(o_alt[i]))
            << what << " [" << alt.name << "] special elem " << i;
        ASSERT_EQ(Bits(a_ref[i]), Bits(a_alt[i]))
            << what << " [" << alt.name << "] special in-place elem " << i;
      }
    };
    check("add_vv", [n](const KernelTable& t, float* a, const float* b,
                        float* o) { t.add_vv(a, b, o, n); });
    check("mul_vv", [n](const KernelTable& t, float* a, const float* b,
                        float* o) { t.mul_vv(a, b, o, n); });
    check("div_vv", [n](const KernelTable& t, float* a, const float* b,
                        float* o) { t.div_vv(a, b, o, n); });
    check("max_vv", [n](const KernelTable& t, float* a, const float* b,
                        float* o) { t.max_vv(a, b, o, n); });
    check("max_vs", [n](const KernelTable& t, float* a, const float*,
                        float* o) { t.max_vs(a, 0.5f, o, n); });
    check("max_sv", [n](const KernelTable& t, float* a, const float*,
                        float* o) { t.max_sv(0.5f, a, o, n); });
    check("relu", [n](const KernelTable& t, float* a, const float*, float* o) {
      t.relu(a, o, n);
    });
    check("clamp", [n](const KernelTable& t, float* a, const float*,
                       float* o) { t.clamp(a, -1.f, 1.f, o, n); });
    check("sign", [n](const KernelTable& t, float* a, const float*, float* o) {
      t.sign(a, o, n);
    });
    check("exp", [n](const KernelTable& t, float* a, const float*, float* o) {
      t.exp(a, o, n);
    });
    check("tanh", [n](const KernelTable& t, float* a, const float*, float* o) {
      t.tanh(a, o, n);
    });
    check("sigmoid", [n](const KernelTable& t, float* a, const float*,
                         float* o) { t.sigmoid(a, o, n); });
    check("relu_ip", [n](const KernelTable& t, float* a, const float*,
                         float*) { t.relu_ip(a, n); });
    check("clamp_ip", [n](const KernelTable& t, float* a, const float*,
                          float*) { t.clamp_ip(a, -1.f, 1.f, n); });
  }
}

// Exp must saturate exactly: +inf above the clamp threshold, +0 below it,
// and NaN for NaN.
TEST(VecMath, ExpEdges) {
  const KernelTable& t = *kernels::Table(Backend::kScalar);
  const float in[6] = {89.f, 1000.f, -88.f, -1000.f,
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  float out[6];
  t.exp(in, out, 6);
  EXPECT_EQ(out[0], std::numeric_limits<float>::infinity());
  EXPECT_EQ(out[1], std::numeric_limits<float>::infinity());
  EXPECT_EQ(out[2], 0.f);
  EXPECT_EQ(out[3], 0.f);
  EXPECT_EQ(out[4], std::numeric_limits<float>::infinity());
  EXPECT_EQ(out[5], 0.f);
  const float qnan = std::nanf("");
  float nan_out;
  t.exp(&qnan, &nan_out, 1);
  EXPECT_TRUE(std::isnan(nan_out));
}

// ULP distance: floats map to a monotone integer line (non-negative keep
// their bits, negatives mirror below zero), then take the difference.
int64_t UlpDiff(float a, float b) {
  auto key = [](float x) -> int64_t {
    int32_t i;
    std::memcpy(&i, &x, sizeof(i));
    return i >= 0 ? static_cast<int64_t>(i)
                  : -static_cast<int64_t>(i & 0x7fffffff);
  };
  return std::llabs(key(a) - key(b));
}

// Max ULP error of a kernel against correctly-rounded libm on a dense grid.
template <typename RefFn>
int64_t MaxUlpOnGrid(void (*kfn)(const float*, float*, int64_t), float lo,
                     float hi, int64_t steps, RefFn ref) {
  int64_t worst = 0;
  constexpr int64_t kChunk = 4096;
  std::vector<float> x(kChunk), y(kChunk);
  for (int64_t s = 0; s < steps; s += kChunk) {
    const int64_t m = std::min(kChunk, steps - s);
    for (int64_t i = 0; i < m; ++i) {
      x[i] = lo + (hi - lo) *
                      (static_cast<float>(s + i) / static_cast<float>(steps));
    }
    kfn(x.data(), y.data(), m);
    for (int64_t i = 0; i < m; ++i) {
      const float want = static_cast<float>(ref(static_cast<double>(x[i])));
      worst = std::max(worst, UlpDiff(y[i], want));
    }
  }
  return worst;
}

TEST(VecMath, ExpUlpBound) {
  const KernelTable& t = *kernels::Table(Backend::kScalar);
  const int64_t worst = MaxUlpOnGrid(t.exp, -87.f, 88.f, 400000,
                                     [](double v) { return std::exp(v); });
  EXPECT_LE(worst, 4) << "vexp drifted vs libm";
}

TEST(VecMath, TanhUlpBound) {
  const KernelTable& t = *kernels::Table(Backend::kScalar);
  const int64_t worst = MaxUlpOnGrid(t.tanh, -10.f, 10.f, 400000,
                                     [](double v) { return std::tanh(v); });
  EXPECT_LE(worst, 8) << "vtanh drifted vs libm";
}

TEST(VecMath, SigmoidUlpBound) {
  const KernelTable& t = *kernels::Table(Backend::kScalar);
  const int64_t worst =
      MaxUlpOnGrid(t.sigmoid, -30.f, 30.f, 400000,
                   [](double v) { return 1.0 / (1.0 + std::exp(-v)); });
  EXPECT_LE(worst, 8) << "vsigmoid drifted vs libm";
}

// Whole-op parity through the public ops:: API, flipping the active backend
// in-process. Covers the ParallelFor plumbing on top of the kernels.
TEST(OpsBackendParity, EndToEnd) {
  const Backend orig = kernels::ActiveBackend();
  Rng rng(20260806);
  Tensor a = Tensor::Randn({7, 33}, rng);
  Tensor b = Tensor::Randn({7, 33}, rng);
  Tensor m1 = Tensor::Randn({9, 17}, rng);
  Tensor m2 = Tensor::Randn({17, 21}, rng);

  struct Run {
    std::vector<Tensor> outs;
    double sumsq;
  };
  auto run_all = [&]() {
    Run r;
    r.outs.push_back(ops::Add(a, b));
    r.outs.push_back(ops::Mul(a, b));
    r.outs.push_back(ops::Div(a, ops::AddScalar(ops::Abs(b), 1.f)));
    r.outs.push_back(ops::Exp(ops::MulScalar(a, 0.1f)));
    r.outs.push_back(ops::Tanh(a));
    r.outs.push_back(ops::Sigmoid(a));
    r.outs.push_back(ops::SoftmaxLastDim(a));
    r.outs.push_back(ops::MatMul(m1, m2));
    r.outs.push_back(ops::SumAll(a));
    r.outs.push_back(ops::MaxAll(a));
    r.outs.push_back(ops::SumAxis(a, 0));
    r.sumsq = ops::SumSquares(a);
    return r;
  };

  kernels::SetBackendForTesting(Backend::kScalar);
  Run ref = run_all();
  for (Backend bk : {Backend::kSse2, Backend::kAvx2}) {
    if (!kernels::BackendSupported(bk)) continue;
    kernels::SetBackendForTesting(bk);
    Run alt = run_all();
    ASSERT_EQ(ref.outs.size(), alt.outs.size());
    EXPECT_EQ(ref.sumsq, alt.sumsq) << kernels::BackendName(bk);
    for (size_t i = 0; i < ref.outs.size(); ++i) {
      const Tensor& x = ref.outs[i];
      const Tensor& y = alt.outs[i];
      ASSERT_TRUE(x.SameShape(y));
      for (int64_t j = 0; j < x.numel(); ++j) {
        ASSERT_EQ(Bits(x.data()[j]), Bits(y.data()[j]))
            << "op " << i << " backend " << kernels::BackendName(bk)
            << " elem " << j;
      }
    }
  }
  // Restore the startup backend for any tests that follow in this process.
  kernels::SetBackendForTesting(orig);
}

}  // namespace
}  // namespace ealgap
