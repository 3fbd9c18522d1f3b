#include "core/sgemm.hpp"

#include <algorithm>

#include "blas/reference_gemm.hpp"
#include "core/gemm_internal.hpp"

namespace ag {
namespace {

void sref_colmajor(Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k, float alpha,
                   const float* a, index_t lda, const float* b, index_t ldb, float beta,
                   float* c, index_t ldc) {
  auto op_at = [](const float* x, index_t ld, Trans t, index_t i, index_t j) {
    return t == Trans::NoTrans ? x[i + j * ld] : x[j + i * ld];
  };
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      float acc = 0.0f;
      for (index_t p = 0; p < k; ++p)
        acc += op_at(a, lda, trans_a, i, p) * op_at(b, ldb, trans_b, p, j);
      float& cij = c[i + j * ldc];
      cij = (beta == 0.0f ? 0.0f : beta * cij) + alpha * acc;
    }
  }
}

}  // namespace

void sgemm(Layout layout, Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k,
           float alpha, const float* a, index_t lda, const float* b, index_t ldb, float beta,
           float* c, index_t ldc, const SgemmOptions& options) {
  thread_local Context ctx;
  ctx.set_threads(std::max(1, options.threads));
  ctx.set_tunable(options.tunable);
  detail::gemm(layout, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, ctx,
               BlockPins{options.kc, options.mc, options.nc});
}

void sgemm(Layout layout, Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k,
           float alpha, const float* a, index_t lda, const float* b, index_t ldb, float beta,
           float* c, index_t ldc, const Context& ctx) {
  detail::gemm(layout, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, ctx,
               BlockPins{});
}

void reference_sgemm(Layout layout, Trans trans_a, Trans trans_b, index_t m, index_t n,
                     index_t k, float alpha, const float* a, index_t lda, const float* b,
                     index_t ldb, float beta, float* c, index_t ldc) {
  validate_gemm_args(layout, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc);
  if (m == 0 || n == 0) return;
  if (layout == Layout::RowMajor) {
    reference_sgemm(Layout::ColMajor, trans_b, trans_a, n, m, k, alpha, b, ldb, a, lda, beta,
                    c, ldc);
    return;
  }
  sref_colmajor(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

}  // namespace ag
