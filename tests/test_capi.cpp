// CBLAS C-API shim tests: each cblas_* entry point must agree with the
// corresponding C++ call (col-major) and with the reference semantics in
// row-major, including the side/uplo/trans flips the row-major mapping
// performs.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "blas/reference_blas3.hpp"
#include "blas/reference_gemm.hpp"
#include "capi/armgemm_cblas.h"
#include "common/matrix.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"

using ag::index_t;
using ag::Matrix;

namespace {

TEST(CApi, DgemmColMajorMatchesReference) {
  const int m = 37, n = 29, k = 41;
  auto a = ag::random_matrix(m, k, 1);
  auto b = ag::random_matrix(k, n, 2);
  auto c = ag::random_matrix(m, n, 3);
  Matrix<double> c_ref(c);
  cblas_dgemm(CblasColMajor, CblasNoTrans, CblasNoTrans, m, n, k, 1.5, a.data(),
              static_cast<int>(a.ld()), b.data(), static_cast<int>(b.ld()), 0.5, c.data(),
              static_cast<int>(c.ld()));
  ag::reference_dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k,
                      1.5, a.data(), a.ld(), b.data(), b.ld(), 0.5, c_ref.data(), c_ref.ld());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) ASSERT_NEAR(c(i, j), c_ref(i, j), 1e-10);
}

TEST(CApi, DgemmRowMajorHandComputed) {
  const double a[] = {1, 2, 3, 4};  // row-major 2x2
  const double b[] = {5, 6, 7, 8};
  double c[4] = {};
  cblas_dgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans, 2, 2, 2, 1.0, a, 2, b, 2, 0.0, c, 2);
  EXPECT_DOUBLE_EQ(c[0], 19);
  EXPECT_DOUBLE_EQ(c[1], 22);
  EXPECT_DOUBLE_EQ(c[2], 43);
  EXPECT_DOUBLE_EQ(c[3], 50);
}

TEST(CApi, ConjTransActsAsTrans) {
  const int n = 12;
  auto a = ag::random_matrix(n, n, 4);
  auto b = ag::random_matrix(n, n, 5);
  Matrix<double> c1(n, n), c2(n, n);
  c1.fill(0);
  c2.fill(0);
  cblas_dgemm(CblasColMajor, CblasConjTrans, CblasNoTrans, n, n, n, 1.0, a.data(), n, b.data(),
              n, 0.0, c1.data(), n);
  cblas_dgemm(CblasColMajor, CblasTrans, CblasNoTrans, n, n, n, 1.0, a.data(), n, b.data(), n,
              0.0, c2.data(), n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ASSERT_EQ(c1(i, j), c2(i, j));
}

TEST(CApi, SgemmMatches) {
  const int n = 24;
  std::vector<float> a(n * n, 0.5f), b(n * n, 0.25f), c(n * n, 1.0f);
  cblas_sgemm(CblasColMajor, CblasNoTrans, CblasNoTrans, n, n, n, 2.0f, a.data(), n, b.data(),
              n, 1.0f, c.data(), n);
  // Every element: 2 * sum(0.5 * 0.25) * n + 1 = 2*0.125*24 + 1 = 7.
  for (float v : c) ASSERT_FLOAT_EQ(v, 7.0f);
}

TEST(CApi, DsyrkRowMajorMatchesColMajorTranspose) {
  const int n = 30, k = 17;
  auto a = ag::random_matrix(n, k, 6);  // col-major n x k
  // Row-major n x k view of the same logical matrix = transpose the data.
  Matrix<double> a_rm(k, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < k; ++j) a_rm(j, i) = a(i, j);
  Matrix<double> c_cm(n, n), c_rm(n, n);
  c_cm.fill(0);
  c_rm.fill(0);
  cblas_dsyrk(CblasColMajor, CblasLower, CblasNoTrans, n, k, 1.0, a.data(),
              static_cast<int>(a.ld()), 0.0, c_cm.data(), n);
  // Row-major with lda = k (row stride); result C row-major lower.
  cblas_dsyrk(CblasRowMajor, CblasLower, CblasNoTrans, n, k, 1.0, a_rm.data(), k, 0.0,
              c_rm.data(), n);
  // c_rm row-major lower(i,j): element at [i*n + j] = c_rm.data()[j + i*?]...
  // compare element-wise: row-major C(i,j) == col-major C(i,j).
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j <= i; ++j)
      ASSERT_NEAR(c_rm.data()[i * n + j], c_cm(i, j), 1e-10) << i << "," << j;
}

TEST(CApi, DtrsmSolvesSystem) {
  const int n = 40, nrhs = 8;
  auto l = ag::random_matrix(n, n, 7);
  for (index_t i = 0; i < n; ++i) l(i, i) = 4.0;
  auto b0 = ag::random_matrix(n, nrhs, 8);
  Matrix<double> x(b0);
  cblas_dtrsm(CblasColMajor, CblasLeft, CblasLower, CblasNoTrans, CblasNonUnit, n, nrhs, 1.0,
              l.data(), n, x.data(), n);
  Matrix<double> x_ref(b0);
  ag::reference_dtrsm(ag::Side::Left, ag::Uplo::Lower, ag::Trans::NoTrans, ag::Diag::NonUnit,
                      n, nrhs, 1.0, l.data(), n, x_ref.data(), n);
  for (index_t j = 0; j < nrhs; ++j)
    for (index_t i = 0; i < n; ++i) ASSERT_NEAR(x(i, j), x_ref(i, j), 1e-10);
}

TEST(CApi, DtrmmAndDsymmRun) {
  const int n = 25;
  auto a = ag::random_matrix(n, n, 9);
  auto b = ag::random_matrix(n, n, 10);
  Matrix<double> b2(b), c(n, n);
  c.fill(0);
  cblas_dtrmm(CblasColMajor, CblasLeft, CblasUpper, CblasNoTrans, CblasNonUnit, n, n, 2.0,
              a.data(), n, b2.data(), n);
  Matrix<double> b_ref(b);
  ag::reference_dtrmm(ag::Side::Left, ag::Uplo::Upper, ag::Trans::NoTrans, ag::Diag::NonUnit,
                      n, n, 2.0, a.data(), n, b_ref.data(), n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ASSERT_NEAR(b2(i, j), b_ref(i, j), 1e-10);

  cblas_dsymm(CblasColMajor, CblasLeft, CblasLower, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
              c.data(), n);
  Matrix<double> c_ref(n, n);
  c_ref.fill(0);
  ag::reference_dsymm(ag::Side::Left, ag::Uplo::Lower, n, n, 1.0, a.data(), n, b.data(), n,
                      0.0, c_ref.data(), n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ASSERT_NEAR(c(i, j), c_ref(i, j), 1e-10);
}

// With the tuner off, cblas calls run the CBLAS context's starting kernel
// at host defaults: it must be the registry's default kernel, bit for bit.
TEST(CApi, UntunedCblasRunsTheDefaultKernel) {
  const std::string mode = armgemm_get_tune_mode();
  const int threads = armgemm_get_num_threads();
  armgemm_set_tune_mode("off");
  armgemm_set_num_threads(1);
  const int m = 67, n = 45, k = 700;  // k spans several kc panels
  auto a = ag::random_matrix(m, k, 31);
  auto b = ag::random_matrix(k, n, 32);
  std::vector<double> c_cblas(static_cast<std::size_t>(m * n), 0.25), c_ctx = c_cblas;
  cblas_dgemm(CblasColMajor, CblasNoTrans, CblasNoTrans, m, n, k, 1.0, a.data(),
              static_cast<int>(a.ld()), b.data(), static_cast<int>(b.ld()), 1.0,
              c_cblas.data(), m);
  ag::Context ctx(ag::default_microkernel().name, 1);
  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.0,
            a.data(), a.ld(), b.data(), b.ld(), 1.0, c_ctx.data(), m, ctx);
  armgemm_set_tune_mode(mode.c_str());
  armgemm_set_num_threads(threads);
  EXPECT_EQ(c_cblas, c_ctx);
}

TEST(CApi, ThreadControl) {
  EXPECT_EQ(armgemm_get_num_threads(), 1);
  armgemm_set_num_threads(4);
  EXPECT_EQ(armgemm_get_num_threads(), 4);
  // A call with 4 threads must still be correct.
  const int m = 120, n = 60, k = 50;
  auto a = ag::random_matrix(m, k, 11);
  auto b = ag::random_matrix(k, n, 12);
  auto c = ag::random_matrix(m, n, 13);
  Matrix<double> c_ref(c);
  cblas_dgemm(CblasColMajor, CblasNoTrans, CblasNoTrans, m, n, k, 1.0, a.data(), m, b.data(),
              k, 1.0, c.data(), m);
  ag::reference_dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k,
                      1.0, a.data(), m, b.data(), k, 1.0, c_ref.data(), m);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) ASSERT_NEAR(c(i, j), c_ref(i, j), 1e-10);
  armgemm_set_num_threads(1);
  armgemm_set_num_threads(0);  // ignored
  EXPECT_EQ(armgemm_get_num_threads(), 1);
}

}  // namespace
