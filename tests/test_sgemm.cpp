// Single-precision GEMM tests: every float kernel over the conformance
// grid (kernel_conformance.hpp), the full sgemm against reference_sgemm over size sweeps,
// transposes, alpha/beta, threads, and row-major.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/sgemm.hpp"
#include "kernels/sgemm_kernels.hpp"
#include "kernel_conformance.hpp"

using ag::index_t;

namespace {

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  ag::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1, 1));
  return v;
}

TEST(SKernels, AllMatchScalarReference) {
  for (const auto& k : ag::all_smicrokernels())
    conformance::check_kernel<float>(k.name, k.mr, k.nr, k.fn, 2e-6);
}

void check_sgemm(index_t m, index_t n, index_t k, int threads, float alpha = 1.0f,
                 float beta = 1.0f, ag::Trans ta = ag::Trans::NoTrans,
                 ag::Trans tb = ag::Trans::NoTrans) {
  const index_t a_rows = ta == ag::Trans::NoTrans ? m : k;
  const index_t a_cols = ta == ag::Trans::NoTrans ? k : m;
  const index_t b_rows = tb == ag::Trans::NoTrans ? k : n;
  const index_t b_cols = tb == ag::Trans::NoTrans ? n : k;
  auto a = random_floats(static_cast<std::size_t>(a_rows * a_cols), 11);
  auto b = random_floats(static_cast<std::size_t>(b_rows * b_cols), 12);
  auto c = random_floats(static_cast<std::size_t>(m * n), 13);
  auto c_ref = c;

  ag::SgemmOptions opts;
  opts.threads = threads;
  ag::sgemm(ag::Layout::ColMajor, ta, tb, m, n, k, alpha, a.data(),
            std::max<index_t>(1, a_rows), b.data(), std::max<index_t>(1, b_rows), beta,
            c.data(), std::max<index_t>(1, m), opts);
  ag::reference_sgemm(ag::Layout::ColMajor, ta, tb, m, n, k, alpha, a.data(),
                      std::max<index_t>(1, a_rows), b.data(), std::max<index_t>(1, b_rows),
                      beta, c_ref.data(), std::max<index_t>(1, m));

  const float tol = 1e-5f * static_cast<float>(std::max<index_t>(k, 1)) *
                    (std::abs(alpha) + std::abs(beta) + 1);
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_NEAR(c[i], c_ref[i], tol) << "m=" << m << " n=" << n << " k=" << k
                                     << " t=" << threads << " elem " << i;
}

class SgemmSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(SgemmSizes, SquareSerial) { check_sgemm(GetParam(), GetParam(), GetParam(), 1); }

INSTANTIATE_TEST_SUITE_P(Sweep, SgemmSizes,
                         ::testing::Values(1, 3, 15, 16, 17, 33, 64, 100, 129, 200));

TEST(Sgemm, Threads) {
  check_sgemm(200, 150, 80, 2);
  check_sgemm(333, 90, 61, 4);
}

TEST(Sgemm, Transposes) {
  for (ag::Trans ta : {ag::Trans::NoTrans, ag::Trans::Trans})
    for (ag::Trans tb : {ag::Trans::NoTrans, ag::Trans::Trans})
      check_sgemm(70, 55, 40, 1, 1.0f, 1.0f, ta, tb);
}

TEST(Sgemm, AlphaBeta) {
  for (float alpha : {0.0f, 2.0f, -1.0f})
    for (float beta : {0.0f, 1.0f, 0.5f}) check_sgemm(40, 30, 25, 1, alpha, beta);
}

TEST(Sgemm, RowMajor) {
  const float a[] = {1, 2, 3, 4};  // row-major 2x2
  const float b[] = {5, 6, 7, 8};
  float c[4] = {};
  ag::sgemm(ag::Layout::RowMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, 2, 2, 2, 1.0f, a, 2,
            b, 2, 0.0f, c, 2);
  EXPECT_FLOAT_EQ(c[0], 1 * 5 + 2 * 7);
  EXPECT_FLOAT_EQ(c[1], 1 * 6 + 2 * 8);
  EXPECT_FLOAT_EQ(c[2], 3 * 5 + 4 * 7);
  EXPECT_FLOAT_EQ(c[3], 3 * 6 + 4 * 8);
}

TEST(Sgemm, CustomBlockSizes) {
  ag::SgemmOptions opts;
  opts.kc = 16;
  opts.mc = 32;
  opts.nc = 24;
  auto a = random_floats(100 * 90, 21);
  auto b = random_floats(90 * 80, 22);
  auto c = random_floats(100 * 80, 23);
  auto c_ref = c;
  ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, 100, 80, 90, 1.0f,
            a.data(), 100, b.data(), 90, 1.0f, c.data(), 100, opts);
  ag::reference_sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, 100, 80,
                      90, 1.0f, a.data(), 100, b.data(), 90, 1.0f, c_ref.data(), 100);
  for (std::size_t i = 0; i < c.size(); ++i) ASSERT_NEAR(c[i], c_ref[i], 1e-3f);
}

TEST(Sgemm, Validates) {
  float x[4] = {};
  EXPECT_THROW(ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, 2, 2, 2,
                         1.0f, x, 1, x, 2, 0.0f, x, 2),
               ag::InvalidArgument);
}

}  // namespace
