// Conformance grid shared by the f64 and f32 register-kernel suites. A
// kernel must match a scalar rank-kc reference for every (kc, alpha,
// beta, ldc) below, must not read C when beta == 0 (C starts out NaN
// there), and must not write the rows of the ldc padding.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"

namespace conformance {

inline constexpr std::int64_t kKcs[] = {1, 2, 3, 7, 64, 257};
inline constexpr double kAlphas[] = {1.0, -1.0, 2.5, 0.0};
inline constexpr double kBetas[] = {0.0, 1.0, 0.5};
inline constexpr std::int64_t kLdcPads[] = {0, 3};

/// Runs the grid on `fn` (a microkernel over element type T). Tolerance
/// per element: eps * (kc * |alpha| + |beta| + 1), with A, B and C in
/// [-1, 1].
template <typename T, typename Fn>
void check_kernel(const std::string& name, int mr, int nr, Fn fn, double eps) {
  const T sentinel = T(7);
  ag::Xoshiro256 rng(2024);
  for (const std::int64_t kc : kKcs) {
    ag::AlignedBuffer<T> a(static_cast<std::size_t>(mr * kc));
    ag::AlignedBuffer<T> b(static_cast<std::size_t>(nr * kc));
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<T>(rng.uniform(-1, 1));
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<T>(rng.uniform(-1, 1));
    std::vector<double> ab(static_cast<std::size_t>(mr * nr), 0.0);  // sum_p a * b
    for (std::int64_t p = 0; p < kc; ++p)
      for (int j = 0; j < nr; ++j)
        for (int i = 0; i < mr; ++i)
          ab[static_cast<std::size_t>(i + j * mr)] +=
              static_cast<double>(a[static_cast<std::size_t>(p * mr + i)]) *
              static_cast<double>(b[static_cast<std::size_t>(p * nr + j)]);

    for (const std::int64_t pad : kLdcPads)
      for (const double alpha : kAlphas)
        for (const double beta : kBetas) {
          const std::int64_t ldc = mr + pad;
          std::vector<T> c(static_cast<std::size_t>(ldc * nr), sentinel);
          for (int j = 0; j < nr; ++j)
            for (int i = 0; i < mr; ++i)
              c[static_cast<std::size_t>(i + j * ldc)] =
                  beta == 0.0 ? std::numeric_limits<T>::quiet_NaN()
                              : static_cast<T>(rng.uniform(-1, 1));
          const std::vector<T> c0 = c;
          fn(kc, static_cast<T>(alpha), a.data(), b.data(), static_cast<T>(beta), c.data(), ldc);

          const double tol = eps * (static_cast<double>(kc) * std::abs(alpha) + beta + 1.0);
          for (int j = 0; j < nr; ++j) {
            for (int i = 0; i < mr; ++i) {
              const std::size_t at = static_cast<std::size_t>(i + j * ldc);
              const double want =
                  alpha * ab[static_cast<std::size_t>(i + j * mr)] +
                  (beta == 0.0 ? 0.0 : beta * static_cast<double>(c0[at]));
              ASSERT_NEAR(static_cast<double>(c[at]), want, tol)
                  << name << " kc=" << kc << " alpha=" << alpha << " beta=" << beta
                  << " ldc=" << ldc << " at (" << i << "," << j << ")";
            }
            for (std::int64_t i = mr; i < ldc; ++i)
              ASSERT_EQ(c[static_cast<std::size_t>(i + j * ldc)], sentinel)
                  << name << " wrote ldc padding at (" << i << "," << j << ")";
          }
        }
  }
}

}  // namespace conformance
