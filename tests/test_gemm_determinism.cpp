// Bitwise determinism of the parallel driver: dynamic block scheduling
// means which rank computes which (mc x nr-group) block is timing-
// dependent, but every mr x nr register tile accumulates over the full kc
// of each panel in a fixed kk order, so C must come out bit-identical on
// every run and at every thread count — including the 2-D column-group
// fallback. Block sizes are pinned because the auto-tuned defaults vary
// with the thread count, which would legitimately change the result.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/gemm.hpp"
#include "core/sgemm.hpp"
#include "scoped_knobs.hpp"

using ag::index_t;

namespace {

ag::BlockSizes pinned_blocks() {
  ag::BlockSizes bs;
  bs.mr = 8;
  bs.nr = 6;
  bs.kc = 32;
  bs.mc = 32;
  bs.nc = 48;
  return bs;
}

// One dgemm into a fresh copy of c0; returns the raw result bytes.
std::vector<double> run_once(int threads, index_t m, index_t n, index_t k,
                             const ag::Matrix<double>& a, const ag::Matrix<double>& b,
                             const ag::Matrix<double>& c0) {
  ag::Context ctx(ag::KernelShape{8, 6}, threads);
  ctx.set_block_sizes(pinned_blocks());
  ag::Matrix<double> c(c0);
  ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.25,
            a.data(), a.ld(), b.data(), b.ld(), 0.5, c.data(), c.ld(), ctx);
  std::vector<double> out(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j)
    std::memcpy(out.data() + j * m, c.data() + j * c.ld(),
                static_cast<std::size_t>(m) * sizeof(double));
  return out;
}

TEST(GemmDeterminism, BitwiseIdenticalAcrossRunsAndThreadCounts) {
  // m=200 with mc=32 gives ceil(200/32)=7 row blocks: 8 threads exercises
  // the 2-D column-group fallback, 2 and 4 stay 1-D dynamic.
  const index_t m = 200, n = 96, k = 80;
  agtest::ScopedSmallMnk pack_path(0);  // keep every run on the packed path
  const auto a = ag::random_matrix(m, k, 101);
  const auto b = ag::random_matrix(k, n, 102);
  const auto c0 = ag::random_matrix(m, n, 103);

  const std::vector<double> golden = run_once(1, m, n, k, a, b, c0);
  const std::size_t bytes = golden.size() * sizeof(double);
  for (int threads : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 20; ++rep) {
      const std::vector<double> got = run_once(threads, m, n, k, a, b, c0);
      ASSERT_EQ(std::memcmp(got.data(), golden.data(), bytes), 0)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

// sgemm runs the same driver: one call at pinned blocks into a fresh
// copy of c0. mc 64 is a multiple of every f32 kernel's mr and nc 48 of
// every nr.
std::vector<float> run_sgemm_once(int threads, index_t m, index_t n, index_t k,
                                  const std::vector<float>& a, const std::vector<float>& b,
                                  const std::vector<float>& c0) {
  ag::SgemmOptions opts;
  opts.threads = threads;
  opts.kc = 32;
  opts.mc = 64;
  opts.nc = 48;
  std::vector<float> c(c0);
  ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, m, n, k, 1.25f,
            a.data(), m, b.data(), k, 0.5f, c.data(), m, opts);
  return c;
}

std::vector<float> random_floats(std::size_t count, std::uint64_t seed) {
  ag::Xoshiro256 rng(seed);
  std::vector<float> v(count);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1, 1));
  return v;
}

TEST(GemmDeterminism, SgemmBitwiseIdenticalAcrossRunsAndThreadCounts) {
  // m=400 with mc=64 gives ceil(400/64)=7 row blocks: 8 threads exercises
  // the 2-D column-group fallback, 2 and 4 stay 1-D dynamic.
  const index_t m = 400, n = 96, k = 80;
  agtest::ScopedSmallMnk pack_path(0);
  const auto a = random_floats(static_cast<std::size_t>(m * k), 301);
  const auto b = random_floats(static_cast<std::size_t>(k * n), 302);
  const auto c0 = random_floats(static_cast<std::size_t>(m * n), 303);

  const std::vector<float> golden = run_sgemm_once(1, m, n, k, a, b, c0);
  const std::size_t bytes = golden.size() * sizeof(float);
  for (int threads : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 20; ++rep) {
      const std::vector<float> got = run_sgemm_once(threads, m, n, k, a, b, c0);
      ASSERT_EQ(std::memcmp(got.data(), golden.data(), bytes), 0)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(GemmDeterminism, SmallFastPathIsDeterministicToo) {
  // The fast path is serial, so this mostly guards against accidental
  // future parallelization changing the accumulation order.
  const index_t m = 24, n = 20, k = 16;
  agtest::ScopedSmallMnk fast_path(32);
  const auto a = ag::random_matrix(m, k, 201);
  const auto b = ag::random_matrix(k, n, 202);
  const auto c0 = ag::random_matrix(m, n, 203);
  const std::vector<double> golden = run_once(1, m, n, k, a, b, c0);
  for (int threads : {1, 4}) {
    for (int rep = 0; rep < 5; ++rep) {
      const std::vector<double> got = run_once(threads, m, n, k, a, b, c0);
      ASSERT_EQ(std::memcmp(got.data(), golden.data(), golden.size() * sizeof(double)), 0)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

}  // namespace
