// Single-precision GEMM through the same GotoBLAS layering as dgemm.
//
// SGEMM is not evaluated in the paper, but the framework is precision
// generic: the register blocking doubles its mr (16x6 on 256-bit hosts)
// and the cache blocks deepen (a float is half a double), while the
// packing layouts, GEBP structure and Figure 9 parallelization carry over
// unchanged. sgemm is the float instantiation of dgemm's one driver
// (core/gemm.cpp): the same small, serial and parallel nests, the
// Context's pool and scratch, and the same per-layer GemmStats, tracer
// and PMU hooks.
#pragma once

#include <cstdint>

#include "blas/gemm_types.hpp"
#include "core/context.hpp"

namespace ag {

/// Per-call settings of the Context-free sgemm overload. The call runs on
/// a per-host-thread Context sized to `threads` (its pool and scratch
/// persist across calls); that Context has no stats collector attached,
/// so use the Context overload to record per-layer stats.
struct SgemmOptions {
  int threads = 1;
  /// Cache blocks pinned for this call; zero fields pick host defaults
  /// scaled for float.
  std::int64_t kc = 0, mc = 0, nc = 0;
  /// Opts the call into the closed-loop autotuner: when set (and kc/mc/nc
  /// are all zero and ARMGEMM_TUNE is not off) the f32 shape-class key's
  /// tuned blocking replaces the host defaults. The C API sets it;
  /// explicitly blocked calls are pins.
  bool tunable = false;
};

void sgemm(Layout layout, Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda, const float* b,
           std::int64_t ldb, float beta, float* c, std::int64_t ldc,
           const SgemmOptions& options = {});

/// sgemm on `ctx`: its thread count, pool, scratch and stats collector,
/// and its tunable flag in place of SgemmOptions::tunable. The kernel is
/// always best_smicrokernel(); the context's kernel and block sizes are
/// f64 settings and do not apply.
void sgemm(Layout layout, Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda, const float* b,
           std::int64_t ldb, float beta, float* c, std::int64_t ldc, const Context& ctx);

/// Naive reference for validation.
void reference_sgemm(Layout layout, Trans trans_a, Trans trans_b, std::int64_t m,
                     std::int64_t n, std::int64_t k, float alpha, const float* a,
                     std::int64_t lda, const float* b, std::int64_t ldb, float beta, float* c,
                     std::int64_t ldc);

}  // namespace ag
