// Internal driver pieces shared by the single-call drivers (core/gemm.cpp,
// instantiated for double and float), the batch driver
// (core/gemm_batch.cpp) and the tuner's probes (core/tuning.cpp). Not part
// of the public surface.
#pragma once

#include "blas/gemm_types.hpp"
#include "core/block_sizes.hpp"
#include "core/context.hpp"
#include "core/tuning.hpp"
#include "kernels/microkernel.hpp"
#include "obs/gemm_stats.hpp"
#include "obs/phase.hpp"

namespace ag::detail {

/// beta-only epilogue: C := beta * C over an m x n panel. Used when no
/// multiply runs at all (k == 0 or alpha == 0).
template <typename T>
void scale_panel(T* c, index_t ldc, index_t m, index_t n, T beta);

/// The no-pack small-matrix axpy nest (C := alpha op(A) op(B) + beta C,
/// column-major), without any instrumentation. Deterministic (j, l, i)
/// accumulation order; beta applied per column before its accumulation.
/// The stats-recording wrapper lives in gemm.cpp; batch tickets call this
/// directly because per-rank stats slots are not meaningful for tickets
/// that run on arbitrary pool threads.
template <typename T>
void gemm_small_nest(Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k, T alpha,
                     const T* a, index_t lda, const T* b, index_t ldb, T beta, T* c,
                     index_t ldc);

/// The serial blocked nest (Figure 2, layers 1-3 around GEBP) with an
/// explicit kernel and blocking. `stats` and `phases` may be null; the
/// tuner's probes pass both null, so a probe records nothing.
template <typename T>
void gemm_serial(Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k, T alpha,
                 const T* a, index_t lda, const T* b, index_t ldb, T beta, T* c, index_t ldc,
                 KernelFn<T> kernel, const BlockSizes& bs, GemmScratch& scratch,
                 obs::GemmStats* stats, obs::CallPhases* phases);

/// One GEMM call through the layered driver: argument validation, the
/// row-major swap, the per-call stats record, then the small, serial or
/// parallel nest on the context's pool and scratch. f64 runs the
/// context's (or the tuner's) kernel and blocking; f32 runs
/// best_smicrokernel() with resolve_sgemm_blocks(ctx, pins, ...).
/// Serving telemetry records f64 calls only.
template <typename T>
void gemm(Layout layout, Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k,
          T alpha, const T* a, index_t lda, const T* b, index_t ldb, T beta, T* c, index_t ldc,
          const Context& ctx, const BlockPins& pins);

}  // namespace ag::detail
