// Per-core FMA roof: the benchmark's own loop of independent fused
// multiply-adds at the widest vector width the host executes (AVX-512,
// else AVX2, on x86; NEON on AArch64). Twelve accumulator chains cover
// the FMA latency x issue width of current cores, so the loop runs at the
// FMA units' throughput, which is the ceiling for every GEMM rate point.
#include "roof.hpp"

#include <algorithm>
#include <cstring>

#include "bench.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace perfbench {
namespace {

constexpr long kChains = 12;

// Twelve named accumulators rather than an array, so they stay in
// registers at any optimization level. Each loop returns a value derived
// from every accumulator so the chains stay live; fma(acc, x, y) with
// x < 1 converges, so nothing overflows.
#define PERFBENCH_FMA_LOOP(VEC, SET1, FMA, ADD, REDUCE)                              \
  const VEC x = SET1(0.999999), y = SET1(1e-6);                                      \
  VEC a0 = SET1(0.50), a1 = SET1(0.51), a2 = SET1(0.52), a3 = SET1(0.53);            \
  VEC a4 = SET1(0.54), a5 = SET1(0.55), a6 = SET1(0.56), a7 = SET1(0.57);            \
  VEC a8 = SET1(0.58), a9 = SET1(0.59), a10 = SET1(0.60), a11 = SET1(0.61);          \
  for (long i = 0; i < iters; ++i) {                                                 \
    a0 = FMA(a0, x, y);                                                              \
    a1 = FMA(a1, x, y);                                                              \
    a2 = FMA(a2, x, y);                                                              \
    a3 = FMA(a3, x, y);                                                              \
    a4 = FMA(a4, x, y);                                                              \
    a5 = FMA(a5, x, y);                                                              \
    a6 = FMA(a6, x, y);                                                              \
    a7 = FMA(a7, x, y);                                                              \
    a8 = FMA(a8, x, y);                                                              \
    a9 = FMA(a9, x, y);                                                              \
    a10 = FMA(a10, x, y);                                                            \
    a11 = FMA(a11, x, y);                                                            \
  }                                                                                  \
  const VEC sum = ADD(ADD(ADD(ADD(a0, a1), ADD(a2, a3)), ADD(ADD(a4, a5), ADD(a6, a7))), \
                      ADD(ADD(a8, a9), ADD(a10, a11)));                              \
  return REDUCE(sum);

/// Sum of a vector's lanes, through memory (portable across widths).
template <class V, class T>
double lanes_sum(const V& v) {
  T lanes[sizeof(V) / sizeof(T)];
  std::memcpy(lanes, &v, sizeof(V));
  double s = 0;
  for (const T x : lanes) s += x;
  return s;
}

#if defined(__x86_64__)
__attribute__((target("avx512f"))) double f64_avx512(long iters) {
  PERFBENCH_FMA_LOOP(__m512d, _mm512_set1_pd, _mm512_fmadd_pd, _mm512_add_pd,
                     (lanes_sum<__m512d, double>))
}
__attribute__((target("avx512f"))) double f32_avx512(long iters) {
  PERFBENCH_FMA_LOOP(__m512, _mm512_set1_ps, _mm512_fmadd_ps, _mm512_add_ps,
                     (lanes_sum<__m512, float>))
}
__attribute__((target("avx2,fma"))) double f64_avx2(long iters) {
  PERFBENCH_FMA_LOOP(__m256d, _mm256_set1_pd, _mm256_fmadd_pd, _mm256_add_pd,
                     (lanes_sum<__m256d, double>))
}
__attribute__((target("avx2,fma"))) double f32_avx2(long iters) {
  PERFBENCH_FMA_LOOP(__m256, _mm256_set1_ps, _mm256_fmadd_ps, _mm256_add_ps,
                     (lanes_sum<__m256, float>))
}
#elif defined(__aarch64__)
float64x2_t fma_pd(float64x2_t a, float64x2_t x, float64x2_t y) { return vfmaq_f64(y, a, x); }
float32x4_t fma_ps(float32x4_t a, float32x4_t x, float32x4_t y) { return vfmaq_f32(y, a, x); }
float32x4_t set1_ps(double v) { return vdupq_n_f32(static_cast<float>(v)); }
double f64_neon(long iters) {
  PERFBENCH_FMA_LOOP(float64x2_t, vdupq_n_f64, fma_pd, vaddq_f64,
                     (lanes_sum<float64x2_t, double>))
}
double f32_neon(long iters) {
  PERFBENCH_FMA_LOOP(float32x4_t, set1_ps, fma_ps, vaddq_f32,
                     (lanes_sum<float32x4_t, float>))
}
#endif

struct Loop {
  double (*fn)(long);
  int lanes;  // elements per vector
};

/// Best-of-`reps` Gflop/s of one loop; ~10 ms per rep.
double best_gflops(Loop loop, int reps) {
  volatile double sink = 0;
  long iters = 1 << 12;
  for (;;) {  // size the loop to at least 10 ms
    const double t0 = now();
    sink = sink + loop.fn(iters);
    if (now() - t0 >= 0.01) break;
    iters *= 2;
  }
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now();
    sink = sink + loop.fn(iters);
    const double dt = now() - t0;
    best = std::max(best, 2.0 * kChains * loop.lanes * static_cast<double>(iters) / dt * 1e-9);
  }
  return best;
}

}  // namespace

Roof measure_roof(int reps) {
  Roof roof;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    roof.isa = "avx512";
    roof.f64 = best_gflops({f64_avx512, 8}, reps);
    roof.f32 = best_gflops({f32_avx512, 16}, reps);
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    roof.isa = "avx2";
    roof.f64 = best_gflops({f64_avx2, 4}, reps);
    roof.f32 = best_gflops({f32_avx2, 8}, reps);
  }
#elif defined(__aarch64__)
  roof.isa = "neon";
  roof.f64 = best_gflops({f64_neon, 2}, reps);
  roof.f32 = best_gflops({f32_neon, 4}, reps);
#endif
  return roof;
}

}  // namespace perfbench
