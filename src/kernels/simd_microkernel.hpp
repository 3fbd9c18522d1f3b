// The x86 SIMD register kernel, written once for every vector width and
// precision.
//
// simd_microkernel<V, MV, NR> keeps an (MV vectors) x NR accumulator tile
// resident: each k-step loads MV vectors of the packed A sliver,
// broadcasts NR elements of the packed B sliver, and issues MV*NR fused
// multiply-adds, the rank-1 update of the paper's layer 7. MR = MV * lanes.
// V is a vector-traits type below (ymm / zmm x double / float); the AVX2
// and AVX-512 kernels are instantiations of this one body, so a register
// shape is a line in the registry, not a hand-written kernel.
//
// x86 only. Each traits type exists only when the translation unit is
// compiled for its ISA (-mavx2 -mfma, or -mavx512f). Everything here has
// internal linkage: the AVX-512 translation unit is built with its own
// per-source flags, and the linker must never merge its copies into code
// that runs on hosts without AVX-512.
#pragma once

#include <immintrin.h>

#include <cstdint>

#include "common/knobs.hpp"

// Every loop over the register tile is fully unrolled, so each
// accumulator is its own register; a rolled loop over acc[][] would keep
// the tile on the stack.
#define AG_UNROLL _Pragma("GCC unroll 32")

namespace ag::simd {
namespace {

using index_t = std::int64_t;

template <class T, int Bits>
struct Vec;

#if defined(__AVX2__) && defined(__FMA__)
template <>
struct Vec<double, 256> {
  using elem = double;
  using reg = __m256d;
  static constexpr int lanes = 4;
  static reg zero() { return _mm256_setzero_pd(); }
  static reg set1(double x) { return _mm256_set1_pd(x); }
  static reg load(const double* p) { return _mm256_loadu_pd(p); }
  static reg broadcast(const double* p) { return _mm256_broadcast_sd(p); }
  static reg fma(reg a, reg b, reg c) { return _mm256_fmadd_pd(a, b, c); }
  static reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
  static void store(double* p, reg v) { _mm256_storeu_pd(p, v); }
};

template <>
struct Vec<float, 256> {
  using elem = float;
  using reg = __m256;
  static constexpr int lanes = 8;
  static reg zero() { return _mm256_setzero_ps(); }
  static reg set1(float x) { return _mm256_set1_ps(x); }
  static reg load(const float* p) { return _mm256_loadu_ps(p); }
  static reg broadcast(const float* p) { return _mm256_broadcast_ss(p); }
  static reg fma(reg a, reg b, reg c) { return _mm256_fmadd_ps(a, b, c); }
  static reg mul(reg a, reg b) { return _mm256_mul_ps(a, b); }
  static void store(float* p, reg v) { _mm256_storeu_ps(p, v); }
};
#endif

#if defined(__AVX512F__)
template <>
struct Vec<double, 512> {
  using elem = double;
  using reg = __m512d;
  static constexpr int lanes = 8;
  static reg zero() { return _mm512_setzero_pd(); }
  static reg set1(double x) { return _mm512_set1_pd(x); }
  static reg load(const double* p) { return _mm512_loadu_pd(p); }
  static reg broadcast(const double* p) { return _mm512_set1_pd(*p); }
  static reg fma(reg a, reg b, reg c) { return _mm512_fmadd_pd(a, b, c); }
  static reg mul(reg a, reg b) { return _mm512_mul_pd(a, b); }
  static void store(double* p, reg v) { _mm512_storeu_pd(p, v); }
};

template <>
struct Vec<float, 512> {
  using elem = float;
  using reg = __m512;
  static constexpr int lanes = 16;
  static reg zero() { return _mm512_setzero_ps(); }
  static reg set1(float x) { return _mm512_set1_ps(x); }
  static reg load(const float* p) { return _mm512_loadu_ps(p); }
  static reg broadcast(const float* p) { return _mm512_set1_ps(*p); }
  static reg fma(reg a, reg b, reg c) { return _mm512_fmadd_ps(a, b, c); }
  static reg mul(reg a, reg b) { return _mm512_mul_ps(a, b); }
  static void store(float* p, reg v) { _mm512_storeu_ps(p, v); }
};
#endif

/// The register kernel; see kernels/microkernel.hpp for the contract
/// (fused beta: beta == 0 never reads C). Loads and stores are unaligned,
/// so neither the packed slivers nor C need any alignment beyond their
/// element type's.
///
/// Software prefetch: every cache line of the A and B k-steps is
/// prefetched ARMGEMM_PREA / ARMGEMM_PREB bytes ahead, and the C tile's
/// lines are pulled in before the k-loop so the epilogue hits warm lines.
template <class V, int MV, int NR>
void simd_microkernel(index_t kc, typename V::elem alpha, const typename V::elem* a,
                      const typename V::elem* b, typename V::elem beta, typename V::elem* c,
                      index_t ldc) {
  using T = typename V::elem;
  using R = typename V::reg;
  constexpr int L = V::lanes;
  constexpr int MR = MV * L;
  constexpr int kLine = 64;
  constexpr int a_step_bytes = MR * static_cast<int>(sizeof(T));
  constexpr int b_step_bytes = NR * static_cast<int>(sizeof(T));

  const index_t prea = prefetch_a_bytes();
  const index_t preb = prefetch_b_bytes();
  R acc[MV][NR];
  AG_UNROLL for (int i = 0; i < MV; ++i)
    AG_UNROLL for (int j = 0; j < NR; ++j) acc[i][j] = V::zero();

  AG_UNROLL for (int j = 0; j < NR; ++j) {
    const char* cj = reinterpret_cast<const char*>(c + j * ldc);
    AG_UNROLL for (int off = 0; off < a_step_bytes; off += kLine)
      _mm_prefetch(cj + off, _MM_HINT_T0);
  }

  for (index_t p = 0; p < kc; ++p) {
    const char* pa = reinterpret_cast<const char*>(a);
    const char* pb = reinterpret_cast<const char*>(b);
    if (prea) {
      AG_UNROLL for (int off = 0; off < a_step_bytes; off += kLine)
        _mm_prefetch(pa + prea + off, _MM_HINT_T0);
    }
    if (preb) {
      AG_UNROLL for (int off = 0; off < b_step_bytes; off += kLine)
        _mm_prefetch(pb + preb + off, _MM_HINT_T0);
    }
    R av[MV];
    AG_UNROLL for (int i = 0; i < MV; ++i) av[i] = V::load(a + i * L);
    AG_UNROLL for (int j = 0; j < NR; ++j) {
      const R bj = V::broadcast(b + j);
      AG_UNROLL for (int i = 0; i < MV; ++i) acc[i][j] = V::fma(av[i], bj, acc[i][j]);
    }
    a += MR;
    b += NR;
  }

  const R va = V::set1(alpha);
  if (beta == T(0)) {
    // Overwrite without reading C: NaN/Inf garbage must not propagate.
    AG_UNROLL for (int j = 0; j < NR; ++j)
      AG_UNROLL for (int i = 0; i < MV; ++i)
        V::store(c + j * ldc + i * L, V::mul(va, acc[i][j]));
  } else if (beta == T(1)) {
    AG_UNROLL for (int j = 0; j < NR; ++j)
      AG_UNROLL for (int i = 0; i < MV; ++i) {
        T* cij = c + j * ldc + i * L;
        V::store(cij, V::fma(va, acc[i][j], V::load(cij)));
      }
  } else {
    const R vb = V::set1(beta);
    AG_UNROLL for (int j = 0; j < NR; ++j)
      AG_UNROLL for (int i = 0; i < MV; ++i) {
        T* cij = c + j * ldc + i * L;
        V::store(cij, V::fma(vb, V::load(cij), V::mul(va, acc[i][j])));
      }
  }
}

}  // namespace
}  // namespace ag::simd

#undef AG_UNROLL
