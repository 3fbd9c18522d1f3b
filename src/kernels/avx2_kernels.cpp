#include "kernels/avx2_kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include "kernels/simd_microkernel.hpp"
#endif

namespace ag {

bool avx2_kernels_available() {
#if defined(__AVX2__) && defined(__FMA__)
  return true;
#else
  return false;
#endif
}

#if defined(__AVX2__) && defined(__FMA__)

using Ymm64 = simd::Vec<double, 256>;
using Ymm32 = simd::Vec<float, 256>;

void avx2_microkernel_8x6(index_t kc, double alpha, const double* a, const double* b,
                          double beta, double* c, index_t ldc) {
  simd::simd_microkernel<Ymm64, 2, 6>(kc, alpha, a, b, beta, c, ldc);
}

void avx2_microkernel_8x4(index_t kc, double alpha, const double* a, const double* b,
                          double beta, double* c, index_t ldc) {
  simd::simd_microkernel<Ymm64, 2, 4>(kc, alpha, a, b, beta, c, ldc);
}

void avx2_microkernel_4x4(index_t kc, double alpha, const double* a, const double* b,
                          double beta, double* c, index_t ldc) {
  simd::simd_microkernel<Ymm64, 1, 4>(kc, alpha, a, b, beta, c, ldc);
}

// 12x4 uses 12 accumulators like 8x6 but favours taller A panels; included
// as an extension shape for the native benchmarks.
void avx2_microkernel_12x4(index_t kc, double alpha, const double* a, const double* b,
                           double beta, double* c, index_t ldc) {
  simd::simd_microkernel<Ymm64, 3, 4>(kc, alpha, a, b, beta, c, ldc);
}

void avx2_smicrokernel_16x6(index_t kc, float alpha, const float* a, const float* b, float beta,
                            float* c, index_t ldc) {
  simd::simd_microkernel<Ymm32, 2, 6>(kc, alpha, a, b, beta, c, ldc);
}

#endif  // __AVX2__ && __FMA__

}  // namespace ag
