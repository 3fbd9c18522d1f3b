// Compiled with -mavx512f -mfma whatever the build's global flags (see
// CMakeLists.txt), and run only after the registry's CPUID/XCR0 check.
// Keep this file to the kernel template and the plain functions below:
// an inline function from a shared header emitted here would be compiled
// for AVX-512, and the linker could pick that copy for callers that run
// on CPUs without it.
#include "kernels/avx512_kernels.hpp"

#include "kernels/simd_microkernel.hpp"

namespace ag {

using Zmm64 = simd::Vec<double, 512>;
using Zmm32 = simd::Vec<float, 512>;

void avx512_microkernel_24x8(index_t kc, double alpha, const double* a, const double* b,
                             double beta, double* c, index_t ldc) {
  simd::simd_microkernel<Zmm64, 3, 8>(kc, alpha, a, b, beta, c, ldc);
}

void avx512_smicrokernel_32x12(index_t kc, float alpha, const float* a, const float* b,
                               float beta, float* c, index_t ldc) {
  simd::simd_microkernel<Zmm32, 2, 12>(kc, alpha, a, b, beta, c, ldc);
}

}  // namespace ag
