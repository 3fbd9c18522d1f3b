// AVX2+FMA register kernels for x86-64 hosts, instantiated from the
// width-templated kernel in kernels/simd_microkernel.hpp.
//
// These mirror the paper's ARMv8 register-blocking decisions on the host
// ISA: the 8x6 kernel keeps a 12-register accumulator tile (2 ymm per
// column x 6 columns) resident, streams A in two vector loads and B as
// broadcasts — the direct analogue of the paper's 24 accumulator v-registers
// plus rotated A/B registers. The float 16x6 kernel has the same structure
// with 8 floats per ymm. Compiled only when __AVX2__ && __FMA__.
#pragma once

#include "kernels/microkernel.hpp"

namespace ag {

/// True when this build contains the AVX2 kernels.
bool avx2_kernels_available();

#if defined(__AVX2__) && defined(__FMA__)
void avx2_microkernel_8x6(index_t kc, double alpha, const double* a, const double* b, double beta, double* c,
                          index_t ldc);
void avx2_microkernel_8x4(index_t kc, double alpha, const double* a, const double* b, double beta, double* c,
                          index_t ldc);
void avx2_microkernel_4x4(index_t kc, double alpha, const double* a, const double* b, double beta, double* c,
                          index_t ldc);
void avx2_microkernel_12x4(index_t kc, double alpha, const double* a, const double* b, double beta, double* c,
                           index_t ldc);
void avx2_smicrokernel_16x6(index_t kc, float alpha, const float* a, const float* b, float beta,
                            float* c, index_t ldc);
#endif

}  // namespace ag
