// AVX-512 register kernels for x86-64 hosts, instantiated from the
// width-templated kernel in kernels/simd_microkernel.hpp.
//
// The f64 shape is the register model's optimum for 32 zmm registers of
// 8 doubles (Eqs. 7-11 with model::avx512_core()): 24x8, whose 24
// accumulator registers (3 zmm per column x 8 columns) plus 3 A vectors
// and a B broadcast use 28 of the 32 registers, the same 24-accumulator
// budget as the paper's 8x6 on ARMv8. The f32 kernel, 32x12, keeps 24
// accumulators too (2 zmm of 16 floats x 12 columns) and fits the
// kMaxMr x kMaxNr edge tile.
//
// Declared only when the build compiled them (ARMGEMM_AVX512_KERNELS);
// the registries add them only when isa_available(KernelIsa::Avx512).
#pragma once

#include "kernels/microkernel.hpp"

namespace ag {

#if defined(ARMGEMM_AVX512_KERNELS)
void avx512_microkernel_24x8(index_t kc, double alpha, const double* a, const double* b,
                             double beta, double* c, index_t ldc);
void avx512_smicrokernel_32x12(index_t kc, float alpha, const float* a, const float* b,
                               float beta, float* c, index_t ldc);
#endif

}  // namespace ag
