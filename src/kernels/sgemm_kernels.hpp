// Single-precision register kernels. SGEMM doubles every SIMD width, so
// the paper's 8x6 double-precision register blocking maps to 16x6 in
// float (two 256-bit rows per column on AVX2) with the same
// 12-accumulator structure and gamma reasoning; on AVX-512 the 32x12
// kernel keeps 24 zmm accumulators (see kernels/avx512_kernels.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/microkernel.hpp"

namespace ag {

using SMicrokernelFn = KernelFn<float>;

struct SMicrokernel {
  std::string name;
  int mr = 0;
  int nr = 0;
  SMicrokernelFn fn = nullptr;
  KernelIsa isa = KernelIsa::Scalar;
};

/// Generic scalar float kernel, any shape. Same fused-beta contract as the
/// double-precision microkernels: beta == 0 overwrites without reading C.
template <int MR, int NR>
void generic_smicrokernel(index_t kc, float alpha, const float* a, const float* b, float beta,
                          float* c, index_t ldc) {
  float acc[MR][NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    for (int j = 0; j < NR; ++j) {
      const float bj = b[j];
      for (int i = 0; i < MR; ++i) acc[i][j] += a[i] * bj;
    }
    a += MR;
    b += NR;
  }
  if (beta == 0.0f) {
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i) c[i + j * ldc] = alpha * acc[i][j];
  } else if (beta == 1.0f) {
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i) c[i + j * ldc] += alpha * acc[i][j];
  } else {
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i)
        c[i + j * ldc] = beta * c[i + j * ldc] + alpha * acc[i][j];
  }
}

/// Best available float kernel: the widest ISA the host runs, first
/// registered among equals (AVX-512 32x12, else AVX2 16x6, else the
/// generic 16x6).
const SMicrokernel& best_smicrokernel();

/// All registered float kernels (for tests).
const std::vector<SMicrokernel>& all_smicrokernels();

}  // namespace ag
