// Portable C++ register kernels, templated on the register block shape.
//
// The accumulator tile lives in local variables that the compiler keeps in
// (vector) registers for the shapes used here; the loop structure matches
// the rank-1-update formulation of the paper's layer 7. The epilogue
// applies the fused beta per the microkernel contract: beta == 0 stores
// without reading C, beta == 1 accumulates, otherwise scale-and-add.
#pragma once

#include "kernels/microkernel.hpp"

namespace ag {

template <int MR, int NR>
void generic_microkernel(index_t kc, double alpha, const double* a, const double* b,
                         double beta, double* c, index_t ldc) {
  double acc[MR][NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    for (int j = 0; j < NR; ++j) {
      const double bj = b[j];
      for (int i = 0; i < MR; ++i) acc[i][j] += a[i] * bj;
    }
    a += MR;
    b += NR;
  }
  if (beta == 0.0) {
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i) c[i + j * ldc] = alpha * acc[i][j];
  } else if (beta == 1.0) {
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i) c[i + j * ldc] += alpha * acc[i][j];
  } else {
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i)
        c[i + j * ldc] = beta * c[i + j * ldc] + alpha * acc[i][j];
  }
}

// Explicitly instantiated in generic_kernels.cpp for the paper's shapes
// and the scalar references of the SIMD-only shapes.
extern template void generic_microkernel<8, 6>(index_t, double, const double*, const double*,
                                               double, double*, index_t);
extern template void generic_microkernel<8, 4>(index_t, double, const double*, const double*,
                                               double, double*, index_t);
extern template void generic_microkernel<4, 4>(index_t, double, const double*, const double*,
                                               double, double*, index_t);
extern template void generic_microkernel<5, 5>(index_t, double, const double*, const double*,
                                               double, double*, index_t);
extern template void generic_microkernel<6, 8>(index_t, double, const double*, const double*,
                                               double, double*, index_t);
extern template void generic_microkernel<12, 4>(index_t, double, const double*, const double*,
                                                double, double*, index_t);
extern template void generic_microkernel<2, 2>(index_t, double, const double*, const double*,
                                               double, double*, index_t);
extern template void generic_microkernel<1, 1>(index_t, double, const double*, const double*,
                                               double, double*, index_t);
extern template void generic_microkernel<24, 8>(index_t, double, const double*, const double*,
                                                double, double*, index_t);

}  // namespace ag
