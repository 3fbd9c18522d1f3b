#include "kernels/sgemm_kernels.hpp"

#include <algorithm>
#include <vector>

#include "kernels/avx2_kernels.hpp"
#include "kernels/avx512_kernels.hpp"

namespace ag {
namespace {

void add(std::vector<SMicrokernel>& ks, SMicrokernel k) {
  check_kernel_shape(k.name, {k.mr, k.nr});
  ks.push_back(std::move(k));
}

std::vector<SMicrokernel> build_registry() {
  std::vector<SMicrokernel> ks;
  add(ks, {"sgeneric_16x6", 16, 6, &generic_smicrokernel<16, 6>});
  add(ks, {"sgeneric_8x8", 8, 8, &generic_smicrokernel<8, 8>});
  add(ks, {"sgeneric_8x6", 8, 6, &generic_smicrokernel<8, 6>});
#if defined(__AVX2__) && defined(__FMA__)
  add(ks, {"savx2_16x6", 16, 6, &avx2_smicrokernel_16x6, KernelIsa::Avx2});
#endif
#if defined(ARMGEMM_AVX512_KERNELS)
  if (isa_available(KernelIsa::Avx512))
    add(ks, {"savx512_32x12", 32, 12, &avx512_smicrokernel_32x12, KernelIsa::Avx512});
#endif
  return ks;
}

}  // namespace

const std::vector<SMicrokernel>& all_smicrokernels() {
  static const std::vector<SMicrokernel> registry = build_registry();
  return registry;
}

const SMicrokernel& best_smicrokernel() {
  const auto& all = all_smicrokernels();
  return *std::max_element(all.begin(), all.end(),
                           [](const SMicrokernel& a, const SMicrokernel& b) {
                             return vector_bits(a.isa) < vector_bits(b.isa);
                           });
}

}  // namespace ag
