#include "kernels/microkernel.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "kernels/avx2_kernels.hpp"
#include "kernels/avx512_kernels.hpp"
#include "kernels/generic_kernels.hpp"
#include "kernels/neon_kernels.hpp"

#if defined(ARMGEMM_AVX512_KERNELS)
#include <cpuid.h>
#endif

namespace ag {

namespace {

#if defined(ARMGEMM_AVX512_KERNELS)
// CPUID.(EAX=7,ECX=0):EBX bit 16 reports AVX-512F; the OS must also have
// enabled XSAVE (CPUID.1:ECX bit 27) and save the SSE, AVX, opmask and
// both zmm state components (XCR0 bits 1, 2, 5, 6, 7). This file is built
// with the baseline flags, so the check itself runs on any x86-64 CPU.
bool cpu_has_avx512f() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || !(ecx & (1u << 27))) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) || !(ebx & (1u << 16))) return false;
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  constexpr unsigned kZmmState = (1u << 1) | (1u << 2) | (1u << 5) | (1u << 6) | (1u << 7);
  return (xcr0_lo & kZmmState) == kZmmState;
}
#endif

void add(std::vector<Microkernel>& ks, Microkernel k) {
  check_kernel_shape(k.name, k.shape);
  ks.push_back(std::move(k));
}

std::vector<Microkernel> build_registry() {
  std::vector<Microkernel> ks;
  add(ks, {"generic_8x6", {8, 6}, KernelIsa::Scalar, &generic_microkernel<8, 6>});
  add(ks, {"generic_8x4", {8, 4}, KernelIsa::Scalar, &generic_microkernel<8, 4>});
  add(ks, {"generic_4x4", {4, 4}, KernelIsa::Scalar, &generic_microkernel<4, 4>});
  add(ks, {"generic_5x5", {5, 5}, KernelIsa::Scalar, &generic_microkernel<5, 5>});
  add(ks, {"generic_6x8", {6, 8}, KernelIsa::Scalar, &generic_microkernel<6, 8>});
  add(ks, {"generic_12x4", {12, 4}, KernelIsa::Scalar, &generic_microkernel<12, 4>});
  add(ks, {"generic_2x2", {2, 2}, KernelIsa::Scalar, &generic_microkernel<2, 2>});
  add(ks, {"generic_1x1", {1, 1}, KernelIsa::Scalar, &generic_microkernel<1, 1>});
  add(ks, {"generic_24x8", {24, 8}, KernelIsa::Scalar, &generic_microkernel<24, 8>});
#if defined(__AVX2__) && defined(__FMA__)
  add(ks, {"avx2_8x6", {8, 6}, KernelIsa::Avx2, &avx2_microkernel_8x6});
  add(ks, {"avx2_8x4", {8, 4}, KernelIsa::Avx2, &avx2_microkernel_8x4});
  add(ks, {"avx2_4x4", {4, 4}, KernelIsa::Avx2, &avx2_microkernel_4x4});
  add(ks, {"avx2_12x4", {12, 4}, KernelIsa::Avx2, &avx2_microkernel_12x4});
#endif
#if defined(ARMGEMM_AVX512_KERNELS)
  if (isa_available(KernelIsa::Avx512))
    add(ks, {"avx512_24x8", {24, 8}, KernelIsa::Avx512, &avx512_microkernel_24x8});
#endif
#if defined(__aarch64__)
  add(ks, {"neon_8x6", {8, 6}, KernelIsa::Neon, &neon_microkernel_8x6});
  add(ks, {"neon_8x4", {8, 4}, KernelIsa::Neon, &neon_microkernel_8x4});
  add(ks, {"neon_4x4", {4, 4}, KernelIsa::Neon, &neon_microkernel_4x4});
#endif
  return ks;
}

}  // namespace

bool isa_available(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::Scalar: return true;
    case KernelIsa::Avx2: return avx2_kernels_available();
    case KernelIsa::Neon: return neon_kernels_available();
    case KernelIsa::Avx512: {
#if defined(ARMGEMM_AVX512_KERNELS)
      static const bool usable = cpu_has_avx512f();
      return usable;
#else
      return false;
#endif
    }
  }
  return false;
}

void check_kernel_shape(const std::string& name, KernelShape shape) {
  AG_CHECK_MSG(shape.mr > 0 && shape.mr <= kMaxMr && shape.nr > 0 && shape.nr <= kMaxNr,
               "kernel " << name << " has shape " << shape.to_string()
                         << "; registered kernels must fit the " << kMaxMr << "x" << kMaxNr
                         << " edge tile");
}

const std::vector<Microkernel>& all_microkernels() {
  static const std::vector<Microkernel> registry = build_registry();
  return registry;
}

std::vector<const Microkernel*> preferred_microkernels() {
  const auto& all = all_microkernels();
  const bool has_simd = std::any_of(all.begin(), all.end(), [](const Microkernel& k) {
    return k.isa != KernelIsa::Scalar;
  });
  const double min_gamma = KernelShape{8, 4}.gamma();
  std::vector<const Microkernel*> out;
  for (const auto& k : all) {
    if (has_simd && k.isa == KernelIsa::Scalar) continue;
    if (k.shape.gamma() < min_gamma) continue;
    if (find_best_microkernel(k.shape) != &k) continue;
    out.push_back(&k);
  }
  std::stable_sort(out.begin(), out.end(), [](const Microkernel* a, const Microkernel* b) {
    return vector_bits(a->isa) > vector_bits(b->isa);
  });
  return out;
}

const Microkernel& default_microkernel() { return *preferred_microkernels().front(); }

const Microkernel* find_best_microkernel(KernelShape shape) {
  const Microkernel* best = nullptr;
  for (const auto& k : all_microkernels()) {
    if (k.shape != shape) continue;
    if (best == nullptr || vector_bits(k.isa) > vector_bits(best->isa)) best = &k;
  }
  return best;
}

const Microkernel& best_microkernel(KernelShape shape) {
  const Microkernel* best = find_best_microkernel(shape);
  AG_CHECK_MSG(best != nullptr, "no microkernel registered for shape " << shape.to_string());
  return *best;
}

const Microkernel& microkernel_by_name(const std::string& name) {
  for (const auto& k : all_microkernels())
    if (k.name == name) return k;
  AG_CHECK_MSG(false, "unknown microkernel '" << name << "'");
  // Unreachable; AG_CHECK_MSG throws.
  throw InternalError("unreachable");
}

std::vector<KernelShape> paper_kernel_shapes() {
  return {{8, 6}, {8, 4}, {4, 4}, {5, 5}};
}

}  // namespace ag
