// The register-kernel (GESS / layer-7) contract.
//
// A microkernel performs the innermost computation of the Goto algorithm:
// a sequence of kc rank-1 updates of an mr x nr tile of C using packed
// slivers of A and B (Figure 2, layer 7 of the paper), with the BLAS beta
// fused into the epilogue:
//
//   C[0:mr, 0:nr] = beta * C + alpha * sum_{p=0}^{kc-1} a[p*mr + i] * b[p*nr + j]
//
// beta == 1 is the classic accumulate; beta == 0 OVERWRITES the tile
// without ever reading it (so NaN/Inf garbage in C is replaced, per BLAS
// semantics, and the C read traffic disappears); any other beta scales
// the tile in the same load-modify-store the accumulate already pays.
// Fusing beta here is what lets the GEMM drivers drop their standalone
// serial sweep over C before the blocked loops.
//
// `a` points at an mr x kc sliver packed column-by-column (mr contiguous
// elements per k-step); `b` points at a kc x nr sliver packed row-by-row
// (nr contiguous elements per k-step); `c` is an mr x nr column-major tile
// with leading dimension ldc. All pointers are valid for full tiles; the
// GEBP driver routes partial edge tiles through a padded buffer.
//
// The SIMD kernels additionally issue software prefetches: the packed A
// and B streams are prefetched ARMGEMM_PREA / ARMGEMM_PREB bytes ahead
// inside the k-loop (paper Section IV-B distances by default), and the C
// tile is prefetched before the k-loop so its lines arrive by epilogue
// time.
//
// Alignment contract: none beyond the element type's. The SIMD kernels
// use unaligned vector loads and stores for A, B and C; packed slivers
// start at mr*kc or nr*kc element offsets inside the packing buffers, so
// no vector alignment is guaranteed there for every shape and kc.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ag {

using index_t = std::int64_t;

/// Largest register tile any kernel may have: the GEBP driver computes
/// partial edge tiles into a kMaxMr x kMaxNr stack buffer.
inline constexpr int kMaxMr = 32;
inline constexpr int kMaxNr = 32;

/// The register-kernel signature for element type T (double or float).
template <typename T>
using KernelFn = void (*)(index_t kc, T alpha, const T* a, const T* b, T beta, T* c,
                          index_t ldc);

using MicrokernelFn = KernelFn<double>;

/// Register block shape (the paper's mr x nr).
struct KernelShape {
  int mr = 0;
  int nr = 0;

  friend bool operator==(const KernelShape&, const KernelShape&) = default;

  /// Compute-to-memory-access ratio of the register kernel, Eq. (8):
  /// gamma = 2*mr*nr / (mr + nr) = 2 / (1/mr + 1/nr).
  double gamma() const { return 2.0 * mr * nr / static_cast<double>(mr + nr); }

  std::string to_string() const { return std::to_string(mr) + "x" + std::to_string(nr); }
};

enum class KernelIsa { Scalar, Avx2, Neon, Avx512 };

inline const char* to_string(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::Scalar: return "scalar";
    case KernelIsa::Avx2: return "avx2";
    case KernelIsa::Neon: return "neon";
    case KernelIsa::Avx512: return "avx512";
  }
  return "?";
}

/// Vector register width of an ISA in bits (a scalar kernel counts as one
/// double). Kernel selection ranks ISAs by it: wider wins.
inline int vector_bits(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::Scalar: return 64;
    case KernelIsa::Neon: return 128;
    case KernelIsa::Avx2: return 256;
    case KernelIsa::Avx512: return 512;
  }
  return 0;
}

/// Whether this build contains kernels for `isa` and the running CPU can
/// execute them. AVX-512 kernels are compiled into every x86-64 build and
/// registered only when CPUID reports AVX-512F and XCR0 shows the OS saves
/// the opmask and zmm state; AVX2 and NEON follow the build's flags.
bool isa_available(KernelIsa isa);

/// Registration invariant: throws InvalidArgument unless 0 < mr <= kMaxMr
/// and 0 < nr <= kMaxNr (a larger kernel would fail only when GEBP first
/// hits an edge tile).
void check_kernel_shape(const std::string& name, KernelShape shape);

/// A registered microkernel implementation.
struct Microkernel {
  std::string name;
  KernelShape shape;
  KernelIsa isa = KernelIsa::Scalar;
  MicrokernelFn fn = nullptr;
};

/// All kernels compiled into this build (SIMD variants only on matching
/// hosts). Scalar generic kernels for every paper shape are always present.
const std::vector<Microkernel>& all_microkernels();

/// The kernels the library picks from, in preference order: widest ISA
/// first, registration order within an ISA, scalar kernels only when no
/// SIMD kernel is registered. Shapes with gamma (Eq. 8) below the paper's
/// 8x4 are left out; 4x4, 5x5 and smaller exist for the paper's
/// comparisons. The front is the library's default kernel; the tuner
/// proposes the list in this order.
std::vector<const Microkernel*> preferred_microkernels();

/// preferred_microkernels().front(): the kernel Context() and the CBLAS
/// context start from (avx512_24x8 on AVX-512 hosts, avx2_8x6 on AVX2).
const Microkernel& default_microkernel();

/// Best available kernel for a shape: the widest ISA the host runs,
/// otherwise the generic scalar kernel. Throws if the shape is unknown.
const Microkernel& best_microkernel(KernelShape shape);

/// Non-throwing variant: nullptr when no kernel covers the shape (the
/// autotuner uses this to trim its candidate list to what's registered).
const Microkernel* find_best_microkernel(KernelShape shape);

/// Look up by exact name (e.g. "avx2_8x6", "generic_5x5"); throws if absent.
const Microkernel& microkernel_by_name(const std::string& name);

/// The paper's four evaluated shapes: 8x6 (ours), 8x4, 4x4, 5x5 (ATLAS).
std::vector<KernelShape> paper_kernel_shapes();

}  // namespace ag
