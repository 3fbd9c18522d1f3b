// Register-block selection (Section IV-A of the paper).
//
// The register kernel performs 2*mr*nr flops per rank-1 update while
// loading mr + nr elements from the L1 cache, so its compute-to-memory
// ratio is gamma = 2*mr*nr / (mr + nr) (Eqs. 7-8). The choice of mr x nr
// is bounded by the register file (Eq. 9), the preload reuse budget
// (Eq. 10) and the SIMD width (Eq. 11). This module solves that
// optimization exactly by enumeration and reproduces Figure 5's surface,
// whose maximum 6.857 is attained at 8x6 (or 6x8) with nrf = 6. On a
// 32 x 512-bit register file (model::avx512_core()) the same equations
// give 24x8 with gamma = 12.
#pragma once

#include <vector>

#include "kernels/microkernel.hpp"
#include "model/machine.hpp"

namespace ag::model {

/// Eq. (8): gamma = 2 / (1/mr + 1/nr).
double register_gamma(int mr, int nr);

/// Eq. (9): (mr*nr + 2*mr + 2*nr) * element_size <= (nf + nrf) * pf.
bool register_capacity_ok(int mr, int nr, int nrf, const RegisterFile& rf, int element_bytes);

/// Eq. (10): 0 <= nrf * pf <= (mr + nr) * element_size.
bool preload_reuse_ok(int mr, int nr, int nrf, const RegisterFile& rf, int element_bytes);

struct RegisterChoice {
  int mr = 0;
  int nr = 0;
  int nrf = 0;      // reused preload registers
  double gamma = 0; // Eq. (8)
};

struct RegisterBlockingOptions {
  /// Search bounds: the largest tile a kernel may register (the GEBP edge
  /// tile). The X-Gene optimum sits far inside them; the AVX-512 one
  /// (24x8) needs mr > 16.
  int max_mr = kMaxMr;
  int max_nr = kMaxNr;
  /// Eq. (11): mr, nr restricted to multiples of the SIMD width.
  bool require_simd_multiple = true;
  /// Prefer mr >= nr among gamma ties so an A sub-sliver fills whole cache
  /// lines (the paper's reason for picking 8x6 over 6x8).
  bool prefer_tall = true;
};

/// Enumerates all feasible (mr, nr, nrf) and returns the gamma-maximising
/// choice; reproduces the paper's 8x6 with nrf=6 and gamma=6.857 on the
/// X-Gene register file.
RegisterChoice solve_register_blocking(const MachineConfig& machine,
                                       const RegisterBlockingOptions& opts = {});

/// All feasible choices sorted by descending gamma (for reporting).
std::vector<RegisterChoice> enumerate_register_choices(const MachineConfig& machine,
                                                       const RegisterBlockingOptions& opts = {});

/// One point of Figure 5's surface: for given mr and nrf, the largest
/// feasible nr and the resulting gamma (0 if infeasible).
struct SurfacePoint {
  int mr = 0;
  int nrf = 0;
  int best_nr = 0;
  double gamma = 0.0;
};

/// The full Figure 5 grid for mr in [2, max_mr], nrf in [0, max_nrf].
std::vector<SurfacePoint> register_gamma_surface(const MachineConfig& machine, int max_mr = 16,
                                                 int max_nrf = 8);

/// Register budget audit for a choice: how many registers hold C, A, B and
/// preloads (the paper's 24 C registers + 8 rotated A/B registers at 8x6).
struct RegisterBudget {
  int c_registers = 0;
  int ab_registers = 0;
  int total = 0;
};
RegisterBudget register_budget(int mr, int nr, const MachineConfig& machine);

}  // namespace ag::model
