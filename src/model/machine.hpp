// Machine description: the parameters the analytic model and the simulator
// share. The default instance is the paper's 64-bit ARMv8 eight-core
// X-Gene (Figure 1 / Table II).
#pragma once

#include <cstdint>
#include <string>

namespace ag::model {

/// Replacement policy of one cache level. The paper's Eqs. (15)-(20)
/// assume true LRU; real L1s often implement tree-PLRU or random, which
/// is one candidate explanation for measured-vs-modelled miss-rate gaps.
enum class Replacement { Lru, TreePlru, Random };

inline const char* to_string(Replacement r) {
  switch (r) {
    case Replacement::Lru: return "LRU";
    case Replacement::TreePlru: return "tree-PLRU";
    case Replacement::Random: return "random";
  }
  return "?";
}

/// One cache level's geometry.
struct CacheGeometry {
  std::int64_t size_bytes = 0;
  int associativity = 1;
  int line_bytes = 64;
  Replacement policy = Replacement::Lru;

  std::int64_t num_sets() const { return size_bytes / (associativity * line_bytes); }
  /// Bytes per way (the unit of the paper's k/assoc occupancy arguments).
  std::int64_t way_bytes() const { return size_bytes / associativity; }
};

/// Register file of one core, as constraint (9) sees it.
struct RegisterFile {
  int num_fp_registers = 32;  // nf : v0..v31
  int register_bytes = 16;    // pf : 128-bit NEON registers
};

/// Per-core data TLB (the paper's future work, Section VI: "we will
/// analyze the TLB misses and improve our selection of block sizes").
/// Modelled fully associative with LRU replacement.
struct TlbGeometry {
  int entries = 48;
  int page_bytes = 4096;
};

/// The whole chip (Figure 1): cores grouped into dual-core modules sharing
/// an L2; all modules share the L3.
struct MachineConfig {
  std::string name;
  int cores = 8;
  int cores_per_module = 2;
  double freq_ghz = 2.4;
  /// Double-precision FMA *lanes* retired per cycle. The X-Gene's single
  /// FP pipeline retires one 64-bit FMA per cycle (2 flops/cycle => the
  /// paper's 4.8 Gflops peak at 2.4 GHz), i.e. a 128-bit fmla every
  /// simd_doubles / fma_lanes_per_cycle = 2 cycles.
  int fma_lanes_per_cycle = 1;
  int simd_doubles = 2;  // 128-bit NEON: 2 doubles per vector
  int element_bytes = 8;

  RegisterFile regs;
  TlbGeometry dtlb;   // per core
  CacheGeometry l1d;  // per core
  CacheGeometry l2;   // per module
  CacheGeometry l3;   // per chip

  int num_modules() const { return cores / cores_per_module; }

  /// Peak double-precision Gflops of one core: 2 flops per FMA lane.
  double peak_gflops_per_core() const { return freq_ghz * fma_lanes_per_cycle * 2.0; }
  double peak_gflops(int threads) const { return peak_gflops_per_core() * threads; }
  /// Initiation interval of a full-width vector fmla, in cycles.
  int fma_cycles() const { return simd_doubles / fma_lanes_per_cycle; }
};

/// The paper's evaluation platform: 32K/4-way L1d per core, 256K/16-way L2
/// per dual-core module, 8M/16-way shared L3, 2.4 GHz, 4.8 Gflops/core.
const MachineConfig& xgene();

/// An x86-64 core with AVX-512: 32 zmm registers of 512 bits (8 doubles),
/// two 512-bit FMA pipes. The register solve (Eqs. 7-11) only reads regs,
/// simd_doubles and element_bytes; the caches and clock are those of the
/// 4-vCPU Sapphire Rapids host the AVX-512 kernels were measured on (the
/// DTLB keeps the struct default).
const MachineConfig& avx512_core();

}  // namespace ag::model
