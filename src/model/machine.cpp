#include "model/machine.hpp"

namespace ag::model {

const MachineConfig& xgene() {
  static const MachineConfig cfg = [] {
    MachineConfig m;
    m.name = "ARMv8 X-Gene (8-core)";
    m.cores = 8;
    m.cores_per_module = 2;
    m.freq_ghz = 2.4;
    m.fma_lanes_per_cycle = 1;
    m.simd_doubles = 2;
    m.element_bytes = 8;
    m.regs = {32, 16};
    m.dtlb = {48, 4096};  // micro-architectural assumption; see DESIGN.md
    m.l1d = {32 * 1024, 4, 64};
    m.l2 = {256 * 1024, 16, 64};
    m.l3 = {8 * 1024 * 1024, 16, 64};
    return m;
  }();
  return cfg;
}

const MachineConfig& avx512_core() {
  static const MachineConfig cfg = [] {
    MachineConfig m;
    m.name = "x86-64 AVX-512 (4-vCPU Sapphire Rapids)";
    m.cores = 4;
    m.cores_per_module = 1;
    m.freq_ghz = 2.1;
    m.fma_lanes_per_cycle = 16;  // two 512-bit FMA pipes x 8 doubles
    m.simd_doubles = 8;
    m.element_bytes = 8;
    m.regs = {32, 64};
    m.l1d = {48 * 1024, 12, 64};
    m.l2 = {2 * 1024 * 1024, 16, 64};
    m.l3 = {300 * 1024 * 1024, 20, 64};
    return m;
  }();
  return cfg;
}

}  // namespace ag::model
