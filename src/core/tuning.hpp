// Core's side of the closed-loop autotuner (src/tune): per-call
// configuration resolution and the real measured-probe runner.
//
// The tune library cannot run GEMMs itself (core links tune, not the
// reverse), so core injects run_probe via install_default_probe_runner
// the first time a tunable call resolves. Tests that injected a fake
// runner first keep theirs — the install is a one-shot CAS.
#pragma once

#include "blas/gemm_types.hpp"
#include "core/block_sizes.hpp"
#include "core/context.hpp"
#include "kernels/microkernel.hpp"
#include "tune/tune.hpp"

namespace ag {

/// The kernel + blocking one dgemm/batch-entry call actually runs with,
/// and where that configuration came from.
struct ExecConfig {
  const Microkernel* kernel = nullptr;
  BlockSizes bs;
  /// Per-core-class mc (tune::per_class_mc) on asymmetric hosts; empty
  /// when every class runs bs.mc. A rank on class c sub-blocks its
  /// claimed mc blocks to mc_class[c] rows — a within-block split along
  /// m, so the block grid (and results, bitwise) are unchanged.
  std::vector<index_t> mc_class;
  tune::TuneSource source = tune::TuneSource::kNone;
};

/// Resolves the execution configuration for one blocked f64 call.
///
///   - tuner off (ARMGEMM_TUNE=off): the context's configuration,
///     untouched and unrecorded — bit-for-bit the pre-tuner behavior;
///   - context not tunable (explicitly configured): the context's
///     configuration, counted under the "pinned" source;
///   - tunable: tune::resolve picks kernel + blocking per
///     (precision, shape-class) key, falling back to the context's
///     configuration if resolution yields nothing usable.
ExecConfig resolve_exec_config(const Context& ctx, index_t m, index_t n, index_t k);

/// Cache blocks one sgemm call pins (SgemmOptions::kc/mc/nc). Any
/// nonzero field makes the call a pin; a non-positive field takes the
/// host default.
struct BlockPins {
  index_t kc = 0, mc = 0, nc = 0;

  bool any() const { return kc != 0 || mc != 0 || nc != 0; }
};

/// Resolves the blocking for one blocked f32 call, which always runs
/// best_smicrokernel():
///
///   - a tunable context, no pins and the tuner on: tune::resolve's pick
///     for the f32 (shape-class, ctx.threads()) key, recorded under its
///     source (or "none" when resolution yields nothing usable);
///   - otherwise: the pins, with float-scaled host defaults for the rest,
///     unrecorded.
BlockSizes resolve_sgemm_blocks(const Context& ctx, const BlockPins& pins, index_t m,
                                index_t n, index_t k);

/// Installs the real probe runner into the tune library (one-shot CAS;
/// a test-injected fake wins). Called on the first tunable resolution.
void ensure_tune_probe_runner();

}  // namespace ag
