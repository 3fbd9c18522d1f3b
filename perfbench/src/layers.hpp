// Per-layer probes of the traced run: each layer timed from outside
// through its public entry point, at the blocking the workload's probe
// shape resolves to, and every rate point checked against the in-run
// FMA roof.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "roof.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Measures the kernels, packing, GEBP, driver, C API and sgemm layers
/// into `out`. Appends a line to `violations` for every rate point that
/// is not in (0, roof], the roof scaled by cores where the point ran
/// parallel.
void measure_layers(const Workload& w, const Roof& roof, Metrics* out,
                    std::vector<std::string>* violations);

}  // namespace perfbench
