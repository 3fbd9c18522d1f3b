// Per-core FMA roof measured in the same run as the points it bounds.
#pragma once

namespace perfbench {

struct Roof {
  const char* isa = "none";  // widest FMA width the loop ran at
  double f64 = 0;            // Gflop/s of one core, double precision
  double f32 = 0;            // Gflop/s of one core, single precision
};

/// Best of `reps` timed runs of each precision's loop on the calling
/// thread. Zero rates when the host has no FMA width the loop knows.
Roof measure_roof(int reps);

}  // namespace perfbench
