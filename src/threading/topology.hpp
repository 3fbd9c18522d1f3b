// Host topology: the core-class (big.LITTLE cluster) and NUMA-node map
// the heterogeneity-aware runtime schedules against.
//
// The paper's Eqs. 19-20 size blocks for the symmetric X-Gene; production
// ARM parts are frequently asymmetric (big.LITTLE) and multi-node
// (multi-socket Graviton). This module answers, for every worker rank:
// which core class is it on (and how fast is that class relative to the
// others), and which NUMA node does its memory live on. Consumers:
//
//   * core/schedule sizes per-rank ticket spans proportionally to class
//     weight (big cores claim more mc blocks up front, stealing evens the
//     tail), keeping the block grid itself thread-invariant so results
//     stay bitwise identical;
//   * threading/persistent_pool orders its steal scan same-node-first and
//     optionally pins workers (ARMGEMM_AFFINITY);
//   * core/panel_cache keys per-node packed-B replicas;
//   * src/tune derives per-class mc so a LITTLE cluster's blocking fits
//     its smaller L2 (the Catalán et al. asymmetric-blocking result).
//
// Discovery, in precedence order:
//
//   1. ARMGEMM_CPU_CLASSES ("<count>x<weight>,..." e.g. "4x2.0,4x1.0")
//      overrides the class map outright — the sim/CI knob that emulates
//      an asymmetric machine on a symmetric runner. ARMGEMM_NUMA_NODES
//      likewise overrides the node count (cores split contiguously).
//   2. sysfs: per-cpu cpu_capacity (arm64) or cpuinfo_max_freq groups
//      cores into classes with capacity-ratio seed weights; node
//      membership comes from /sys/devices/system/node/node*/cpulist.
//      On asymmetric discoveries the seeds are refined by a short
//      obs/calibrate FMA probe pinned to one core per class.
//   3. Flat fallback: every core one class of weight 1, one node.
//
// Class weights start from the discovery seed and are refined online:
// the persistent pool reports per-class (tickets run, busy ns), and once
// every class has a stable sample the measured throughput ratio replaces
// the seed. The snapshot itself is immutable (lock-free reads from the
// schedule hot path); refinement counters are relaxed atomics beside it.
//
// Layering: threading links obs (for the stats-source registration and
// the calibration probes); obs never links back.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/runtime_introspect.hpp"

namespace ag {

/// One parsed "<count>x<weight>" group of an ARMGEMM_CPU_CLASSES spec.
struct TopoClassSpec {
  int cpus = 0;
  double weight = 1.0;
};

/// Parses an ARMGEMM_CPU_CLASSES spec ("4x2.0,4x1.0"; the "x<weight>"
/// part is optional and defaults to 1.0). Returns the groups in spec
/// order, or an empty vector with *error set when the spec is malformed
/// (zero/negative counts, non-positive weights, trailing garbage).
std::vector<TopoClassSpec> parse_cpu_classes(const std::string& spec,
                                             std::string* error = nullptr);

class Topology {
 public:
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// The current process-wide snapshot (built from the knobs/sysfs on
  /// first use; immortal). Hot-path reads are one atomic pointer load.
  static const Topology& get();

  /// Rebuilds the snapshot from the current knob values (tests change
  /// ARMGEMM_CPU_CLASSES / ARMGEMM_NUMA_NODES via the setters, then
  /// refresh). The old snapshot stays alive, owned by a process-lifetime
  /// list — in-flight readers may still hold it. Online refinement
  /// counters restart from the new seeds.
  static void refresh();

  int num_cpus() const { return num_cpus_; }
  int num_nodes() const { return num_nodes_; }
  int num_classes() const { return static_cast<int>(classes_.size()); }
  /// obs::kTopologySource* code: 0 flat, 1 sysfs, 2 env override.
  int source() const { return source_; }
  bool asymmetric() const { return num_classes() > 1; }

  int class_of_cpu(int cpu) const;
  int node_of_cpu(int cpu) const;

  /// Worker ranks wrap around the cpu list (rank r lives on cpu r mod
  /// num_cpus, the cpu ARMGEMM_AFFINITY would pin it to).
  int cpu_of_rank(int rank) const {
    return rank >= 0 ? rank % num_cpus_ : 0;
  }
  int class_of_rank(int rank) const { return class_of_cpu(cpu_of_rank(rank)); }
  int node_of_rank(int rank) const { return node_of_cpu(cpu_of_rank(rank)); }

  /// Relative throughput of `cls`: the refined online estimate once every
  /// class has a stable ticket sample, else the discovery seed. In
  /// (0, 1] after normalization (the fastest class is 1).
  double class_weight(int cls) const;
  double class_weight_seed(int cls) const;
  int class_cpus(int cls) const;

  /// The per-rank weight vector a gang of `nthreads` ranks schedules
  /// with (index r = class_weight(class_of_rank(r))).
  std::vector<double> rank_weights(int nthreads) const;

  /// Online refinement feed: the persistent pool reports each ticket's
  /// (runner class, busy ns). Relaxed atomics; compiled out with stats.
  void note_ticket(int cls, std::uint64_t busy_ns) const;

  /// NUMA node of the calling thread's current cpu (sched_getcpu; node 0
  /// when the syscall is unavailable or the cpu is out of range).
  int current_node() const;

  /// Pins the calling thread to cpu_of_rank(rank) when the host supports
  /// it. Returns true on success. Only called under ARMGEMM_AFFINITY=1.
  bool pin_current_thread_to_rank(int rank) const;

  /// Snapshot for the obs exposition (registered as the process-wide
  /// topology stats source).
  obs::TopologyStats stats() const;

 private:
  Topology() = default;

  struct ClassInfo {
    int cpus = 0;
    double weight_seed = 1.0;
  };

  /// Online per-class refinement counters (relaxed; written by pool
  /// workers on ticket granularity).
  struct alignas(64) ClassCounters {
    std::atomic<std::uint64_t> tickets{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  static Topology* build();

  /// True once every class accumulated enough tickets that the measured
  /// throughput ratio is a better weight than the seed.
  bool refined() const;

  int num_cpus_ = 1;
  int num_nodes_ = 1;
  int source_ = 0;
  std::vector<ClassInfo> classes_;
  std::vector<int> cpu_class_;  // cpu -> class index
  std::vector<int> cpu_node_;   // cpu -> node index
  std::unique_ptr<ClassCounters[]> counters_;
};

/// Convenience accessor mirroring Topology::get().
inline const Topology& topology() { return Topology::get(); }

}  // namespace ag
