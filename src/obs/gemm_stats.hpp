// Opt-in per-layer GEMM instrumentation (the measurement side of the
// paper's Section III model).
//
// A GemmStats collector is attached to a Context; the dgemm driver then
// records, per pool thread, how long each blocking layer ran and how many
// bytes it moved: pack-A / pack-B time and bytes (layers 3/2), GEBP time
// and register-kernel invocations (layers 4-7), C traffic, and barrier
// wait. Each pool rank records into its own cache-line-aligned slot,
// whose counters a per-slot mutex guards, so totals aggregate race-free
// and a snapshot never tears.
//
// Cost model: with no collector attached the hot path pays one pointer
// test per *block* (not per kernel tile); compiling with
// ARMGEMM_STATS_DISABLED folds even that away (Context::stats() becomes a
// constant nullptr).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ag::obs {

class Tracer;
class PmuCollector;

/// True when the library was compiled with stats hooks (the default);
/// false under -DARMGEMM_STATS=OFF (ARMGEMM_STATS_DISABLED).
inline constexpr bool stats_compiled_in =
#ifdef ARMGEMM_STATS_DISABLED
    false;
#else
    true;
#endif

/// One snapshot of the per-layer counters. Plain data: safe to copy,
/// compare and serialize. Byte counts are bytes *written to / read from
/// packed buffers and C*, i.e. the words W of Eq. (2) times 8.
struct LayerCounters {
  std::uint64_t gemm_calls = 0;
  std::uint64_t pack_a_calls = 0;    // one per packed mc x kc block of A
  std::uint64_t pack_b_calls = 0;    // one per pack_b / pack_b_slivers call
  std::uint64_t gebp_calls = 0;      // one per GEBP block-panel multiply
  std::uint64_t kernel_calls = 0;    // register-kernel (mr x nr tile) invocations
  std::uint64_t small_calls = 0;     // no-pack small-matrix fast-path multiplies
  std::uint64_t pack_a_bytes = 0;    // bytes written into packed A buffers
  std::uint64_t pack_b_bytes = 0;    // bytes written into packed B panels
  std::uint64_t c_bytes = 0;         // C panel traffic: read + write per GEBP
  double pack_a_seconds = 0;
  double pack_b_seconds = 0;
  double gebp_seconds = 0;
  double small_seconds = 0;          // time inside the small-matrix fast path
  double barrier_seconds = 0;        // time ranks waited at the B-panel barrier
  double total_seconds = 0;          // wall time inside dgemm (driver thread)
  double flops = 0;                  // 2*m*n*k per call

  LayerCounters& operator+=(const LayerCounters& o);

  /// Bytes moved through all counted channels.
  double total_bytes() const {
    return static_cast<double>(pack_a_bytes + pack_b_bytes + c_bytes);
  }
  /// Effective compute-to-memory ratio gamma = F / W (Eq. 2), in
  /// flops per 8-byte word across the counted traffic.
  double gamma() const;
  /// Achieved Gflops over the recorded wall time.
  double gflops() const;
  /// Time recorded outside pack/GEBP/small/barrier (loop overhead,
  /// beta-scale).
  double other_seconds() const;

  /// One JSON object with every field plus the derived metrics.
  std::string to_json() const;
};

/// Cache-line-aligned accumulator for one pool rank. A per-slot mutex
/// guards the counters: every add_*, reset and snapshot holds it, so a
/// snapshot never mixes fields from before and after one recording (e.g.
/// a call's flops without its seconds). That holds also when several host
/// threads share a slot (ranks past max_threads, or concurrent calls that
/// all record into slot 0). Pool ranks record into distinct slots, so on
/// the driver's paths the lock is uncontended.
struct alignas(64) ThreadSlot {
  void add_pack_a(std::uint64_t bytes, double seconds);
  void add_pack_b(std::uint64_t bytes, double seconds);
  void add_gebp(std::uint64_t kernels, std::uint64_t bytes_c, double seconds);
  void add_small(double seconds, std::uint64_t bytes_c);
  void add_call(double fl, double seconds);
  void add_barrier_wait(double seconds);

  /// Consistent copy of every counter.
  LayerCounters snapshot() const;
  void reset();

 private:
  mutable std::mutex mu_;
  LayerCounters counters_;
};
static_assert(sizeof(ThreadSlot) <= 192, "keep one slot within three cache lines");

/// The collector. Attach with Context::set_stats(&stats); detach with
/// set_stats(nullptr) before destroying it. One collector may serve many
/// sequential calls; reset() between phases to segment measurements.
class GemmStats {
 public:
  static constexpr int kDefaultMaxThreads = 64;

  explicit GemmStats(int max_threads = kDefaultMaxThreads);

  /// Accumulator for a pool rank. Ranks beyond max_threads share the last
  /// slot (counts stay exact; per-thread attribution saturates).
  ThreadSlot& slot(int rank);

  int max_threads() const { return static_cast<int>(slots_.size()); }

  /// Zeroes every slot; each slot's reset is atomic against its
  /// recordings and snapshots.
  void reset();

  /// Sum of all per-thread slots.
  LayerCounters totals() const;

  /// Per-rank snapshots for ranks that recorded anything.
  std::vector<LayerCounters> per_thread() const;

  /// {"totals": {...}, "threads": [{...}, ...]}
  std::string to_json() const;

  /// Optional scoped-region tracer fed by the same instrumentation
  /// points; null (default) disables region capture.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Optional hardware-counter collector (obs/pmu) fed by the same
  /// instrumentation points; null (default) disables PMU capture.
  void set_pmu(PmuCollector* pmu) { pmu_ = pmu; }
  PmuCollector* pmu() const { return pmu_; }

 private:
  std::vector<ThreadSlot> slots_;
  Tracer* tracer_ = nullptr;
  PmuCollector* pmu_ = nullptr;
};

}  // namespace ag::obs
