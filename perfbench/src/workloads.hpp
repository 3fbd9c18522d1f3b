// The four seeded GEMM workloads: input generation, one closed-loop
// operation, and sampled verification against the reference GEMM.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "blas/gemm_types.hpp"
#include "capi/armgemm_cblas.h"
#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"

namespace perfbench {

/// One GEMM call (or batch entry) on operands the workload owns.
template <class T>
struct GemmCall {
  const char* cls = "";  // shape class, for reporting
  ag::Layout layout = ag::Layout::ColMajor;
  ag::Trans trans_a = ag::Trans::NoTrans, trans_b = ag::Trans::NoTrans;
  std::int64_t m = 0, n = 0, k = 0;
  T alpha = 1, beta = 1;
  const T* a = nullptr;
  std::int64_t lda = 0;
  const T* b = nullptr;
  std::int64_t ldb = 0;
  T* c = nullptr;
  std::int64_t ldc = 0;

  double flops() const { return 2.0 * static_cast<double>(m) * n * k; }
};

/// The output entries of one call a verification checks: seeded rows and
/// columns of C (the last row and column always included, for edge
/// tiles) and their values before the call.
template <class T>
struct CallSample {
  std::vector<std::int64_t> rows, cols;
  std::vector<T> c0;  // rows.size() x cols.size(), column-major
};

/// A workload's operands and calls. One operation is every call in
/// order (cblas_dgemm / cblas_sgemm), or one armgemm_dgemm_batch over all
/// entries.
class Workload {
 public:
  /// Generates the workload's shapes and inputs from `seed`. Throws
  /// std::invalid_argument for an unknown name.
  Workload(const std::string& name, std::uint64_t seed);

  const std::string& name() const { return name_; }
  bool single_precision() const { return !fcalls_.empty(); }
  double flops_per_op() const { return flops_; }
  int verify_every() const { return verify_every_; }

  /// Edge of the cube whose resolved blocking the per-layer probes use.
  std::int64_t probe_size() const { return probe_size_; }

  /// Runs one operation. `op` tags its call spans in the traced run.
  /// With `call_s`, each call's seconds go to call_s[i], timed_calls()
  /// entries.
  void run_op(std::int64_t op, double* call_s = nullptr);

  /// Snapshots a seeded sample of every call's output before an
  /// operation; check() then verifies the operation's results against the
  /// reference GEMM. Returns the number of calls whose sampled output
  /// exceeds the reference bound or holds a NaN/Inf; `why` gets the first.
  void snapshot(ag::Xoshiro256& rng);
  int check(std::string* why) const;

  /// One line per (shape class, resolved configuration), for the log.
  std::vector<std::string> resolved_configs() const;

  /// Shapes and a hash of every input byte, for reproducibility checks.
  std::string describe() const;

  /// Adds 1e3 to (or writes NaN into) one sampled output element of call
  /// `call`, after check()'s snapshot (test hook).
  void corrupt_sampled(std::size_t call, bool nan);
  std::size_t calls() const { return dcalls_.empty() ? fcalls_.size() : dcalls_.size(); }
  /// Calls one operation makes: calls(), or 1 for the batch.
  std::size_t timed_calls() const { return batch_ ? 1 : calls(); }

 private:
  template <class T>
  T* alloc(std::vector<ag::AlignedBuffer<T>>& pool, std::size_t n, ag::Xoshiro256& rng);
  void make_large(ag::Xoshiro256& rng, bool f32);
  void make_mixed(ag::Xoshiro256& rng);
  void make_batch(ag::Xoshiro256& rng);

  std::string name_;
  double flops_ = 0;
  int verify_every_ = 8;
  bool batch_ = false;
  std::int64_t probe_size_ = 0;

  std::vector<ag::AlignedBuffer<double>> dbufs_;
  std::vector<ag::AlignedBuffer<float>> fbufs_;
  std::vector<GemmCall<double>> dcalls_;
  std::vector<GemmCall<float>> fcalls_;
  std::vector<CallSample<double>> dsamples_;
  std::vector<CallSample<float>> fsamples_;

  // armgemm_dgemm_batch argument arrays, built once from dcalls_.
  struct BatchArgs {
    std::vector<CBLAS_TRANSPOSE> ta, tb;
    std::vector<std::int64_t> m, n, k, lda, ldb, ldc;
    std::vector<double> alpha, beta;
    std::vector<const double*> a, b;
    std::vector<double*> c;
  } batch_args_;
};

}  // namespace perfbench
