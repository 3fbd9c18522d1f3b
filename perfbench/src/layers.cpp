#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "capi/armgemm_cblas.h"
#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "core/gebp.hpp"
#include "core/gemm.hpp"
#include "core/packing.hpp"
#include "core/sgemm.hpp"
#include "kernels/microkernel.hpp"
#include "kernels/sgemm_kernels.hpp"

namespace perfbench {
namespace {

using ag::index_t;
using ag::Trans;

constexpr int kSamples = 21;
constexpr index_t kLargeN = 1536;  // dgemm_large's problem
constexpr index_t kMidN = 256;     // the square shape parallel_eff_256 names
constexpr index_t kTinyN = 4;      // a small-path call

template <class T>
ag::AlignedBuffer<T> random_buffer(std::size_t n, std::uint64_t seed) {
  ag::AlignedBuffer<T> buf(std::max<std::size_t>(n, 1));
  ag::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<T>(rng.uniform(-1, 1));
  return buf;
}

double gflops(double flops, const std::vector<double>& seconds) {
  return flops / median(seconds) * 1e-9;
}

class Probe {
 public:
  Probe(const Roof& roof, Metrics* out, std::vector<std::string>* violations)
      : roof_(roof), out_(out), violations_(violations) {}

  void put(const std::string& name, double value, const char* unit) {
    (*out_)[name] = {value, unit};
  }

  /// A rate point: printed, and checked against `roof` Gflop/s.
  void rate(const std::string& name, double value, double roof) {
    put(name, value, "Gflop/s");
    if (!(value > 0 && value <= roof)) {
      char buf[200];
      std::snprintf(buf, sizeof buf, "%s = %.3f Gflop/s outside (0, %.3f]", name.c_str(),
                    value, roof);
      violations_->push_back(buf);
    }
  }

  void kernels(index_t kc64, index_t kc32, const std::string& resolved) {
    Scope span("probe.kernels");
    for (const ag::Microkernel& k : ag::all_microkernels()) {
      if (k.isa == ag::KernelIsa::Scalar && k.name != resolved) continue;
      const int mr = k.shape.mr, nr = k.shape.nr;
      auto a = random_buffer<double>(static_cast<std::size_t>(mr * kc64), 11);
      auto b = random_buffer<double>(static_cast<std::size_t>(nr * kc64), 12);
      auto c = random_buffer<double>(static_cast<std::size_t>(mr * nr), 13);
      const double g = gflops(2.0 * mr * nr * kc64, time_samples(kSamples, 4e-3, [&] {
                                k.fn(kc64, 1.0, a.data(), b.data(), 1.0, c.data(), mr);
                              }));
      if (k.name == resolved) resolved_gflops_ = g;
      if (k.isa == ag::KernelIsa::Scalar) continue;
      rate("kernels." + k.name + ".gflops", g, roof_.f64);
      put("kernels." + k.name + ".frac_of_peak", g / roof_.f64, "fraction");
    }
    for (const ag::SMicrokernel& k : ag::all_smicrokernels()) {
      if (std::string_view(k.name).starts_with("sgeneric")) continue;
      auto a = random_buffer<float>(static_cast<std::size_t>(k.mr * kc32), 14);
      auto b = random_buffer<float>(static_cast<std::size_t>(k.nr * kc32), 15);
      auto c = random_buffer<float>(static_cast<std::size_t>(k.mr * k.nr), 16);
      const double g = gflops(2.0 * k.mr * k.nr * kc32, time_samples(kSamples, 4e-3, [&] {
                                k.fn(kc32, 1.0f, a.data(), b.data(), 1.0f, c.data(), k.mr);
                              }));
      rate("kernels." + k.name + ".gflops", g, roof_.f32);
      put("kernels." + k.name + ".frac_of_peak", g / roof_.f32, "fraction");
    }
  }

  // One mc x kc block of A and one kc x nc panel of B per call, walking
  // the blocks of an n x n source the way the GEMM driver does.
  void packing(index_t n, index_t mc, index_t nc, index_t kc, int mr, int nr) {
    Scope span("probe.packing");
    auto src = random_buffer<double>(static_cast<std::size_t>(n * n), 21);
    ag::AlignedBuffer<double> dst(static_cast<std::size_t>(
        std::max(ag::packed_a_size(mc, kc, mr), ag::packed_b_size(kc, nc, nr))));
    const index_t mblocks = n / mc, nblocks = n / nc, kblocks = n / kc;
    for (const Trans t : {Trans::NoTrans, Trans::Trans}) {
      const std::string suffix = t == Trans::NoTrans ? "_n.gbs" : "_t.gbs";
      index_t i = 0;
      const auto ta = time_samples(kSamples, 2e-3, [&] {
        ag::pack_a(t, src.data(), n, i % mblocks * mc, i / mblocks % kblocks * kc, mc, kc, mr,
                   dst.data());
        ++i;
      });
      put("core.packing.pack_a" + suffix, static_cast<double>(mc * kc * 8) / median(ta) * 1e-9,
          "GB/s");
      i = 0;
      const auto tb = time_samples(kSamples, 2e-3, [&] {
        ag::pack_b(t, src.data(), n, i % kblocks * kc, i / kblocks % nblocks * nc, kc, nc, nr,
                   dst.data());
        ++i;
      });
      put("core.packing.pack_b" + suffix, static_cast<double>(kc * nc * 8) / median(tb) * 1e-9,
          "GB/s");
    }
  }

  void gebp(index_t mc, index_t nc, index_t kc, const ag::Microkernel& kernel) {
    Scope span("probe.gebp");
    const int mr = kernel.shape.mr, nr = kernel.shape.nr;
    auto a = random_buffer<double>(static_cast<std::size_t>(mc * kc), 31);
    auto b = random_buffer<double>(static_cast<std::size_t>(kc * nc), 32);
    auto c = random_buffer<double>(static_cast<std::size_t>(mc * nc), 33);
    ag::AlignedBuffer<double> pa(static_cast<std::size_t>(ag::packed_a_size(mc, kc, mr)));
    ag::AlignedBuffer<double> pb(static_cast<std::size_t>(ag::packed_b_size(kc, nc, nr)));
    ag::pack_a(Trans::NoTrans, a.data(), mc, 0, 0, mc, kc, mr, pa.data());
    ag::pack_b(Trans::NoTrans, b.data(), kc, 0, 0, kc, nc, nr, pb.data());
    const double g = gflops(2.0 * mc * nc * kc, time_samples(kSamples, 5e-3, [&] {
                              ag::gebp(mc, nc, kc, 1.0, pa.data(), pb.data(), 1.0, c.data(), mc,
                                       kernel);
                            }));
    rate("core.gebp.gflops", g, roof_.f64);
    put("core.gebp.frac_of_kernel", g / resolved_gflops_, "ratio");
  }

  void driver() {
    Scope span("probe.driver");
    ag::Context serial(ag::KernelShape{8, 6}, 1), parallel(ag::KernelShape{8, 6}, kThreads);
    serial.set_tunable(true);
    parallel.set_tunable(true);
    auto square = [&](index_t n, const ag::Context& ctx, int samples, double min_s) {
      auto a = random_buffer<double>(static_cast<std::size_t>(n * n), 41);
      auto b = random_buffer<double>(static_cast<std::size_t>(n * n), 42);
      auto c = random_buffer<double>(static_cast<std::size_t>(n * n), 43);
      return gflops(2.0 * n * n * n, time_samples(samples, min_s, [&] {
                      ag::dgemm(ag::Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, n, n, n,
                                1.0, a.data(), n, b.data(), n, 1.0, c.data(), n, ctx);
                    }));
    };
    const double s1536 = square(kLargeN, serial, 3, 0);
    const double p1536 = square(kLargeN, parallel, 5, 0);
    const double s256 = square(kMidN, serial, kSamples, 5e-3);
    const double p256 = square(kMidN, parallel, kSamples, 5e-3);
    rate("core.driver.serial_gflops", s1536, roof_.f64);
    rate("core.driver.parallel_gflops_1536", p1536, kThreads * roof_.f64);
    rate("core.driver.serial_gflops_256", s256, roof_.f64);
    rate("core.driver.parallel_gflops_256", p256, kThreads * roof_.f64);
    put("core.driver.parallel_eff_1536", p1536 / (kThreads * s1536), "ratio");
    put("core.driver.parallel_eff_256", p256 / (kThreads * s256), "ratio");
    serial_gflops_ = s1536;
  }

  // A small-path call through the C++ API and through CBLAS, interleaved
  // sample by sample so both see the same host noise.
  void capi() {
    Scope span("probe.capi");
    ag::Context parallel(ag::KernelShape{8, 6}, kThreads);
    parallel.set_tunable(true);
    auto a = random_buffer<double>(kTinyN * kTinyN, 44);
    auto b = random_buffer<double>(kTinyN * kTinyN, 45);
    auto c = random_buffer<double>(kTinyN * kTinyN, 46);
    constexpr int kReps = 2000;
    std::vector<double> cpp, capi_minus_cpp;
    for (int s = 0; s < 2 * kSamples + 1; ++s) {
      Scope sample("sample");
      double t0 = now();
      for (int r = 0; r < kReps; ++r)
        ag::dgemm(ag::Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, kTinyN, kTinyN, kTinyN,
                  1.0, a.data(), kTinyN, b.data(), kTinyN, 0.5, c.data(), kTinyN, parallel);
      const double t_cpp = (now() - t0) / kReps;
      t0 = now();
      for (int r = 0; r < kReps; ++r)
        cblas_dgemm(CblasColMajor, CblasNoTrans, CblasNoTrans, kTinyN, kTinyN, kTinyN, 1.0,
                    a.data(), kTinyN, b.data(), kTinyN, 0.5, c.data(), kTinyN);
      const double t_capi = (now() - t0) / kReps;
      cpp.push_back(t_cpp);
      capi_minus_cpp.push_back(t_capi - t_cpp);
    }
    put("core.driver.small_call_us", median(cpp) * 1e6, "us");
    put("capi.overhead_us", median(capi_minus_cpp) * 1e6, "us");
  }

  void sgemm() {
    Scope span("probe.sgemm");
    const index_t n = kLargeN;
    auto a = random_buffer<float>(static_cast<std::size_t>(n * n), 51);
    auto b = random_buffer<float>(static_cast<std::size_t>(n * n), 52);
    auto c = random_buffer<float>(static_cast<std::size_t>(n * n), 53);
    auto run = [&](int threads, int samples) {
      ag::SgemmOptions opts;
      opts.threads = threads;
      opts.tunable = true;
      return gflops(2.0 * n * n * n, time_samples(samples, 0, [&] {
                      ag::sgemm(ag::Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, n, n, n,
                                1.0f, a.data(), n, b.data(), n, 1.0f, c.data(), n, opts);
                    }));
    };
    const double s = run(1, 3), p = run(kThreads, 5);
    rate("core.sgemm.serial_gflops", s, roof_.f32);
    rate("core.sgemm.parallel_gflops", p, kThreads * roof_.f32);
    put("core.sgemm.parallel_eff", p / (kThreads * s), "ratio");
    put("core.sgemm.per_core_ratio", s / serial_gflops_, "ratio");
  }

 private:
  const Roof& roof_;
  Metrics* out_;
  std::vector<std::string>* violations_;
  double resolved_gflops_ = 0;
  double serial_gflops_ = 0;
};

}  // namespace

void measure_layers(const Workload& w, const Roof& roof, Metrics* out,
                    std::vector<std::string>* violations) {
  const index_t n = w.probe_size();
  armgemm_tuned_config f64{}, f32{};
  armgemm_tune_resolve(0, n, n, n, kThreads, &f64);
  armgemm_tune_resolve(1, n, n, n, kThreads, &f32);
  std::printf("per-layer probes at %lld^3: f64 kernel=%s kc=%lld mc_mt=%lld nc_mt=%lld;"
              " f32 kc=%lld\n",
              static_cast<long long>(n), f64.kernel, f64.kc, f64.mc_mt, f64.nc_mt, f32.kc);
  const ag::Microkernel& kernel = ag::microkernel_by_name(f64.kernel);
  const index_t kc = std::min<index_t>(f64.kc, n);
  const index_t mc = std::min<index_t>(f64.mc_mt, n);
  const index_t nc = std::min<index_t>(f64.nc_mt, n);

  Probe probe(roof, out, violations);
  probe.kernels(f64.kc, f32.kc, f64.kernel);
  probe.packing(n, mc, nc, kc, kernel.shape.mr, kernel.shape.nr);
  probe.gebp(mc, nc, kc, kernel);
  probe.driver();
  probe.capi();
  probe.sgemm();
}

}  // namespace perfbench
