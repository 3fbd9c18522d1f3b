// Native (host) microkernel throughput: every registered register kernel,
// f64 and f32, on an L1-resident working set — the host-hardware analogue
// of the paper's Table IV micro-benchmark. The expected ordering (8x6
// ahead of 8x4 ahead of 4x4 per-flop) carries over to x86 with AVX2.
//
//   native_microkernel --list   prints the registered kernels with their
//                               ISA and the defaults, then exits
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "kernels/microkernel.hpp"
#include "kernels/sgemm_kernels.hpp"

namespace {

template <typename T, typename Fn>
void bench_kernel(benchmark::State& state, Fn fn, int mr, int nr) {
  const ag::index_t kc = state.range(0);
  ag::AlignedBuffer<T> a(static_cast<std::size_t>(mr * kc));
  ag::AlignedBuffer<T> b(static_cast<std::size_t>(nr * kc));
  ag::AlignedBuffer<T> c(static_cast<std::size_t>(mr * nr));
  ag::Xoshiro256 rng(1);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<T>(rng.uniform(-1, 1));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<T>(rng.uniform(-1, 1));
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = 0;

  for (auto _ : state) {
    fn(kc, T(1), a.data(), b.data(), T(1), c.data(), mr);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  const double flops = 2.0 * mr * nr * static_cast<double>(kc);
  state.counters["GFLOPS"] =
      benchmark::Counter(flops, benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}

void list_kernels() {
  for (const auto& k : ag::all_microkernels())
    std::printf("f64 %-14s isa=%-6s %s\n", k.name.c_str(), ag::to_string(k.isa),
                k.shape.to_string().c_str());
  for (const auto& k : ag::all_smicrokernels())
    std::printf("f32 %-14s isa=%-6s %dx%d\n", k.name.c_str(), ag::to_string(k.isa), k.mr, k.nr);
  std::printf("avx512 usable: %s\n",
              ag::isa_available(ag::KernelIsa::Avx512) ? "yes" : "no");
  std::printf("default f64 kernel: %s\n", ag::default_microkernel().name.c_str());
  std::printf("default f32 kernel: %s\n", ag::best_smicrokernel().name.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      list_kernels();
      return 0;
    }
  }
  for (const auto& k : ag::all_microkernels()) {
    benchmark::RegisterBenchmark(("ukr/" + k.name).c_str(),
                                 bench_kernel<double, ag::MicrokernelFn>, k.fn, k.shape.mr,
                                 k.shape.nr)
        ->Arg(256)
        ->Arg(512);
  }
  // Floats are half the bytes: twice the kc keeps the same L1 footprint.
  for (const auto& k : ag::all_smicrokernels()) {
    benchmark::RegisterBenchmark(("ukr/" + k.name).c_str(),
                                 bench_kernel<float, ag::SMicrokernelFn>, k.fn, k.mr, k.nr)
        ->Arg(512)
        ->Arg(1024);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
