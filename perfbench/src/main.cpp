// The perfbench binary. One process runs one workload closed-loop from
// one calling thread, with the library at kThreads threads and the tuner
// pinned to its analytic mode, and prints one JSON result as its last
// line. See perfbench/README.md for the modes and metrics.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--mode M]
//             [--trace-out PATH]
//
// Modes: run (default), setup (set-up time only), describe (shapes,
// input hash and resolved configuration), selfcheck (verification must
// catch a corrupted output).
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "capi/armgemm_cblas.h"
#include "layers.hpp"
#include "roof.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Every span name the traced run records.
constexpr const char* kSpanNames[] = {"op", "call", "verify", "sample", "probe.roof",
                                      "probe.kernels", "probe.packing", "probe.gebp",
                                      "probe.driver", "probe.capi", "probe.sgemm"};

struct Args {
  std::string workload, mode = "run", trace_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N --seconds S --trace 0|1"
               " [--mode run|setup|describe|selfcheck] [--trace-out PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* v = argv[++i];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(v);
    else if (key == "--trace") a.trace = std::atoi(v) != 0;
    else if (key == "--mode") a.mode = v;
    else if (key == "--trace-out") a.trace_out = v;
    else usage(("unknown flag " + key).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Steady-state entry: everything from the first library call through
/// the first operation, which pays tune resolution (with the calibration
/// behind it), pool spawn and scratch growth.
struct SetupResult {
  double seconds = 0;
  double first_resolve_ms = 0;
  std::vector<std::string> configs;
};

void pin_library() {
  armgemm_set_tune_cache_path("");
  armgemm_set_tune_mode("analytic");
  armgemm_set_num_threads(kThreads);
}

SetupResult set_up(Workload& w) {
  SetupResult r;
  const double t0 = now();
  pin_library();
  armgemm_tuned_config cfg{};
  const double r0 = now();
  armgemm_tune_resolve(w.single_precision() ? 1 : 0, w.probe_size(), w.probe_size(),
                       w.probe_size(), kThreads, &cfg);
  r.first_resolve_ms = (now() - r0) * 1e3;
  r.configs = w.resolved_configs();
  w.run_op(-1);
  r.seconds = now() - t0;
  return r;
}

unsigned long long probes_run() {
  armgemm_tune_stats ts{};
  armgemm_tune_stats_get(&ts);
  return ts.probes_run;
}

struct Loop {
  std::vector<double> times;       // seconds per operation
  std::vector<double> call_times;  // seconds per call, timed_calls() per operation
  long long attempted = 0, failed = 0;
  std::string why;
};

/// Runs operations closed-loop for `seconds`. Every verify_every()-th
/// operation's output is checked against the reference outside the timed
/// region.
void run_loop(Workload& w, double seconds, ag::Xoshiro256& vrng, std::int64_t* op, Loop* out) {
  const double deadline = now() + seconds;
  do {
    const bool verify = *op % w.verify_every() == 0;
    if (verify) w.snapshot(vrng);
    bool threw = false;
    double dt = 0;
    const std::size_t first_call = out->call_times.size();
    out->call_times.resize(first_call + w.timed_calls());
    {
      Scope span("op", *op);
      const double t0 = now();
      try {
        w.run_op(*op, out->call_times.data() + first_call);
      } catch (const std::exception& e) {
        threw = true;
        if (out->why.empty()) out->why = e.what();
      }
      dt = now() - t0;
    }
    int bad = threw ? 1 : 0;
    if (verify && !threw) {
      Scope span("verify", *op);
      bad = w.check(&out->why) > 0 ? 1 : 0;
    }
    out->times.push_back(dt);
    ++out->attempted;
    out->failed += bad;
    ++*op;
  } while (now() < deadline);
}

/// Sum over an operation's calls of quantile q of each call's time
/// across the run. For a one-call operation it is that quantile of the
/// operation time.
double per_call_quantile_sum(const Workload& w, const Loop& loop, double q) {
  const std::size_t calls = w.timed_calls();
  double sum = 0;
  std::vector<double> v;
  for (std::size_t c = 0; c < calls; ++c) {
    v.clear();
    for (std::size_t i = c; i < loop.call_times.size(); i += calls)
      v.push_back(loop.call_times[i]);
    sum += quantile(v, q);
  }
  return sum;
}

/// The operation time the metrics use: the sum of each call's lower
/// quartile. Every call of a 4-thread fork/join waits for all four vCPUs,
/// so on a shared host a spell of steal time stretches most calls of a
/// round and, at a few tens of steal ticks per second, more than half of
/// each call's samples. The lower quartile stays with the unhindered
/// calls until about three quarters of them are hit; a lasting change to
/// any call still moves it.
double typical_op_seconds(const Workload& w, const Loop& loop) {
  return per_call_quantile_sum(w, loop, 0.25);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Prints the median and the highest percentile with at least ten
/// samples beyond it.
void print_latency(const char* label, const std::vector<double>& t) {
  const double n = static_cast<double>(t.size());
  std::printf("%s: p50 %.4f ms", label, median(t) * 1e3);
  for (const double p : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (n * (1 - p) >= 10) {
      std::printf(", p%g %.4f ms", p * 100, quantile(t, p) * 1e3);
      break;
    }
  }
  std::printf(" (n=%zu)\n", t.size());
}

void print_result(bool correct, long long attempted, long long failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                metric.value, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int mode_describe(Workload& w) {
  pin_library();
  std::fputs(w.describe().c_str(), stdout);
  for (const auto& line : w.resolved_configs()) std::printf("resolved %s\n", line.c_str());
  return 0;
}

int mode_selfcheck(Workload& w, std::uint64_t seed) {
  pin_library();
  ag::Xoshiro256 vrng(seed);
  std::string why;
  w.snapshot(vrng);
  w.run_op(0);
  const int clean = w.check(&why);
  int caught = 0;
  for (const bool nan : {false, true}) {
    w.snapshot(vrng);
    w.run_op(0);
    w.corrupt_sampled(w.calls() - 1, nan);
    std::string corrupt_why;
    const int failed = w.check(&corrupt_why);
    std::printf("corrupted (%s) output: %d failed call(s): %s\n", nan ? "NaN" : "+1e3", failed,
                corrupt_why.c_str());
    caught += failed == 1 ? 1 : 0;
  }
  std::printf("clean output: %d failed call(s)%s%s\n", clean, why.empty() ? "" : ": ",
              why.c_str());
  const bool ok = clean == 0 && caught == 2;
  std::printf("selfcheck %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int mode_setup(Workload& w) {
  const SetupResult s = set_up(w);
  std::printf("{\"setup_s\": %.17g, \"probes_run\": %llu}\n", s.seconds, probes_run());
  return probes_run() == 0 ? 0 : 1;
}

/// End-to-end metrics: the workload alone, untraced.
void untraced_run(Workload& w, const Args& args, const SetupResult& setup, Metrics* out,
                  Loop* loop) {
  ag::Xoshiro256 vrng(args.seed ^ 0x5eed);
  std::int64_t op = 0;
  run_loop(w, args.seconds, vrng, &op, loop);
  print_latency("round latency", loop->times);
  std::printf("sum of per-call medians: %.4f ms\n",
              per_call_quantile_sum(w, *loop, 0.5) * 1e3);
  const double p25 = typical_op_seconds(w, *loop);
  Metrics& m = *out;
  m["gflops"] = {w.flops_per_op() / p25 * 1e-9, "Gflop/s"};
  m["latency_p25_ms"] = {p25 * 1e3, "ms"};
  m["setup_s"] = {setup.seconds, "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  m["ok_rate"] = {static_cast<double>(loop->attempted - loop->failed) / loop->attempted,
                  "fraction"};
}

/// Per-layer metrics. Untraced and traced chunks of the workload
/// alternate so both see the same host noise; tracing turns on the span
/// log, the per-layer stats and the library's phase attribution. The
/// layer probes and the library's own counters follow.
void traced_run(Workload& w, const Args& args, const SetupResult& setup, Metrics* out,
                Loop* loop, std::vector<std::string>* violations) {
  armgemm_telemetry_enable();  // the first enable calibrates; keep it out of the chunks
  armgemm_telemetry_disable();
  armgemm_telemetry_reset();
  armgemm_stats_reset();
  armgemm_set_phase_attribution(1);
  armgemm_scheduler_stats sched0{}, sched1{};
  armgemm_panel_cache_stats cache0{}, cache1{};
  armgemm_scheduler_stats_get(&sched0);
  armgemm_panel_cache_stats_get(&cache0);
  ag::Xoshiro256 vrng(args.seed ^ 0x5eed);
  std::int64_t op = 0;
  Loop traced;
  constexpr int kChunks = 8;
  const double t_begin = now();
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    const bool on = chunk % 2 == 1;
    if (on) {
      armgemm_telemetry_enable();
      armgemm_stats_enable();
    }
    spans().set_enabled(on);
    run_loop(w, args.seconds / kChunks, vrng, &op, on ? &traced : loop);
    spans().set_enabled(false);
    armgemm_telemetry_disable();
    armgemm_stats_disable();
  }
  const double wall = now() - t_begin;
  armgemm_scheduler_stats_get(&sched1);
  armgemm_panel_cache_stats_get(&cache1);
  print_latency("untraced round latency", loop->times);
  print_latency("traced round latency", traced.times);
  Metrics& m = *out;
  m["trace.overhead"] = {typical_op_seconds(w, *loop) / typical_op_seconds(w, traced) - 1,
                         "ratio"};
  loop->attempted += traced.attempted;
  loop->failed += traced.failed;
  if (loop->why.empty()) loop->why = traced.why;

  spans().set_enabled(true);
  Roof roof;
  {
    Scope span("probe.roof");
    roof = measure_roof(10);
  }
  std::printf("roof: %s FMA loop, %.2f Gflop/s f64, %.2f Gflop/s f32 per core\n", roof.isa,
              roof.f64, roof.f32);
  m["kernels.peak_gflops"] = {roof.f64, "Gflop/s"};
  m["kernels.peak_gflops_f32"] = {roof.f32, "Gflop/s"};
  measure_layers(w, roof, &m, violations);
  spans().set_enabled(false);

  armgemm_stats_snapshot st{};
  armgemm_stats_get(&st);
  m["threading.barrier_share"] = {
      st.total_seconds > 0 ? st.barrier_seconds / (kThreads * st.total_seconds) : 0,
      "fraction"};

  armgemm_phase_summary ph{};
  armgemm_telemetry_phases(-1, &ph);
  static const char* const kPhases[] = {"queue_wait", "pack_a",      "pack_b",  "kernel",
                                        "barrier",    "cache_stall", "epilogue"};
  for (int i = 0; i < 7; ++i)
    m[std::string("obs.phase.") + kPhases[i] + ".share"] = {ph.mean_share[i], "fraction"};

  const double busy = sched1.busy_seconds - sched0.busy_seconds;
  const double idle = sched1.idle_seconds - sched0.idle_seconds;
  const double run = static_cast<double>(sched1.tickets_run - sched0.tickets_run);
  const double stolen = static_cast<double>(sched1.tickets_stolen - sched0.tickets_stolen);
  m["threading.pool.utilization"] = {busy + idle > 0 ? busy / (busy + idle) : 0, "fraction"};
  m["threading.pool.steal_ratio"] = {run > 0 ? stolen / run : 0, "fraction"};
  m["threading.pool.idle_share"] = {sched1.workers > 0 ? idle / (sched1.workers * wall) : 0,
                                    "fraction"};
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  m["core.panel_cache.hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0,
                                     "fraction"};
  m["core.panel_cache.stall_ms"] = {
      (cache1.wait_seconds - cache0.wait_seconds) * 1e3 / static_cast<double>(loop->attempted),
      "ms"};

  m["tune.first_resolve_ms"] = {setup.first_resolve_ms, "ms"};
  m["tune.probes_run"] = {static_cast<double>(probes_run()), "count"};

  const std::map<std::string, double> self_us = spans().mean_self_us();
  for (const char* name : kSpanNames) {
    const auto it = self_us.find(name);
    m[std::string("trace.self_us.") + name] = {it == self_us.end() ? 0 : it->second, "us"};
  }
  if (!args.trace_out.empty()) {
    std::ofstream os(args.trace_out);
    spans().write_chrome(os);
    std::printf("chrome trace: %s (%zu spans)\n", args.trace_out.c_str(),
                spans().spans().size());
  }
}

int mode_run(Workload& w, const Args& args) {
  const SetupResult setup = set_up(w);
  std::printf("workload %s seed %llu: %.4g Gflop per operation, %d library threads\n",
              w.name().c_str(), static_cast<unsigned long long>(args.seed),
              w.flops_per_op() * 1e-9, kThreads);
  for (const auto& line : setup.configs) std::printf("resolved %s\n", line.c_str());

  Metrics m;
  Loop plain;
  std::vector<std::string> violations;
  if (args.trace) {
    traced_run(w, args, setup, &m, &plain, &violations);
  } else {
    untraced_run(w, args, setup, &m, &plain);
  }

  bool correct = true;
  if (plain.failed > 0) {
    correct = false;
    std::printf("verification FAILED on %lld of %lld operations: %s\n", plain.failed,
                plain.attempted, plain.why.c_str());
  }
  for (const auto& v : violations) {
    correct = false;
    std::printf("roof check FAILED: %s\n", v.c_str());
  }
  if (probes_run() > 0) {
    correct = false;
    std::printf("tuner ran %llu measured probes; the configuration is not pinned\n",
                probes_run());
  }
  print_result(correct, plain.attempted, plain.failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  try {
    Workload w(args.workload, args.seed);
    if (args.mode == "run") return mode_run(w, args);
    if (args.mode == "setup") return mode_setup(w);
    if (args.mode == "describe") return mode_describe(w);
    if (args.mode == "selfcheck") return mode_selfcheck(w, args.seed);
    usage(("unknown mode " + args.mode).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
