#include "obs/gemm_stats.hpp"

#include <sstream>

namespace ag::obs {

namespace {

void json_field(std::ostream& os, const char* key, double v, bool& first) {
  if (!first) os << ",";
  first = false;
  os << "\"" << key << "\":" << v;
}

void json_field(std::ostream& os, const char* key, std::uint64_t v, bool& first) {
  if (!first) os << ",";
  first = false;
  os << "\"" << key << "\":" << v;
}

}  // namespace

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  gemm_calls += o.gemm_calls;
  pack_a_calls += o.pack_a_calls;
  pack_b_calls += o.pack_b_calls;
  gebp_calls += o.gebp_calls;
  kernel_calls += o.kernel_calls;
  small_calls += o.small_calls;
  pack_a_bytes += o.pack_a_bytes;
  pack_b_bytes += o.pack_b_bytes;
  c_bytes += o.c_bytes;
  pack_a_seconds += o.pack_a_seconds;
  pack_b_seconds += o.pack_b_seconds;
  gebp_seconds += o.gebp_seconds;
  small_seconds += o.small_seconds;
  barrier_seconds += o.barrier_seconds;
  total_seconds += o.total_seconds;
  flops += o.flops;
  return *this;
}

double LayerCounters::gamma() const {
  const double words = total_bytes() / 8.0;
  return words > 0 ? flops / words : 0.0;
}

double LayerCounters::gflops() const {
  return total_seconds > 0 ? flops / total_seconds * 1e-9 : 0.0;
}

double LayerCounters::other_seconds() const {
  const double accounted =
      pack_a_seconds + pack_b_seconds + gebp_seconds + small_seconds + barrier_seconds;
  return total_seconds > accounted ? total_seconds - accounted : 0.0;
}

std::string LayerCounters::to_json() const {
  std::ostringstream os;
  os.precision(9);
  bool first = true;
  os << "{";
  json_field(os, "gemm_calls", gemm_calls, first);
  json_field(os, "pack_a_calls", pack_a_calls, first);
  json_field(os, "pack_b_calls", pack_b_calls, first);
  json_field(os, "gebp_calls", gebp_calls, first);
  json_field(os, "kernel_calls", kernel_calls, first);
  json_field(os, "small_calls", small_calls, first);
  json_field(os, "pack_a_bytes", pack_a_bytes, first);
  json_field(os, "pack_b_bytes", pack_b_bytes, first);
  json_field(os, "c_bytes", c_bytes, first);
  json_field(os, "pack_a_seconds", pack_a_seconds, first);
  json_field(os, "pack_b_seconds", pack_b_seconds, first);
  json_field(os, "gebp_seconds", gebp_seconds, first);
  json_field(os, "small_seconds", small_seconds, first);
  json_field(os, "barrier_seconds", barrier_seconds, first);
  json_field(os, "total_seconds", total_seconds, first);
  json_field(os, "flops", flops, first);
  json_field(os, "gflops", gflops(), first);
  json_field(os, "gamma", gamma(), first);
  os << "}";
  return os.str();
}

void ThreadSlot::add_pack_a(std::uint64_t bytes, double seconds) {
  std::lock_guard lock(mu_);
  ++counters_.pack_a_calls;
  counters_.pack_a_bytes += bytes;
  counters_.pack_a_seconds += seconds;
}

void ThreadSlot::add_pack_b(std::uint64_t bytes, double seconds) {
  std::lock_guard lock(mu_);
  ++counters_.pack_b_calls;
  counters_.pack_b_bytes += bytes;
  counters_.pack_b_seconds += seconds;
}

void ThreadSlot::add_gebp(std::uint64_t kernels, std::uint64_t bytes_c, double seconds) {
  std::lock_guard lock(mu_);
  ++counters_.gebp_calls;
  counters_.kernel_calls += kernels;
  counters_.c_bytes += bytes_c;
  counters_.gebp_seconds += seconds;
}

void ThreadSlot::add_small(double seconds, std::uint64_t bytes_c) {
  std::lock_guard lock(mu_);
  ++counters_.small_calls;
  counters_.c_bytes += bytes_c;
  counters_.small_seconds += seconds;
}

void ThreadSlot::add_call(double fl, double seconds) {
  std::lock_guard lock(mu_);
  ++counters_.gemm_calls;
  counters_.flops += fl;
  counters_.total_seconds += seconds;
}

void ThreadSlot::add_barrier_wait(double seconds) {
  std::lock_guard lock(mu_);
  counters_.barrier_seconds += seconds;
}

LayerCounters ThreadSlot::snapshot() const {
  std::lock_guard lock(mu_);
  return counters_;
}

void ThreadSlot::reset() {
  std::lock_guard lock(mu_);
  counters_ = LayerCounters{};
}

GemmStats::GemmStats(int max_threads)
    : slots_(static_cast<std::size_t>(max_threads < 1 ? 1 : max_threads)) {}

ThreadSlot& GemmStats::slot(int rank) {
  std::size_t i = rank < 0 ? 0 : static_cast<std::size_t>(rank);
  if (i >= slots_.size()) i = slots_.size() - 1;
  return slots_[i];
}

void GemmStats::reset() {
  for (auto& s : slots_) s.reset();
}

LayerCounters GemmStats::totals() const {
  LayerCounters t;
  for (const auto& s : slots_) t += s.snapshot();
  return t;
}

std::vector<LayerCounters> GemmStats::per_thread() const {
  std::vector<LayerCounters> out;
  for (const auto& s : slots_) {
    LayerCounters c = s.snapshot();
    if (c.gemm_calls || c.pack_a_calls || c.pack_b_calls || c.gebp_calls ||
        c.small_calls || c.barrier_seconds > 0)
      out.push_back(c);
  }
  return out;
}

std::string GemmStats::to_json() const {
  std::ostringstream os;
  os << "{\"totals\":" << totals().to_json() << ",\"threads\":[";
  const auto threads = per_thread();
  for (std::size_t i = 0; i < threads.size(); ++i) {
    if (i) os << ",";
    os << threads[i].to_json();
  }
  os << "]}";
  return os.str();
}

}  // namespace ag::obs
