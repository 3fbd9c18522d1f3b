#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

int SpanLog::begin(const char* name, std::int64_t op) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now(), 0, id, open_.empty() ? -1 : open_.back(), op});
  open_.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].t1 = now();
  open_.pop_back();
}

std::map<std::string, double> SpanLog::mean_self_us() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  std::map<std::string, std::pair<double, int>> sum;
  for (const Span& s : spans_) {
    auto& [us, count] = sum[s.name];
    us += (s.t1 - s.t0 - child[static_cast<std::size_t>(s.id)]) * 1e6;
    ++count;
  }
  std::map<std::string, double> out;
  for (const auto& [name, v] : sum) out[name] = v.first / v.second;
  return out;
}

void SpanLog::write_chrome(std::ostream& os) const {
  const double epoch = spans_.empty() ? 0 : spans_.front().t0;
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << R"({"name":")" << s.name << R"(","ph":"X","pid":1,"tid":1,"ts":)"
       << (s.t0 - epoch) * 1e6 << R"(,"dur":)" << (s.t1 - s.t0) * 1e6 << R"(,"args":{"id":)"
       << s.id << R"(,"parent":)" << s.parent << R"(,"op":)" << s.op << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

}  // namespace perfbench
