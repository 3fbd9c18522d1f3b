#include "threading/topology.hpp"

#include <algorithm>
#include <cerrno>
#include <functional>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

#include "common/knobs.hpp"
#include "obs/calibrate.hpp"

namespace ag {

namespace {

// Online cpu count of the host (1 when unknowable). Distinct from the
// topology's num_cpus(): an ARMGEMM_CPU_CLASSES override may emulate
// more (or fewer) cpus than the host has; pinning always folds back onto
// real cpus.
int host_cpus() {
#if defined(__linux__)
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
#else
  return 1;
#endif
}

// First line of a sysfs file as a non-negative integer; -1 on any
// failure (missing file, non-numeric content).
std::int64_t read_sysfs_int(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (!f) return -1;
  char buf[64];
  const char* line = std::fgets(buf, sizeof buf, f);
  std::fclose(f);
  if (!line) return -1;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf, &end, 10);
  if (end == buf || errno == ERANGE || v < 0) return -1;
  return static_cast<std::int64_t>(v);
}

// Relative-throughput proxy of one cpu: cpu_capacity when the kernel
// exports it (arm64 asymmetric parts), else cpuinfo_max_freq; -1 when
// neither is readable.
std::int64_t read_cpu_capacity(int cpu) {
  char path[128];
  std::snprintf(path, sizeof path, "/sys/devices/system/cpu/cpu%d/cpu_capacity",
                cpu);
  std::int64_t v = read_sysfs_int(path);
  if (v > 0) return v;
  std::snprintf(path, sizeof path,
                "/sys/devices/system/cpu/cpu%d/cpufreq/cpuinfo_max_freq", cpu);
  v = read_sysfs_int(path);
  return v > 0 ? v : -1;
}

// Parses a sysfs cpulist ("0-3,8,10-11") into per-cpu membership. Returns
// false on malformed content.
bool parse_cpulist(const char* text, int node, std::vector<int>* cpu_node) {
  const char* p = text;
  while (*p != '\0' && *p != '\n') {
    char* end = nullptr;
    errno = 0;
    const long lo = std::strtol(p, &end, 10);
    if (end == p || errno == ERANGE || lo < 0) return false;
    long hi = lo;
    p = end;
    if (*p == '-') {
      ++p;
      hi = std::strtol(p, &end, 10);
      if (end == p || errno == ERANGE || hi < lo) return false;
      p = end;
    }
    for (long c = lo; c <= hi; ++c) {
      if (c < static_cast<long>(cpu_node->size()))
        (*cpu_node)[static_cast<std::size_t>(c)] = node;
    }
    if (*p == ',') ++p;
  }
  return true;
}

// Fills cpu -> node from /sys/devices/system/node/node*/cpulist. Returns
// the node count discovered (<= 1 means "no NUMA information").
int discover_nodes(std::vector<int>* cpu_node) {
  int nodes = 0;
  for (int node = 0; node < 64; ++node) {
    char path[128];
    std::snprintf(path, sizeof path, "/sys/devices/system/node/node%d/cpulist",
                  node);
    std::FILE* f = std::fopen(path, "r");
    if (!f) break;
    char buf[512];
    const char* line = std::fgets(buf, sizeof buf, f);
    std::fclose(f);
    if (!line || !parse_cpulist(line, node, cpu_node)) break;
    ++nodes;
  }
  return nodes;
}

// Splits `cpus` cores into `nodes` contiguous equal groups (the override
// path: emulated nodes have no sysfs map to honor).
void split_nodes_contiguous(int cpus, int nodes, std::vector<int>* cpu_node) {
  const int per = (cpus + nodes - 1) / nodes;
  for (int c = 0; c < cpus; ++c) (*cpu_node)[static_cast<std::size_t>(c)] = c / per;
}

std::mutex g_build_mutex;
std::atomic<Topology*> g_topology{nullptr};

}  // namespace

std::vector<TopoClassSpec> parse_cpu_classes(const std::string& spec,
                                             std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return std::vector<TopoClassSpec>{};
  };
  std::vector<TopoClassSpec> out;
  const char* p = spec.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    errno = 0;
    const long long count = std::strtoll(p, &end, 10);
    if (end == p || errno == ERANGE || count <= 0)
      return fail("expected a positive core count");
    TopoClassSpec cls;
    cls.cpus = static_cast<int>(count);
    p = end;
    if (*p == 'x' || *p == 'X') {
      ++p;
      errno = 0;
      const double w = std::strtod(p, &end);
      if (end == p || errno == ERANGE || !(w > 0))
        return fail("expected a positive weight after 'x'");
      cls.weight = w;
      p = end;
    }
    out.push_back(cls);
    if (*p == ',') {
      ++p;
      if (*p == '\0') return fail("trailing comma");
    } else if (*p != '\0') {
      return fail("unexpected character in class spec");
    }
  }
  if (out.empty()) return fail("empty spec");
  std::int64_t total = 0;
  for (const TopoClassSpec& c : out) total += c.cpus;
  if (total > 4096) return fail("more than 4096 cores");
  return out;
}

Topology* Topology::build() {
  auto* t = new Topology;

  // 1. Class map: env override beats sysfs beats flat.
  const std::string spec = cpu_classes_spec();
  bool from_env = false;
  if (!spec.empty()) {
    std::string error;
    const std::vector<TopoClassSpec> parsed = parse_cpu_classes(spec, &error);
    if (parsed.empty()) {
      std::fprintf(stderr,
                   "armgemm: ignoring ARMGEMM_CPU_CLASSES='%s' (%s); "
                   "using discovered topology\n",
                   spec.c_str(), error.c_str());
    } else {
      from_env = true;
      t->source_ = 2;
      int cpus = 0;
      for (const TopoClassSpec& c : parsed) cpus += c.cpus;
      t->num_cpus_ = cpus;
      t->cpu_class_.resize(static_cast<std::size_t>(cpus), 0);
      int cpu = 0;
      for (std::size_t i = 0; i < parsed.size(); ++i) {
        t->classes_.push_back({parsed[i].cpus, parsed[i].weight});
        for (int c = 0; c < parsed[i].cpus; ++c)
          t->cpu_class_[static_cast<std::size_t>(cpu++)] = static_cast<int>(i);
      }
    }
  }
  if (!from_env) {
    const int cpus = host_cpus();
    t->num_cpus_ = cpus;
    t->cpu_class_.resize(static_cast<std::size_t>(cpus), 0);
    // Group equal capacity readings into classes, fastest first.
    std::vector<std::int64_t> caps(static_cast<std::size_t>(cpus), -1);
    bool any = false;
    for (int c = 0; c < cpus; ++c) {
      caps[static_cast<std::size_t>(c)] = read_cpu_capacity(c);
      any = any || caps[static_cast<std::size_t>(c)] > 0;
    }
    if (any) {
      t->source_ = 1;
      std::map<std::int64_t, int, std::greater<std::int64_t>> groups;
      for (std::int64_t cap : caps)
        if (groups.find(cap) == groups.end())
          groups.emplace(cap, static_cast<int>(groups.size()));
      const std::int64_t max_cap = groups.begin()->first;
      t->classes_.resize(groups.size());
      for (const auto& [cap, cls] : groups) {
        t->classes_[static_cast<std::size_t>(cls)].weight_seed =
            cap > 0 && max_cap > 0
                ? static_cast<double>(cap) / static_cast<double>(max_cap)
                : 1.0;
      }
      for (int c = 0; c < cpus; ++c) {
        const int cls = groups.at(caps[static_cast<std::size_t>(c)]);
        t->cpu_class_[static_cast<std::size_t>(c)] = cls;
        t->classes_[static_cast<std::size_t>(cls)].cpus++;
      }
    } else {
      t->source_ = 0;
      t->classes_.push_back({cpus, 1.0});
    }
  }

  // Normalize seeds so the fastest class sits at 1.0.
  double max_w = 0;
  for (const ClassInfo& c : t->classes_)
    if (c.weight_seed > max_w) max_w = c.weight_seed;
  if (max_w > 0)
    for (ClassInfo& c : t->classes_) c.weight_seed /= max_w;

  // 2. Node map: override splits contiguously; otherwise sysfs; else one
  // node. An emulated class map without a node override stays single-node
  // (the host's node list describes real cpus, not emulated ones).
  t->cpu_node_.resize(static_cast<std::size_t>(t->num_cpus_), 0);
  const std::int64_t node_override = numa_nodes_override();
  if (node_override > 0) {
    t->num_nodes_ = static_cast<int>(
        node_override > t->num_cpus_ ? t->num_cpus_ : node_override);
    split_nodes_contiguous(t->num_cpus_, t->num_nodes_, &t->cpu_node_);
  } else if (!from_env || t->num_cpus_ == host_cpus()) {
    const int nodes = discover_nodes(&t->cpu_node_);
    t->num_nodes_ = nodes > 1 ? nodes : 1;
    if (nodes <= 1)
      std::fill(t->cpu_node_.begin(), t->cpu_node_.end(), 0);
  }

  // 3. Asymmetric sysfs discoveries refine the capacity-ratio seeds with
  // a real per-class FMA throughput probe (the paper's Table IV spirit:
  // measure the silicon, don't trust the datasheet). Needs pinning; when
  // the host refuses, the capacity ratios stand.
  if (t->source_ == 1 && t->classes_.size() > 1) {
#if defined(__linux__)
    cpu_set_t saved;
    if (pthread_getaffinity_np(pthread_self(), sizeof saved, &saved) == 0) {
      obs::CalibrationOptions opts;
      opts.seconds_per_probe = 0.002;
      std::vector<double> tput(t->classes_.size(), 0.0);
      bool ok = true;
      // First cpu of each class hosts that class's probe.
      std::vector<int> probe_cpu(t->classes_.size(), -1);
      for (int c = 0; c < t->num_cpus_; ++c) {
        const int cls = t->cpu_class_[static_cast<std::size_t>(c)];
        if (probe_cpu[static_cast<std::size_t>(cls)] < 0)
          probe_cpu[static_cast<std::size_t>(cls)] = c;
      }
      for (std::size_t cls = 0; cls < t->classes_.size() && ok; ++cls) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(probe_cpu[cls] % host_cpus(), &one);
        if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) != 0) {
          ok = false;
          break;
        }
        const double mu = obs::measure_fma_throughput(opts);
        if (mu > 0) tput[cls] = 1.0 / mu;
        ok = tput[cls] > 0;
      }
      pthread_setaffinity_np(pthread_self(), sizeof saved, &saved);
      if (ok) {
        double max_t = 0;
        for (double v : tput)
          if (v > max_t) max_t = v;
        if (max_t > 0)
          for (std::size_t cls = 0; cls < t->classes_.size(); ++cls)
            t->classes_[cls].weight_seed = tput[cls] / max_t;
      }
    }
#endif
  }

  t->counters_ = std::make_unique<ClassCounters[]>(t->classes_.size());
  return t;
}

const Topology& Topology::get() {
  Topology* t = g_topology.load(std::memory_order_acquire);
  if (t) return *t;
  std::lock_guard lock(g_build_mutex);
  t = g_topology.load(std::memory_order_acquire);
  if (!t) {
    t = build();
    g_topology.store(t, std::memory_order_release);
    // Register once; the source always reads through get(), so refresh()
    // swaps are picked up automatically.
    obs::set_topology_stats_source(+[] { return Topology::get().stats(); });
  }
  return *t;
}

void Topology::refresh() {
  std::lock_guard lock(g_build_mutex);
  // Hot-path readers hold raw pointers with no lifetime ceremony, so a
  // replaced snapshot lives as long as the process. This list owns the
  // retired ones (never destroyed, so no reader outlives it), which keeps
  // them reachable for leak checkers; refreshes are test-rate.
  static auto* retired = new std::vector<std::unique_ptr<const Topology>>;
  if (const Topology* old = g_topology.load(std::memory_order_acquire))
    retired->emplace_back(old);
  g_topology.store(build(), std::memory_order_release);
  obs::set_topology_stats_source(+[] { return Topology::get().stats(); });
}

int Topology::class_of_cpu(int cpu) const {
  if (cpu < 0 || cpu >= num_cpus_) return 0;
  return cpu_class_[static_cast<std::size_t>(cpu)];
}

int Topology::node_of_cpu(int cpu) const {
  if (cpu < 0 || cpu >= num_cpus_) return 0;
  return cpu_node_[static_cast<std::size_t>(cpu)];
}

bool Topology::refined() const {
  if (classes_.size() < 2) return false;
  for (std::size_t cls = 0; cls < classes_.size(); ++cls) {
    if (classes_[cls].cpus == 0) continue;
    if (counters_[cls].tickets.load(std::memory_order_relaxed) < 64) return false;
    if (counters_[cls].busy_ns.load(std::memory_order_relaxed) == 0) return false;
  }
  return true;
}

double Topology::class_weight(int cls) const {
  if (cls < 0 || cls >= num_classes()) return 1.0;
  if (!refined()) return classes_[static_cast<std::size_t>(cls)].weight_seed;
  // Measured tickets-per-busy-second is the live throughput proxy
  // (tickets of one call are equal-sized, so the cross-class ratio is a
  // fair speed ratio under mixed traffic).
  double max_tput = 0;
  double my_tput = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const double busy = static_cast<double>(
        counters_[c].busy_ns.load(std::memory_order_relaxed));
    if (busy <= 0) continue;
    const double tput =
        static_cast<double>(counters_[c].tickets.load(std::memory_order_relaxed)) /
        busy;
    if (tput > max_tput) max_tput = tput;
    if (static_cast<int>(c) == cls) my_tput = tput;
  }
  if (max_tput <= 0 || my_tput <= 0)
    return classes_[static_cast<std::size_t>(cls)].weight_seed;
  return my_tput / max_tput;
}

double Topology::class_weight_seed(int cls) const {
  if (cls < 0 || cls >= num_classes()) return 1.0;
  return classes_[static_cast<std::size_t>(cls)].weight_seed;
}

int Topology::class_cpus(int cls) const {
  if (cls < 0 || cls >= num_classes()) return 0;
  return classes_[static_cast<std::size_t>(cls)].cpus;
}

std::vector<double> Topology::rank_weights(int nthreads) const {
  std::vector<double> w(static_cast<std::size_t>(nthreads > 0 ? nthreads : 0), 1.0);
  if (num_classes() <= 1) return w;
  // One weight read per class, not per rank: class_weight scans the
  // refinement counters.
  std::vector<double> by_class(classes_.size());
  for (int c = 0; c < num_classes(); ++c)
    by_class[static_cast<std::size_t>(c)] = class_weight(c);
  for (int r = 0; r < nthreads; ++r)
    w[static_cast<std::size_t>(r)] =
        by_class[static_cast<std::size_t>(class_of_rank(r))];
  return w;
}

void Topology::note_ticket(int cls, std::uint64_t busy_ns) const {
  if (cls < 0 || cls >= num_classes()) return;
  counters_[static_cast<std::size_t>(cls)].tickets.fetch_add(
      1, std::memory_order_relaxed);
  counters_[static_cast<std::size_t>(cls)].busy_ns.fetch_add(
      busy_ns, std::memory_order_relaxed);
}

int Topology::current_node() const {
  if (num_nodes_ <= 1) return 0;
#if defined(__linux__)
  const int cpu = sched_getcpu();
  if (cpu >= 0) return node_of_cpu(cpu % num_cpus_);
#endif
  return 0;
}

bool Topology::pin_current_thread_to_rank(int rank) const {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  // Emulated topologies may describe more cpus than the host has; pinning
  // folds back onto real cpus so the call still succeeds (and the class
  // map stays a pure emulation).
  CPU_SET(cpu_of_rank(rank) % host_cpus(), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
#else
  (void)rank;
  return false;
#endif
}

obs::TopologyStats Topology::stats() const {
  obs::TopologyStats s;
  s.cpus = num_cpus_;
  s.nodes = num_nodes_;
  s.source = source_;
  s.weights_refined = refined();
  s.classes.reserve(classes_.size());
  for (std::size_t cls = 0; cls < classes_.size(); ++cls) {
    obs::TopologyClassStats c;
    c.cls = static_cast<int>(cls);
    c.cpus = classes_[cls].cpus;
    c.weight_seed = classes_[cls].weight_seed;
    c.weight = class_weight(static_cast<int>(cls));
    c.tickets = counters_[cls].tickets.load(std::memory_order_relaxed);
    c.busy_seconds =
        static_cast<double>(counters_[cls].busy_ns.load(std::memory_order_relaxed)) *
        1e-9;
    s.classes.push_back(c);
  }
  return s;
}

}  // namespace ag
