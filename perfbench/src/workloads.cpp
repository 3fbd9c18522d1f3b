#include "workloads.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "bench.hpp"
#include "blas/compare.hpp"
#include "blas/reference_gemm.hpp"
#include "common/matrix.hpp"
#include "core/sgemm.hpp"

namespace perfbench {
namespace {

using ag::Layout;
using ag::Trans;

/// Rows and columns C samples at most (all of them below this).
constexpr std::size_t kSampleDim = 16;

CBLAS_ORDER cblas(Layout l) { return l == Layout::ColMajor ? CblasColMajor : CblasRowMajor; }
CBLAS_TRANSPOSE cblas(Trans t) { return t == Trans::NoTrans ? CblasNoTrans : CblasTrans; }

/// Element (r, c) of a stored (pre-transpose) matrix.
template <class T>
T stored_at(const T* p, std::int64_t ld, Layout l, std::int64_t r, std::int64_t c) {
  return l == Layout::ColMajor ? p[r + c * ld] : p[r * ld + c];
}

/// op(X)(i, j) of a stored operand.
template <class T>
T op_at(const T* p, std::int64_t ld, Layout l, Trans t, std::int64_t i, std::int64_t j) {
  return t == Trans::NoTrans ? stored_at(p, ld, l, i, j) : stored_at(p, ld, l, j, i);
}

template <class T>
T& c_at(const GemmCall<T>& call, std::int64_t i, std::int64_t j) {
  return call.layout == Layout::ColMajor ? call.c[i + j * call.ldc] : call.c[i * call.ldc + j];
}

/// Leading dimension and element count of op(X) = rows x cols stored
/// densely in `layout`.
std::pair<std::int64_t, std::size_t> dense(Layout layout, Trans t, std::int64_t rows,
                                           std::int64_t cols) {
  const std::int64_t sr = t == Trans::NoTrans ? rows : cols;
  const std::int64_t sc = t == Trans::NoTrans ? cols : rows;
  return {layout == Layout::ColMajor ? sr : sc, static_cast<std::size_t>(sr * sc)};
}

std::vector<std::int64_t> pick(std::int64_t extent, ag::Xoshiro256& rng) {
  std::vector<std::int64_t> out;
  if (static_cast<std::size_t>(extent) <= kSampleDim) {
    out.resize(static_cast<std::size_t>(extent));
    std::iota(out.begin(), out.end(), 0);
    return out;
  }
  out.push_back(extent - 1);
  while (out.size() < kSampleDim) {
    const auto v = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(extent)));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

template <class T>
void shuffle(std::vector<T>& v, ag::Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
}

std::int64_t jitter(ag::Xoshiro256& rng) { return static_cast<std::int64_t>(rng.next_below(4)); }

template <class T>
T choose(ag::Xoshiro256& rng, std::initializer_list<T> values) {
  return values.begin()[rng.next_below(values.size())];
}

template <class T>
void sample_call(const GemmCall<T>& call, CallSample<T>* s, ag::Xoshiro256& rng) {
  s->rows = pick(call.m, rng);
  s->cols = pick(call.n, rng);
  s->c0.clear();
  for (const std::int64_t j : s->cols)
    for (const std::int64_t i : s->rows) s->c0.push_back(c_at(call, i, j));
}

double max_abs(const std::vector<double>& v) {
  double m = 0;
  for (const double x : v) m = std::max(m, std::abs(x));
  return m;
}

/// Verifies the sampled entries of one finished call: the reference GEMM
/// of the sampled rows of op(A) and columns of op(B) from the snapshotted
/// C values, within compare_gemm_result's normwise bound (scaled to
/// single-precision rounding for f32). Any NaN/Inf output fails.
template <class T>
bool check_call(const GemmCall<T>& call, const CallSample<T>& s, std::string* why) {
  const auto r = static_cast<std::int64_t>(s.rows.size());
  const auto q = static_cast<std::int64_t>(s.cols.size());
  const std::int64_t k = call.k;
  std::vector<T> as(static_cast<std::size_t>(r * k)), bs(static_cast<std::size_t>(k * q));
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t i = 0; i < r; ++i)
      as[static_cast<std::size_t>(i + p * r)] = op_at(
          call.a, call.lda, call.layout, call.trans_a, s.rows[static_cast<std::size_t>(i)], p);
  for (std::int64_t j = 0; j < q; ++j)
    for (std::int64_t p = 0; p < k; ++p)
      bs[static_cast<std::size_t>(p + j * k)] = op_at(
          call.b, call.ldb, call.layout, call.trans_b, p, s.cols[static_cast<std::size_t>(j)]);
  std::vector<T> ref = s.c0;
  if constexpr (std::is_same_v<T, double>) {
    ag::reference_dgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, r, q, k, call.alpha,
                        as.data(), r, bs.data(), k, call.beta, ref.data(), r);
  } else {
    ag::reference_sgemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, r, q, k, call.alpha,
                        as.data(), r, bs.data(), k, call.beta, ref.data(), r);
  }
  std::vector<double> got, want(ref.begin(), ref.end());
  for (const std::int64_t j : s.cols)
    for (const std::int64_t i : s.rows) got.push_back(static_cast<double>(c_at(call, i, j)));
  for (const double x : got) {
    if (!std::isfinite(x)) {
      if (why->empty()) *why = "non-finite output";
      return false;
    }
  }
  const std::vector<double> ad(as.begin(), as.end()), bd(bs.begin(), bs.end()),
      cd(s.c0.begin(), s.c0.end());
  ag::CompareResult cmp = ag::compare_gemm_result(
      ag::MatrixView<const double>(got.data(), r, q, r),
      ag::MatrixView<const double>(want.data(), r, q, r), k, call.alpha, max_abs(ad),
      max_abs(bd), call.beta, max_abs(cd));
  if constexpr (std::is_same_v<T, float>) {
    cmp.bound *= static_cast<double>(FLT_EPSILON) / DBL_EPSILON;
    cmp.ok = cmp.max_diff <= cmp.bound;
  }
  if (!cmp.ok && why->empty()) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s %lldx%lldx%lld: max diff %.3g > bound %.3g", call.cls,
                  static_cast<long long>(call.m), static_cast<long long>(call.n),
                  static_cast<long long>(k), cmp.max_diff, cmp.bound);
    *why = buf;
  }
  return cmp.ok;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

template <class T>
std::string config_line(const GemmCall<T>& call) {
  armgemm_tuned_config cfg{};
  const int precision = std::is_same_v<T, double> ? 0 : 1;
  if (armgemm_tune_resolve(precision, call.m, call.n, call.k, kThreads, &cfg) == 0)
    return "tuner off";
  static const char* const kSources[] = {"none", "analytic", "probed", "cached", "pinned"};
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s kernel=%s %dx%d kc=%lld mc=%lld nc=%lld mc_mt=%lld nc_mt=%lld source=%s",
                precision == 0 ? "f64" : "f32", cfg.kernel[0] ? cfg.kernel : "(f32)", cfg.mr,
                cfg.nr, cfg.kc, cfg.mc, cfg.nc, cfg.mc_mt, cfg.nc_mt,
                kSources[std::clamp(cfg.source, 0, 4)]);
  return buf;
}

}  // namespace

Workload::Workload(const std::string& name, std::uint64_t seed) : name_(name) {
  ag::Xoshiro256 rng(fnv1a(seed, name.data(), name.size()));
  if (name == "dgemm_large") {
    make_large(rng, false);
  } else if (name == "sgemm_large") {
    make_large(rng, true);
  } else if (name == "dgemm_mixed") {
    make_mixed(rng);
  } else if (name == "batch_shared_b") {
    make_batch(rng);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  for (const auto& c : dcalls_) flops_ += c.flops();
  for (const auto& c : fcalls_) flops_ += c.flops();
}

template <class T>
T* Workload::alloc(std::vector<ag::AlignedBuffer<T>>& pool, std::size_t n,
                   ag::Xoshiro256& rng) {
  pool.emplace_back(std::max<std::size_t>(n, 1));
  T* p = pool.back().data();
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<T>(rng.uniform(-1, 1));
  return p;
}

// 1536^3 column-major NN with beta = 1: one call per operation; the
// operands (54 MB in f64) exceed the L2 of every core combined.
void Workload::make_large(ag::Xoshiro256& rng, bool f32) {
  constexpr std::int64_t kN = 1536;
  probe_size_ = kN;
  const auto elems = static_cast<std::size_t>(kN * kN);
  auto fill = [&](auto& pool, auto& calls) {
    using T = std::remove_pointer_t<decltype(pool.back().data())>;
    GemmCall<T> c;
    c.cls = "large";
    c.m = c.n = c.k = kN;
    c.alpha = 1;
    c.beta = 1;
    c.a = alloc(pool, elems, rng);
    c.b = alloc(pool, elems, rng);
    c.c = alloc(pool, elems, rng);
    c.lda = c.ldb = c.ldc = kN;
    calls.push_back(c);
  };
  if (f32) {
    fill(fbufs_, fcalls_);
  } else {
    fill(dbufs_, dcalls_);
  }
}

// A round of 64 cblas_dgemm calls, 16 per shape class, with seeded
// layout, transposes, alpha and beta, in seeded order. Sizes come from a
// fixed grid per class, jittered by the seed, so the shapes change with
// the seed while the round's flop count barely does.
void Workload::make_mixed(ag::Xoshiro256& rng) {
  constexpr int kPerClass = 16;
  verify_every_ = 8;
  probe_size_ = 256;
  auto add = [&](const char* cls, std::int64_t m, std::int64_t n, std::int64_t k) {
    GemmCall<double> c;
    c.cls = cls;
    c.layout = choose(rng, {Layout::ColMajor, Layout::RowMajor});
    c.trans_a = choose(rng, {Trans::NoTrans, Trans::Trans});
    c.trans_b = choose(rng, {Trans::NoTrans, Trans::Trans});
    c.m = m;
    c.n = n;
    c.k = k;
    c.alpha = choose(rng, {1.0, -1.0, 0.5});
    c.beta = choose(rng, {0.0, 0.5, 1.0});
    auto [lda, na] = dense(c.layout, c.trans_a, m, k);
    auto [ldb, nb] = dense(c.layout, c.trans_b, k, n);
    auto [ldc, nc] = dense(c.layout, Trans::NoTrans, m, n);
    c.a = alloc(dbufs_, na, rng);
    c.b = alloc(dbufs_, nb, rng);
    c.c = alloc(dbufs_, nc, rng);
    c.lda = lda;
    c.ldb = ldb;
    c.ldc = ldc;
    dcalls_.push_back(c);
  };
  auto grid = [](std::int64_t lo, std::int64_t step, int i) { return lo + step * i; };
  // tiny: m*n*k <= 6^3, the no-pack small path.
  for (int i = 0; i < kPerClass; ++i)
    add("tiny", 1 + jitter(rng) + static_cast<std::int64_t>(rng.next_below(3)),
        1 + jitter(rng) + static_cast<std::int64_t>(rng.next_below(3)),
        1 + jitter(rng) + static_cast<std::int64_t>(rng.next_below(3)));
  // small 16-64: the three dimensions walk the grid at fixed offsets.
  for (int i = 0; i < kPerClass; ++i)
    add("small", grid(16, 3, i) + jitter(rng), grid(16, 3, (i + 5) % kPerClass) + jitter(rng),
        grid(16, 3, (i + 11) % kPerClass) + jitter(rng));
  // square 96-384.
  for (int i = 0; i < kPerClass; ++i) {
    const std::int64_t s = grid(96, 19, i);
    add("square", s + jitter(rng), s + jitter(rng), s + jitter(rng));
  }
  // rank-64 updates, m = n = 256-768 (the LU trailing-update shape).
  for (int i = 0; i < kPerClass; ++i)
    add("rank64", grid(256, 32, i) + jitter(rng), grid(256, 32, (i + 8) % kPerClass) + jitter(rng),
        64);
  shuffle(dcalls_, rng);
}

// One armgemm_dgemm_batch of 64 column-major entries in 8 groups of 8
// that share one B operand: six groups of small entries (16-96), two of
// medium ones (128-256).
void Workload::make_batch(ag::Xoshiro256& rng) {
  batch_ = true;
  verify_every_ = 16;
  probe_size_ = 192;
  struct Group {
    const char* cls;
    std::int64_t n, k, m0, mstep;
  };
  std::vector<std::pair<std::int64_t, std::int64_t>> small_nk = {
      {24, 88}, {88, 24}, {40, 72}, {72, 40}, {56, 56}, {48, 64}};
  std::vector<std::pair<std::int64_t, std::int64_t>> medium_nk = {{160, 224}, {224, 160}};
  shuffle(small_nk, rng);
  shuffle(medium_nk, rng);
  // A fixed group order (the pool's load balance depends on it); the
  // seed assigns the (n, k) pairs to groups and jitters every size.
  std::vector<Group> groups;
  for (int g = 0; g < 8; ++g) {
    if (g % 4 == 3) {
      const auto [n, k] = medium_nk[static_cast<std::size_t>(g / 4)];
      groups.push_back({"medium", n, k, 128, 16});
    } else {
      const auto [n, k] = small_nk[static_cast<std::size_t>(g - g / 4)];
      groups.push_back({"small", n, k, 16, 10});
    }
  }
  for (const Group& g : groups) {
    const std::int64_t n = g.n + jitter(rng), k = g.k + jitter(rng);
    const Trans tb = choose(rng, {Trans::NoTrans, Trans::Trans});
    auto [ldb, nb] = dense(Layout::ColMajor, tb, k, n);
    const double* b = alloc(dbufs_, nb, rng);
    for (int e = 0; e < 8; ++e) {
      GemmCall<double> c;
      c.cls = g.cls;
      c.trans_a = choose(rng, {Trans::NoTrans, Trans::Trans});
      c.trans_b = tb;
      c.m = g.m0 + g.mstep * e + jitter(rng);
      c.n = n;
      c.k = k;
      c.alpha = choose(rng, {1.0, -1.0, 0.5});
      c.beta = choose(rng, {0.0, 0.5, 1.0});
      auto [lda, na] = dense(Layout::ColMajor, c.trans_a, c.m, k);
      c.a = alloc(dbufs_, na, rng);
      c.lda = lda;
      c.b = b;
      c.ldb = ldb;
      c.c = alloc(dbufs_, static_cast<std::size_t>(c.m * n), rng);
      c.ldc = c.m;
      dcalls_.push_back(c);
    }
  }
  BatchArgs& ba = batch_args_;
  for (const auto& c : dcalls_) {
    ba.ta.push_back(cblas(c.trans_a));
    ba.tb.push_back(cblas(c.trans_b));
    ba.m.push_back(c.m);
    ba.n.push_back(c.n);
    ba.k.push_back(c.k);
    ba.alpha.push_back(c.alpha);
    ba.beta.push_back(c.beta);
    ba.a.push_back(c.a);
    ba.lda.push_back(c.lda);
    ba.b.push_back(c.b);
    ba.ldb.push_back(c.ldb);
    ba.c.push_back(c.c);
    ba.ldc.push_back(c.ldc);
  }
}

void Workload::run_op(std::int64_t op, double* call_s) {
  if (batch_) {
    Scope span("call", op);
    const double t0 = now();
    BatchArgs& ba = batch_args_;
    armgemm_dgemm_batch(CblasColMajor, ba.ta.data(), ba.tb.data(), ba.m.data(), ba.n.data(),
                        ba.k.data(), ba.alpha.data(), ba.a.data(), ba.lda.data(), ba.b.data(),
                        ba.ldb.data(), ba.beta.data(), ba.c.data(), ba.ldc.data(),
                        static_cast<std::int64_t>(ba.m.size()));
    if (call_s) call_s[0] = now() - t0;
    return;
  }
  std::size_t i = 0;
  for (const auto& c : dcalls_) {
    Scope span("call", op);
    const double t0 = now();
    cblas_dgemm(cblas(c.layout), cblas(c.trans_a), cblas(c.trans_b), static_cast<int>(c.m),
                static_cast<int>(c.n), static_cast<int>(c.k), c.alpha, c.a,
                static_cast<int>(c.lda), c.b, static_cast<int>(c.ldb), c.beta, c.c,
                static_cast<int>(c.ldc));
    if (call_s) call_s[i++] = now() - t0;
  }
  for (const auto& c : fcalls_) {
    Scope span("call", op);
    const double t0 = now();
    cblas_sgemm(cblas(c.layout), cblas(c.trans_a), cblas(c.trans_b), static_cast<int>(c.m),
                static_cast<int>(c.n), static_cast<int>(c.k), c.alpha, c.a,
                static_cast<int>(c.lda), c.b, static_cast<int>(c.ldb), c.beta, c.c,
                static_cast<int>(c.ldc));
    if (call_s) call_s[i++] = now() - t0;
  }
}

void Workload::snapshot(ag::Xoshiro256& rng) {
  dsamples_.resize(dcalls_.size());
  fsamples_.resize(fcalls_.size());
  for (std::size_t i = 0; i < dcalls_.size(); ++i) sample_call(dcalls_[i], &dsamples_[i], rng);
  for (std::size_t i = 0; i < fcalls_.size(); ++i) sample_call(fcalls_[i], &fsamples_[i], rng);
}

int Workload::check(std::string* why) const {
  int failed = 0;
  for (std::size_t i = 0; i < dcalls_.size(); ++i)
    failed += check_call(dcalls_[i], dsamples_[i], why) ? 0 : 1;
  for (std::size_t i = 0; i < fcalls_.size(); ++i)
    failed += check_call(fcalls_[i], fsamples_[i], why) ? 0 : 1;
  return failed;
}

void Workload::corrupt_sampled(std::size_t call, bool nan) {
  if (!dcalls_.empty()) {
    const CallSample<double>& s = dsamples_.at(call);
    double& x = c_at(dcalls_.at(call), s.rows[0], s.cols[0]);
    x = nan ? std::nan("") : x + 1e3;
  } else {
    const CallSample<float>& s = fsamples_.at(call);
    float& x = c_at(fcalls_.at(call), s.rows[0], s.cols[0]);
    x = nan ? std::nanf("") : x + 1e3f;
  }
}

std::vector<std::string> Workload::resolved_configs() const {
  std::map<std::string, int> lines;
  for (const auto& c : dcalls_) ++lines[std::string(c.cls) + ": " + config_line(c)];
  for (const auto& c : fcalls_) ++lines[std::string(c.cls) + ": " + config_line(c)];
  std::vector<std::string> out;
  for (const auto& [line, count] : lines)
    out.push_back(line + " (" + std::to_string(count) + (count == 1 ? " call)" : " calls)"));
  return out;
}

std::string Workload::describe() const {
  std::ostringstream os;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto line = [&](const auto& c) {
    os << c.cls << ' ' << ag::to_string(c.layout) << ' ' << ag::to_string(c.trans_a)
       << ag::to_string(c.trans_b) << ' ' << c.m << 'x' << c.n << 'x' << c.k << " alpha="
       << c.alpha << " beta=" << c.beta << '\n';
  };
  for (const auto& c : dcalls_) line(c);
  for (const auto& c : fcalls_) line(c);
  for (const auto& b : dbufs_) h = fnv1a(h, b.data(), b.size() * sizeof(double));
  for (const auto& b : fbufs_) h = fnv1a(h, b.data(), b.size() * sizeof(float));
  char buf[64];
  std::snprintf(buf, sizeof buf, "inputs fnv1a=%016llx\n", static_cast<unsigned long long>(h));
  os << buf;
  return os.str();
}

}  // namespace perfbench
