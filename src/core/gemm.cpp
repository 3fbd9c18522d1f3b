#include "core/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <type_traits>
#include <vector>

#include "blas/reference_gemm.hpp"
#include "common/aligned_buffer.hpp"
#include "common/check.hpp"
#include "common/knobs.hpp"
#include "common/math_util.hpp"
#include "common/timer.hpp"
#include "core/gebp.hpp"
#include "core/gemm_internal.hpp"
#include "core/packing.hpp"
#include "core/schedule.hpp"
#include "core/tuning.hpp"
#include "kernels/sgemm_kernels.hpp"
#include "obs/gemm_stats.hpp"
#include "obs/phase.hpp"
#include "obs/pmu.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "threading/topology.hpp"

namespace ag {

namespace detail {

// Only used when no multiply runs at all (k == 0 or alpha == 0): with the
// beta epilogue fused into the microkernels, the compute paths never make
// a standalone pass over C.
template <typename T>
void scale_panel(T* c, index_t ldc, index_t m, index_t n, T beta) {
  if (beta == T(1)) return;
  for (index_t j = 0; j < n; ++j) {
    T* col = c + j * ldc;
    if (beta == T(0)) {
      std::fill(col, col + m, T(0));
    } else {
      for (index_t i = 0; i < m; ++i) col[i] *= beta;
    }
  }
}

// No-pack nest for small problems: accumulate C directly with an
// axpy-style (j, l, i) loop order. beta is applied per column right
// before that column's accumulation, while its line is hot (beta == 0
// overwrites, so NaN/Inf garbage never propagates). Always serial — at
// these sizes a fork-join costs more than the multiply.
template <typename T>
void gemm_small_nest(Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k, T alpha,
                     const T* a, index_t lda, const T* b, index_t ldb, T beta, T* c,
                     index_t ldc) {
  const bool ta = trans_a != Trans::NoTrans;
  const bool tb = trans_b != Trans::NoTrans;
  for (index_t j = 0; j < n; ++j) {
    T* cj = c + j * ldc;
    if (beta == T(0)) {
      std::fill(cj, cj + m, T(0));
    } else if (beta != T(1)) {
      for (index_t i = 0; i < m; ++i) cj[i] *= beta;
    }
    for (index_t l = 0; l < k; ++l) {
      const T blj = tb ? b[j + l * ldb] : b[l + j * ldb];
      if (blj == T(0)) continue;
      const T scale = alpha * blj;
      if (!ta) {
        const T* al = a + l * lda;
        for (index_t i = 0; i < m; ++i) cj[i] += scale * al[i];
      } else {
        for (index_t i = 0; i < m; ++i) cj[i] += scale * a[l + i * lda];
      }
    }
  }
}

// Serial column-major driver. beta rides into GEBP with the first k-panel
// (kk == 0) of each column panel — the jj -> kk -> ii loop order guarantees
// every C element's first update in its jj panel comes from kk == 0 — and
// later k-panels accumulate with beta == 1.
template <typename T>
void gemm_serial(Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k, T alpha,
                 const T* a, index_t lda, const T* b, index_t ldb, T beta, T* c, index_t ldc,
                 KernelFn<T> kernel, const BlockSizes& bs, GemmScratch& scratch,
                 obs::GemmStats* stats, obs::CallPhases* phases) {
  obs::ThreadSlot* slot = stats ? &stats->slot(0) : nullptr;
  obs::Tracer* tracer = stats ? stats->tracer() : nullptr;
  obs::PmuCollector* pmu = stats ? stats->pmu() : nullptr;

  PackBuffers<T>& buf = scratch.of<T>();
  buf.reserve(static_cast<std::size_t>(
                  packed_b_size(std::min(bs.kc, k), std::min(bs.nc, n), bs.nr)),
              static_cast<std::size_t>(
                  packed_a_size(std::min(bs.mc, m), std::min(bs.kc, k), bs.mr)),
              1, /*double_buffer=*/false);
  T* const packed_a = buf.packed_a[0].data();
  T* const packed_b = buf.packed_b[0].data();

  for (index_t jj = 0; jj < n; jj += bs.nc) {        // layer 1
    const index_t nc = std::min(bs.nc, n - jj);
    const index_t jc = jj / bs.nc;
    for (index_t kk = 0; kk < k; kk += bs.kc) {      // layer 2
      const index_t kc = std::min(bs.kc, k - kk);
      const index_t pc = kk / bs.kc;
      {
        obs::Tracer::Region region(tracer, 0, "pack_b", {-1, jc, pc});
        obs::PmuRegion hw(pmu, 0, obs::PmuLayer::kPackB);
        obs::PhaseScope phase(phases ? phases->slot(obs::Phase::kPackB) : nullptr);
        pack_b(trans_b, b, ldb, kk, jj, kc, nc, bs.nr, packed_b, slot);
      }
      for (index_t ii = 0; ii < m; ii += bs.mc) {    // layer 3
        const index_t mc = std::min(bs.mc, m - ii);
        const index_t ic = ii / bs.mc;
        {
          obs::Tracer::Region region(tracer, 0, "pack_a", {ic, jc, pc});
          obs::PmuRegion hw(pmu, 0, obs::PmuLayer::kPackA);
          obs::PhaseScope phase(phases ? phases->slot(obs::Phase::kPackA) : nullptr);
          pack_a(trans_a, a, lda, ii, kk, mc, kc, bs.mr, packed_a, slot);
        }
        obs::Tracer::Region region(tracer, 0, "gebp", {ic, jc, pc});
        obs::PmuRegion hw(pmu, 0, obs::PmuLayer::kGebp);
        obs::PhaseScope phase(phases ? phases->slot(obs::Phase::kKernel) : nullptr);
        gebp(mc, nc, kc, alpha, packed_a, packed_b, kk == 0 ? beta : T(1),
             c + ii + jj * ldc, ldc, kernel, bs.mr, bs.nr, slot);
      }
    }
  }
}

}  // namespace detail

namespace {

using detail::scale_panel;

// Stats-recording wrapper of the no-pack fast path for small problems
// (m*n*k <= ARMGEMM_SMALL_MNK^3): packing and the blocked loop nest cost
// more than they save when the operands fit in cache.
template <typename T>
void gemm_small(Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k, T alpha,
                const T* a, index_t lda, const T* b, index_t ldb, T beta, T* c, index_t ldc,
                const Context& ctx, obs::CallPhases* phases) {
  obs::GemmStats* stats = ctx.stats();
  obs::ThreadSlot* slot = stats ? &stats->slot(0) : nullptr;
  obs::Tracer::Region region(stats ? stats->tracer() : nullptr, 0, "small_gemm");
  obs::PmuRegion hw(stats ? stats->pmu() : nullptr, 0, obs::PmuLayer::kSmall);
  // The no-pack nest is all compute: the whole call is kernel time.
  obs::PhaseScope phase(phases ? phases->slot(obs::Phase::kKernel) : nullptr);
  Timer t;
  detail::gemm_small_nest(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  if (slot) {
    // One read + one write of C; the operands stream straight from the
    // caller's buffers, so there is no packed traffic to account.
    slot->add_small(t.seconds(), static_cast<std::uint64_t>(2 * m * n) * sizeof(T));
  }
}

// Parallel column-major driver (Figure 9, pipelined): the (jj, kk) loop
// nest is flattened into a sequence of kc x nc panels of B. The shared
// packed-B panel is double-buffered — while ranks compute panel p out of
// buf[p % 2] they first cooperatively pack panel p+1 into the other
// buffer — so only ONE barrier per panel remains on the critical path
// (the classic schedule needed two: packed-before-compute and
// computed-before-repack). Within a panel, layer-3 work is claimed
// dynamically from a per-panel atomic ticket counter over the
// PanelSchedule block grid, which falls back to a 2-D (m x n) split when
// there are fewer mc row blocks than ranks. beta rides into GEBP with the
// pc == 0 panels (the first k-panel of each column panel): panels run in
// sequence with a barrier between them, and each block of a panel is
// claimed by exactly one rank, so every C element sees its pc == 0 update
// first and exactly once. The serial pre-fork sweep over all of C that
// beta used to cost is gone.
//
// On asymmetric (big.LITTLE) hosts with ARMGEMM_WEIGHTED_SCHEDULE on,
// ticket claiming is heterogeneity-weighted: each panel's ticket range is
// apportioned into contiguous per-rank spans sized by relative core-class
// throughput (PanelSchedule::proportional_spans), each rank drains its
// own span through a per-(panel, rank) cursor and steals from other
// spans when it runs dry. The block grid is identical to the unweighted
// schedule and every ticket still runs exactly once (cursors are
// monotone, fetch_add return values unique, a full failed scan proves
// all spans drained), so results stay bitwise identical — only WHO
// computes WHAT first changes. `mc_class` (tune::per_class_mc) lets a
// slow-class rank additionally sub-block its claimed mc rows to its own
// cache-sized mc, again without touching the grid.
template <typename T>
void gemm_parallel(Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k, T alpha,
                   const T* a, index_t lda, const T* b, index_t ldb, T beta, T* c,
                   index_t ldc, const Context& ctx, KernelFn<T> kernel, const BlockSizes& bs,
                   const std::vector<index_t>& mc_class, GemmScratch& scratch,
                   int nthreads, obs::CallPhases* phases) {
  obs::GemmStats* stats = ctx.stats();

  // Per-rank phase partials, cache-line padded so concurrent accumulation
  // never false-shares; merged into *phases after the join.
  struct alignas(64) RankPhases {
    obs::CallPhases ph;
  };
  std::vector<RankPhases> rank_phases(
      phases ? static_cast<std::size_t>(nthreads) : 0);

  struct Panel {
    index_t jj, nc, kk, kc, jc, pc;
  };
  std::vector<Panel> panels;
  std::vector<PanelSchedule> plans;
  for (index_t jj = 0; jj < n; jj += bs.nc) {      // layer 1
    const index_t nc = std::min(bs.nc, n - jj);
    for (index_t kk = 0; kk < k; kk += bs.kc) {    // layer 2
      panels.push_back({jj, nc, kk, std::min(bs.kc, k - kk), jj / bs.nc, kk / bs.kc});
      plans.emplace_back(m, nc, bs.mc, bs.nr, nthreads);
    }
  }
  const index_t npanels = static_cast<index_t>(panels.size());
  std::vector<std::atomic<index_t>> tickets(panels.size());
  for (auto& t : tickets) t.store(0, std::memory_order_relaxed);

  // Heterogeneity-weighted claiming: per-(panel, rank) contiguous ticket
  // spans sized by core-class throughput. Skipped (empty weights) on
  // symmetric hosts, when the knob is off, or when every rank's weight
  // comes out equal — the single shared counter above is cheaper.
  std::vector<double> weights;
  std::vector<index_t> rank_mc;  // per-rank sub-blocking mc (empty: bs.mc)
  if (nthreads > 1 && weighted_schedule_enabled()) {
    const Topology& topo = Topology::get();
    if (topo.asymmetric()) {
      weights = topo.rank_weights(nthreads);
      bool uniform = true;
      for (const double w : weights)
        if (w != weights.front()) {
          uniform = false;
          break;
        }
      if (uniform) weights.clear();
      if (!mc_class.empty()) {
        rank_mc.resize(static_cast<std::size_t>(nthreads), bs.mc);
        for (int r = 0; r < nthreads; ++r) {
          const int cls = topo.class_of_rank(r);
          if (cls >= 0 && cls < static_cast<int>(mc_class.size()))
            rank_mc[static_cast<std::size_t>(r)] =
                std::clamp<index_t>(mc_class[static_cast<std::size_t>(cls)],
                                    bs.mr, bs.mc);
        }
      }
    }
  }
  const bool weighted = !weights.empty();
  std::vector<std::vector<PanelSchedule::TicketSpan>> spans;
  std::vector<std::atomic<index_t>> cursors;  // [panel * nthreads + rank]
  if (weighted) {
    spans.reserve(panels.size());
    cursors = std::vector<std::atomic<index_t>>(panels.size() *
                                                static_cast<std::size_t>(nthreads));
    for (std::size_t p = 0; p < panels.size(); ++p) {
      spans.push_back(
          PanelSchedule::proportional_spans(plans[p].total_blocks(), weights));
      for (int r = 0; r < nthreads; ++r)
        cursors[p * static_cast<std::size_t>(nthreads) + static_cast<std::size_t>(r)]
            .store(spans[p][static_cast<std::size_t>(r)].begin,
                   std::memory_order_relaxed);
    }
  }

  PackBuffers<T>& buf = scratch.of<T>();
  buf.reserve(static_cast<std::size_t>(
                  packed_b_size(std::min(bs.kc, k), std::min(bs.nc, n), bs.nr)),
              static_cast<std::size_t>(
                  packed_a_size(std::min(bs.mc, m), std::min(bs.kc, k), bs.mr)),
              nthreads, /*double_buffer=*/npanels > 1);
  T* const bbuf[2] = {buf.packed_b[0].data(),
                      npanels > 1 ? buf.packed_b[1].data() : buf.packed_b[0].data()};

  Barrier barrier(nthreads);

  ctx.pool().run(
      [&](int rank) {
        obs::ThreadSlot* slot = stats ? &stats->slot(rank) : nullptr;
        obs::Tracer* tracer = stats ? stats->tracer() : nullptr;
        obs::PmuCollector* pmu = stats ? stats->pmu() : nullptr;
        double barrier_wait = 0;
        // Telemetry wants the per-worker wait signal even with no
        // GemmStats collector attached.
        double* const wait_acc =
            (slot || obs::telemetry_active()) ? &barrier_wait : nullptr;
        obs::CallPhases* const my_ph =
            phases ? &rank_phases[static_cast<std::size_t>(rank)].ph : nullptr;
        T* const my_packed_a = buf.packed_a[static_cast<std::size_t>(rank)].data();
        // Sub-blocking granularity for this rank's claimed mc blocks (a
        // LITTLE-class rank re-tiles along m to its own cache-sized mc).
        const index_t my_mc =
            rank_mc.empty() ? bs.mc : rank_mc[static_cast<std::size_t>(rank)];

        const auto pack_panel = [&](index_t p) {
          const Panel& panel = panels[static_cast<std::size_t>(p)];
          const index_t slivers = ceil_div(panel.nc, static_cast<index_t>(bs.nr));
          const Range bp = partition_range(slivers, nthreads, rank, 1);
          obs::Tracer::Region region(tracer, rank, "pack_b", {-1, panel.jc, panel.pc});
          obs::PmuRegion hw(pmu, rank, obs::PmuLayer::kPackB);
          obs::PhaseScope phase(my_ph ? my_ph->slot(obs::Phase::kPackB) : nullptr);
          pack_b_slivers(trans_b, b, ldb, panel.kk, panel.jj, panel.kc, panel.nc, bs.nr,
                         bp.begin, bp.end, bbuf[p & 1], slot);
        };

        // Prologue: panel 0 must be fully packed before anyone computes.
        pack_panel(0);
        {
          obs::PmuRegion hw(pmu, rank, obs::PmuLayer::kBarrier);
          barrier.arrive_and_wait(wait_acc);
        }
        for (index_t p = 0; p < npanels; ++p) {
          // Overlap: pack the next panel before computing this one, so
          // another rank's leftover compute hides our pack time (and
          // vice versa).
          if (p + 1 < npanels) pack_panel(p + 1);

          const Panel& panel = panels[static_cast<std::size_t>(p)];
          const PanelSchedule& plan = plans[static_cast<std::size_t>(p)];
          const T* const panel_b = bbuf[p & 1];
          std::atomic<index_t>& ticket = tickets[static_cast<std::size_t>(p)];

          // Next ticket of panel p for this rank, or -1 when the panel is
          // fully claimed. Unweighted: one shared counter. Weighted: own
          // span first, then steal from the other spans round-robin from
          // rank+1. Cursors are monotone and the load-then-fetch_add race
          // only wastes an increment past `end`, never double-claims.
          const auto claim = [&]() -> index_t {
            if (!weighted)
              return [&] {
                const index_t t = ticket.fetch_add(1, std::memory_order_relaxed);
                return t < plan.total_blocks() ? t : -1;
              }();
            const std::vector<PanelSchedule::TicketSpan>& sp =
                spans[static_cast<std::size_t>(p)];
            std::atomic<index_t>* const cur =
                &cursors[static_cast<std::size_t>(p) *
                         static_cast<std::size_t>(nthreads)];
            {
              const index_t t =
                  cur[rank].fetch_add(1, std::memory_order_relaxed);
              if (t < sp[static_cast<std::size_t>(rank)].end) return t;
            }
            for (int i = 1; i < nthreads; ++i) {
              const int v = (rank + i) % nthreads;
              const index_t end = sp[static_cast<std::size_t>(v)].end;
              if (cur[v].load(std::memory_order_relaxed) >= end) continue;
              const index_t t = cur[v].fetch_add(1, std::memory_order_relaxed);
              if (t < end) return t;
            }
            return -1;
          };

          index_t packed_ii = -1;   // first row held in my_packed_a
          index_t packed_mc = -1;   // rows held in my_packed_a
          for (;;) {
            const index_t t = claim();
            if (t < 0) break;
            const GemmBlock blk = plan.block(t);
            const index_t ic = blk.ii / bs.mc;
            // Per-class re-tiling: a rank whose class mc is smaller than
            // the grid's walks its claimed block in my_mc-row chunks
            // (each an mr multiple, so the kernel strip boundaries — and
            // the results, bitwise — are those of the whole block).
            for (index_t sub = 0; sub < blk.mc; sub += my_mc) {
              const index_t sub_ii = blk.ii + sub;
              const index_t sub_mc = std::min(my_mc, blk.mc - sub);
              if (sub_ii != packed_ii || sub_mc != packed_mc) {
                obs::Tracer::Region region(tracer, rank, "pack_a",
                                           {ic, panel.jc, panel.pc});
                obs::PmuRegion hw(pmu, rank, obs::PmuLayer::kPackA);
                obs::PhaseScope phase(my_ph ? my_ph->slot(obs::Phase::kPackA) : nullptr);
                pack_a(trans_a, a, lda, sub_ii, panel.kk, sub_mc, panel.kc, bs.mr,
                       my_packed_a, slot);
                packed_ii = sub_ii;
                packed_mc = sub_mc;
              }
              obs::Tracer::Region region(tracer, rank, "gebp", {ic, panel.jc, panel.pc});
              obs::PmuRegion hw(pmu, rank, obs::PmuLayer::kGebp);
              obs::PhaseScope phase(my_ph ? my_ph->slot(obs::Phase::kKernel) : nullptr);
              gebp(sub_mc, blk.nb, panel.kc, alpha, my_packed_a,
                   panel_b + blk.sliver0 * panel.kc * bs.nr, panel.pc == 0 ? beta : T(1),
                   c + sub_ii + (panel.jj + blk.jb) * ldc, ldc, kernel, bs.mr, bs.nr, slot);
            }
          }
          // One barrier per panel: it certifies both "panel p fully
          // computed" (its buffer may be repacked two panels on) and
          // "panel p+1 fully packed" (computable next iteration). After
          // the last panel the pool join itself is the sync point.
          if (p + 1 < npanels) {
            obs::PmuRegion hw(pmu, rank, obs::PmuLayer::kBarrier);
            barrier.arrive_and_wait(wait_acc);
          }
        }
        if (slot) slot->add_barrier_wait(barrier_wait);
        if (my_ph) my_ph->add(obs::Phase::kBarrier, barrier_wait);
        if (wait_acc && obs::telemetry_active())
          obs::telemetry_record_barrier_wait(barrier_wait);
      },
      nthreads);

  if (phases) {
    for (const RankPhases& rp : rank_phases) phases->merge(rp.ph);
    phases->workers = nthreads;
  }
}

/// How run_gemm executed one call; feeds the serving-telemetry record.
struct RunInfo {
  obs::ScheduleKind schedule = obs::ScheduleKind::kSerial;
  int threads = 1;
  BlockSizes bs;  // the blocking the call actually ran with
};

template <typename T>
RunInfo run_gemm(Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k, T alpha,
                 const T* a, index_t lda, const T* b, index_t ldb, T beta, T* c, index_t ldc,
                 const Context& ctx, [[maybe_unused]] const BlockPins& pins,
                 obs::CallPhases* phases) {
  RunInfo info;
  info.bs = ctx.block_sizes();
  if (use_small_gemm(m, n, k)) {
    gemm_small(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, ctx, phases);
    info.schedule = obs::ScheduleKind::kSmall;
    return info;
  }
  // Per-call configuration. f64: the context's kernel + blocking, or —
  // for a tunable context — whatever the autotuner resolved for this
  // (precision, shape-class) key. f32: the one f32 kernel family with
  // the call's pins or its key's blocking.
  KernelFn<T> kernel;
  std::vector<index_t> mc_class;
  if constexpr (std::is_same_v<T, double>) {
    ExecConfig cfg = resolve_exec_config(ctx, m, n, k);
    kernel = cfg.kernel->fn;
    info.bs = cfg.bs;
    mc_class = std::move(cfg.mc_class);
  } else {
    kernel = best_smicrokernel().fn;
    info.bs = resolve_sgemm_blocks(ctx, pins, m, n, k);
  }
  const BlockSizes& bs = info.bs;
  int eff = 1;
  if (ctx.threads() > 1 && m > bs.mr) {
    // Clamp the rank count to the parallelism actually available in the
    // widest panel; surplus ranks would only add barrier traffic. One
    // block total means one rank would own all work: run serial.
    const PanelSchedule probe(m, std::min(bs.nc, n), bs.mc, bs.nr, ctx.threads());
    eff = static_cast<int>(
        std::min<index_t>(ctx.threads(), probe.total_blocks()));
  }
  Context::ScratchLease scratch = ctx.acquire_scratch();
  if (eff > 1) {
    gemm_parallel(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, ctx, kernel,
                  bs, mc_class, *scratch, eff, phases);
    info.schedule = obs::ScheduleKind::kParallel;
    info.threads = eff;
    return info;
  }
  detail::gemm_serial(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, kernel,
                      bs, *scratch, ctx.stats(), phases);
  return info;
}

}  // namespace

namespace detail {

template <typename T>
void gemm(Layout layout, Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k,
          T alpha, const T* a, index_t lda, const T* b, index_t ldb, T beta, T* c, index_t ldc,
          const Context& ctx, const BlockPins& pins) {
  validate_gemm_args(layout, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc);
  if (m == 0 || n == 0) return;

  if (layout == Layout::RowMajor) {
    // Row-major C = op(A) op(B) is column-major C^T = op(B)^T op(A)^T.
    // The recursive call performs (and records) the actual work.
    gemm(Layout::ColMajor, trans_b, trans_a, n, m, k, alpha, b, ldb, a, lda, beta, c, ldc, ctx,
         pins);
    return;
  }

  constexpr bool f64 = std::is_same_v<T, double>;
  obs::GemmStats* stats = ctx.stats();
  // The drift detector prices every call against the f64 model, so an
  // f32 call would read as about twice the expected efficiency: serving
  // telemetry records f64 calls only.
  const bool telemetry = f64 && obs::telemetry_active();
  if (stats || telemetry) {
    obs::Tracer::Region region(stats ? stats->tracer() : nullptr, 0, f64 ? "dgemm" : "sgemm");
    obs::PmuRegion hw(stats ? stats->pmu() : nullptr, 0, obs::PmuLayer::kTotal);
    const auto t0 = std::chrono::steady_clock::now();
    const bool computed = k != 0 && alpha != T(0);
    // Stack-owned phase timeline; the drivers accumulate into it only
    // when attribution is on (null slots skip every clock read).
    obs::CallPhases call_phases;
    const bool want_phases = telemetry && obs::telemetry_phases_active();
    RunInfo run;
    if (computed)
      run = run_gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, ctx, pins,
                     want_phases ? &call_phases : nullptr);
    else
      scale_panel(c, ldc, m, n, beta);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    const double flops =
        computed ? 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k)
                 : 0.0;
    if (stats) stats->slot(0).add_call(flops, seconds);
    if (telemetry && computed)
      obs::telemetry_record_call(
          m, n, k, run.threads, run.schedule, seconds, run.bs,
          std::chrono::duration<double>(t1.time_since_epoch()).count(),
          want_phases ? &call_phases : nullptr);
    return;
  }

  if (k == 0 || alpha == T(0)) {
    scale_panel(c, ldc, m, n, beta);
    return;
  }
  run_gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, ctx, pins, nullptr);
}

#define AG_GEMM_INSTANTIATE(T)                                                             \
  template void scale_panel(T*, index_t, index_t, index_t, T);                             \
  template void gemm_small_nest(Trans, Trans, index_t, index_t, index_t, T, const T*,      \
                                index_t, const T*, index_t, T, T*, index_t);               \
  template void gemm_serial(Trans, Trans, index_t, index_t, index_t, T, const T*, index_t, \
                            const T*, index_t, T, T*, index_t, KernelFn<T>,                \
                            const BlockSizes&, GemmScratch&, obs::GemmStats*,              \
                            obs::CallPhases*);                                             \
  template void gemm(Layout, Trans, Trans, index_t, index_t, index_t, T, const T*,         \
                     index_t, const T*, index_t, T, T*, index_t, const Context&,           \
                     const BlockPins&);
AG_GEMM_INSTANTIATE(double)
AG_GEMM_INSTANTIATE(float)
#undef AG_GEMM_INSTANTIATE

}  // namespace detail

void dgemm(Layout layout, Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, double alpha, const double* a, std::int64_t lda, const double* b,
           std::int64_t ldb, double beta, double* c, std::int64_t ldc, const Context& ctx) {
  detail::gemm(layout, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, ctx,
               BlockPins{});
}

}  // namespace ag
