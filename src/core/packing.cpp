#include "core/packing.hpp"

#include "common/timer.hpp"
#include "core/packing_impl.hpp"
#include "obs/gemm_stats.hpp"

namespace ag {

const char* packing_isa() { return detail::pack_isa_name(); }

index_t packed_a_size(index_t mc, index_t kc, int mr) {
  return detail::packed_a_size_t<double>(mc, kc, mr);
}

index_t packed_b_size(index_t kc, index_t nc, int nr) {
  return detail::packed_b_size_t<double>(kc, nc, nr);
}

void pack_a_reference(Trans trans, const double* a, index_t lda, index_t row0, index_t col0,
                      index_t mc, index_t kc, int mr, double* dst) {
  detail::pack_a_scalar_t(trans, a, lda, row0, col0, mc, kc, mr, dst);
}

void pack_b_reference(Trans trans, const double* b, index_t ldb, index_t row0, index_t col0,
                      index_t kc, index_t nc, int nr, double* dst) {
  detail::pack_b_slivers_scalar_t(trans, b, ldb, row0, col0, kc, nc, nr, 0,
                                  ceil_div(nc, static_cast<index_t>(nr)), dst);
}

template <typename T>
void pack_a(Trans trans, const T* a, index_t lda, index_t row0, index_t col0, index_t mc,
            index_t kc, int mr, T* dst, obs::ThreadSlot* slot) {
  if (!slot) {
    detail::pack_a_t(trans, a, lda, row0, col0, mc, kc, mr, dst);
    return;
  }
  Timer t;
  detail::pack_a_t(trans, a, lda, row0, col0, mc, kc, mr, dst);
  slot->add_pack_a(
      static_cast<std::uint64_t>(detail::packed_a_size_t<T>(mc, kc, mr)) * sizeof(T),
      t.seconds());
}

template <typename T>
void pack_b_slivers(Trans trans, const T* b, index_t ldb, index_t row0, index_t col0,
                    index_t kc, index_t nc, int nr, index_t sliver_begin, index_t sliver_end,
                    T* dst, obs::ThreadSlot* slot) {
  if (!slot || sliver_begin >= sliver_end) {
    detail::pack_b_slivers_t(trans, b, ldb, row0, col0, kc, nc, nr, sliver_begin, sliver_end,
                             dst);
    return;
  }
  Timer t;
  detail::pack_b_slivers_t(trans, b, ldb, row0, col0, kc, nc, nr, sliver_begin, sliver_end,
                           dst);
  // Every sliver is written nr-wide and kc-deep (edge slivers are padded).
  slot->add_pack_b(
      static_cast<std::uint64_t>((sliver_end - sliver_begin) * nr * kc) * sizeof(T),
      t.seconds());
}

template <typename T>
void pack_b(Trans trans, const T* b, index_t ldb, index_t row0, index_t col0, index_t kc,
            index_t nc, int nr, T* dst, obs::ThreadSlot* slot) {
  pack_b_slivers(trans, b, ldb, row0, col0, kc, nc, nr, 0,
                 ceil_div(nc, static_cast<index_t>(nr)), dst, slot);
}

#define AG_PACKING_INSTANTIATE(T)                                                        \
  template void pack_a(Trans, const T*, index_t, index_t, index_t, index_t, index_t, int, \
                       T*, obs::ThreadSlot*);                                            \
  template void pack_b(Trans, const T*, index_t, index_t, index_t, index_t, index_t, int, \
                       T*, obs::ThreadSlot*);                                            \
  template void pack_b_slivers(Trans, const T*, index_t, index_t, index_t, index_t,       \
                               index_t, int, index_t, index_t, T*, obs::ThreadSlot*);
AG_PACKING_INSTANTIATE(double)
AG_PACKING_INSTANTIATE(float)
#undef AG_PACKING_INSTANTIATE

}  // namespace ag
