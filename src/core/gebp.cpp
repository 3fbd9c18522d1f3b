#include "core/gebp.hpp"

#include "common/math_util.hpp"
#include "common/timer.hpp"
#include "core/gebp_impl.hpp"
#include "obs/gemm_stats.hpp"

namespace ag {

void gebp(index_t mc, index_t nc, index_t kc, double alpha, const double* packed_a,
          const double* packed_b, double beta, double* c, index_t ldc,
          const Microkernel& kernel) {
  detail::gebp_t<double>(mc, nc, kc, alpha, packed_a, packed_b, beta, c, ldc, kernel.fn,
                         kernel.shape.mr, kernel.shape.nr);
}

template <typename T>
void gebp(index_t mc, index_t nc, index_t kc, T alpha, const T* packed_a, const T* packed_b,
          T beta, T* c, index_t ldc, KernelFn<T> kernel, int mr, int nr,
          obs::ThreadSlot* slot) {
  if (!slot) {
    detail::gebp_t<T>(mc, nc, kc, alpha, packed_a, packed_b, beta, c, ldc, kernel, mr, nr);
    return;
  }
  Timer t;
  detail::gebp_t<T>(mc, nc, kc, alpha, packed_a, packed_b, beta, c, ldc, kernel, mr, nr);
  const std::uint64_t kernels =
      static_cast<std::uint64_t>(ceil_div(mc, static_cast<index_t>(mr))) *
      static_cast<std::uint64_t>(ceil_div(nc, static_cast<index_t>(nr)));
  slot->add_gebp(kernels, static_cast<std::uint64_t>(2 * mc * nc) * sizeof(T), t.seconds());
}

template void gebp(index_t, index_t, index_t, double, const double*, const double*, double,
                   double*, index_t, KernelFn<double>, int, int, obs::ThreadSlot*);
template void gebp(index_t, index_t, index_t, float, const float*, const float*, float,
                   float*, index_t, KernelFn<float>, int, int, obs::ThreadSlot*);

}  // namespace ag
