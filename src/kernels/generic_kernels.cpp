#include "kernels/generic_kernels.hpp"

namespace ag {

template void generic_microkernel<8, 6>(index_t, double, const double*, const double*, double,
                                        double*, index_t);
template void generic_microkernel<8, 4>(index_t, double, const double*, const double*, double,
                                        double*, index_t);
template void generic_microkernel<4, 4>(index_t, double, const double*, const double*, double,
                                        double*, index_t);
template void generic_microkernel<5, 5>(index_t, double, const double*, const double*, double,
                                        double*, index_t);
template void generic_microkernel<6, 8>(index_t, double, const double*, const double*, double,
                                        double*, index_t);
template void generic_microkernel<12, 4>(index_t, double, const double*, const double*, double,
                                         double*, index_t);
template void generic_microkernel<2, 2>(index_t, double, const double*, const double*, double,
                                        double*, index_t);
template void generic_microkernel<1, 1>(index_t, double, const double*, const double*, double,
                                        double*, index_t);
template void generic_microkernel<24, 8>(index_t, double, const double*, const double*, double,
                                         double*, index_t);

}  // namespace ag
