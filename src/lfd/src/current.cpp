#include "dcmesh/lfd/current.hpp"

#include <algorithm>
#include <vector>

#include "dcmesh/sched/config.hpp"

namespace dcmesh::lfd {

template <typename R>
double current_density(const mesh::grid3d& grid, mesh::fd_order order,
                       int axis, const matrix<std::complex<R>>& psi,
                       std::span<const double> occ, double a, double dv) {
  using C = std::complex<R>;
  const std::size_t ngrid = psi.rows();
  const std::size_t norb = psi.cols();

  std::vector<std::size_t> occupied;
  for (std::size_t j = 0; j < norb; ++j) {
    if (occ[j] != 0.0) occupied.push_back(j);
  }
  // Each occupied orbital's mesh sums are one team index; each seat
  // differentiates into its own slice of the calling thread's grow-only
  // scratch, so a warm caller allocates no gradient buffer.
  struct partial {
    double im_sum = 0.0;
    double norm2 = 0.0;
  };
  std::vector<partial> partials(norb);
  const auto count = static_cast<long>(occupied.size());
  const int slots = sched::team_size(count);
  thread_local std::vector<C> caller_scratch;
  if (caller_scratch.size() < static_cast<std::size_t>(slots) * ngrid) {
    caller_scratch.resize(static_cast<std::size_t>(slots) * ngrid);
  }
  // Taken here: inside the body the thread_local name would resolve to
  // the helper's own (empty) instance.
  C* const scratch = caller_scratch.data();
  sched::team_parallel_for_seats(count, slots, [&](long k, int seat) {
    const std::size_t j = occupied[static_cast<std::size_t>(k)];
    const C* col = psi.data() + j * ngrid;
    C* grad = scratch + static_cast<std::size_t>(seat) * ngrid;
    std::fill_n(grad, ngrid, C(0));
    mesh::add_gradient<R>(grid, order, axis, {col, ngrid}, C(1),
                          {grad, ngrid});
    double im_sum = 0.0;
    double norm2 = 0.0;
    for (std::size_t g = 0; g < ngrid; ++g) {
      // Im(conj(psi) * dpsi)
      im_sum += static_cast<double>(col[g].real()) * grad[g].imag() -
                static_cast<double>(col[g].imag()) * grad[g].real();
      norm2 += static_cast<double>(col[g].real()) * col[g].real() +
               static_cast<double>(col[g].imag()) * col[g].imag();
    }
    partials[j] = {im_sum, norm2};
  });

  // Fold in ascending orbital order with the serial loop's exact shape:
  // a branch-free loop over the occupied list gets vectorized, and its
  // products then stop being fused into the sums (the javg bits change).
  double paramagnetic = 0.0;
  double electrons = 0.0;
  for (std::size_t j = 0; j < norb; ++j) {
    if (occ[j] == 0.0) continue;
    paramagnetic += occ[j] * partials[j].im_sum * dv;
    electrons += occ[j] * partials[j].norm2 * dv;
  }
  const double volume = grid.volume();
  return (paramagnetic + electrons * a) / volume;
}

template double current_density<float>(const mesh::grid3d&, mesh::fd_order,
                                       int, const matrix<std::complex<float>>&,
                                       std::span<const double>, double,
                                       double);
template double current_density<double>(const mesh::grid3d&, mesh::fd_order,
                                        int,
                                        const matrix<std::complex<double>>&,
                                        std::span<const double>, double,
                                        double);

}  // namespace dcmesh::lfd
