#include "dcmesh/lfd/hamiltonian.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dcmesh/sched/config.hpp"

namespace dcmesh::lfd {

template <typename R>
hamiltonian<R>::hamiltonian(mesh::grid3d grid, mesh::fd_order order,
                            std::vector<double> v_loc, int polarization_axis)
    : grid_(grid), order_(order), axis_(polarization_axis) {
  if (static_cast<std::int64_t>(v_loc.size()) != grid.size()) {
    throw std::invalid_argument("hamiltonian: potential size != grid size");
  }
  if (axis_ < 0 || axis_ > 2) {
    throw std::invalid_argument("hamiltonian: bad polarization axis");
  }
  set_potential(std::move(v_loc));
}

template <typename R>
void hamiltonian<R>::set_potential(std::vector<double> v_loc) {
  if (static_cast<std::int64_t>(v_loc.size()) != grid_.size()) {
    throw std::invalid_argument("hamiltonian: potential size != grid size");
  }
  v_.resize(v_loc.size());
  v_min_ = v_max_ = v_loc.empty() ? 0.0 : v_loc[0];
  for (std::size_t i = 0; i < v_loc.size(); ++i) {
    v_[i] = static_cast<R>(v_loc[i]);
    v_min_ = std::min(v_min_, v_loc[i]);
    v_max_ = std::max(v_max_, v_loc[i]);
  }
}

template <typename R>
void hamiltonian<R>::apply_column(const std::complex<R>* in,
                                  std::complex<R>* out) const {
  using C = std::complex<R>;
  const auto ngrid = static_cast<std::size_t>(grid_.size());
  const R a = static_cast<R>(a_field_);
  const R half_a2 = static_cast<R>(0.5 * a_field_ * a_field_);
  // Local potential + diamagnetic term first (overwrites out).
  for (std::size_t g = 0; g < ngrid; ++g) {
    out[g] = (v_[g] + half_a2) * in[g];
  }
  mesh::add_kinetic<R>(grid_, order_, {in, ngrid}, C(1), {out, ngrid});
  if (a != R(0)) {
    mesh::add_gradient<R>(grid_, order_, axis_, {in, ngrid}, C{0, -a},
                          {out, ngrid});  // -i A d/dz
  }
}

template <typename R>
void hamiltonian<R>::apply_kinetic_field_column(const std::complex<R>* in,
                                                std::complex<R>* out) const {
  using C = std::complex<R>;
  const auto ngrid = static_cast<std::size_t>(grid_.size());
  const R a = static_cast<R>(a_field_);
  std::fill_n(out, ngrid, C(0));
  mesh::add_kinetic<R>(grid_, order_, {in, ngrid}, C(1), {out, ngrid});
  if (a != R(0)) {
    mesh::add_gradient<R>(grid_, order_, axis_, {in, ngrid}, C{0, -a},
                          {out, ngrid});
  }
}

// The matrix forms are team regions on the sched pool, one column per
// index.

template <typename R>
void hamiltonian<R>::apply(const_matrix_view<std::complex<R>> psi,
                           matrix_view<std::complex<R>> out) const {
  sched::team_parallel_for(
      static_cast<long>(psi.cols), /*dynamic_chunks=*/false, [&](long j) {
        apply_column(psi.col(static_cast<std::size_t>(j)),
                     out.col(static_cast<std::size_t>(j)));
      });
}

template <typename R>
void hamiltonian<R>::apply_kinetic(const_matrix_view<std::complex<R>> psi,
                                   matrix_view<std::complex<R>> out) const {
  using C = std::complex<R>;
  const std::size_t ngrid = psi.rows;
  sched::team_parallel_for(
      static_cast<long>(psi.cols), /*dynamic_chunks=*/false, [&](long j) {
        const C* in_col = psi.col(static_cast<std::size_t>(j));
        C* out_col = out.col(static_cast<std::size_t>(j));
        std::fill_n(out_col, ngrid, C(0));
        mesh::add_kinetic<R>(grid_, order_, {in_col, ngrid}, C(1),
                             {out_col, ngrid});
      });
}

template <typename R>
double hamiltonian<R>::spectral_bound() const noexcept {
  const double kinetic = mesh::kinetic_spectral_radius(grid_, order_);
  const double field = std::abs(a_field_);
  // |A p| <= A * pi/h per axis (discrete gradient bound), plus A^2/2.
  const double field_term =
      field * 3.141592653589793 / grid_.spacing + 0.5 * field * field;
  return kinetic + std::max(std::abs(v_min_), std::abs(v_max_)) + field_term;
}

template class hamiltonian<float>;
template class hamiltonian<double>;

}  // namespace dcmesh::lfd
