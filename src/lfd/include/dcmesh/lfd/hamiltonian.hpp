#pragma once
// hamiltonian.hpp — the LFD single-particle Hamiltonian.
//
// H = -1/2 nabla^2 + V_loc(r) - i A(t) d/dz + 1/2 A(t)^2
// (velocity-gauge light coupling in the dipole approximation; z is the
// polarization axis).  Applied column-by-column through the mesh stencils;
// templated over the real scalar so FP32 and FP64 LFD share one
// implementation.  The *nonlocal* part of the potential is handled
// separately by nlp_prop (that is the point of the paper).

#include <complex>
#include <span>
#include <vector>

#include "dcmesh/common/matrix.hpp"
#include "dcmesh/mesh/grid.hpp"
#include "dcmesh/mesh/stencil.hpp"

namespace dcmesh::lfd {

/// Local Hamiltonian on the mesh at a fixed field value A.
template <typename R>
class hamiltonian {
 public:
  hamiltonian(mesh::grid3d grid, mesh::fd_order order,
              std::vector<double> v_loc, int polarization_axis = 2);

  /// Set the instantaneous vector potential magnitude A(t).
  void set_field(double a) noexcept { a_field_ = a; }
  [[nodiscard]] double field() const noexcept { return a_field_; }

  /// Replace the local potential (after ions move).
  void set_potential(std::vector<double> v_loc);

  /// out = H * psi for every column (out is overwritten).
  void apply(const_matrix_view<std::complex<R>> psi,
             matrix_view<std::complex<R>> out) const;

  /// out = (-1/2 nabla^2) * psi only (for the kinetic-energy GEMM).
  void apply_kinetic(const_matrix_view<std::complex<R>> psi,
                     matrix_view<std::complex<R>> out) const;

  /// One column of apply(): out = H * in over grid().size() points.
  /// Columns are independent, so callers may run columns concurrently.
  void apply_column(const std::complex<R>* in, std::complex<R>* out) const;

  /// out = (-1/2 nabla^2 - i A d/dz) * in for one column — the
  /// non-diagonal part of H, used by the Strang propagator (the diagonal
  /// part V + A^2/2 is applied as an exact phase).
  void apply_kinetic_field_column(const std::complex<R>* in,
                                  std::complex<R>* out) const;

  /// Upper bound on ||H|| (stability: dt * bound should stay < ~1 for the
  /// 4th-order Taylor propagator).
  [[nodiscard]] double spectral_bound() const noexcept;

  [[nodiscard]] const mesh::grid3d& grid() const noexcept { return grid_; }
  [[nodiscard]] mesh::fd_order order() const noexcept { return order_; }
  [[nodiscard]] int polarization_axis() const noexcept { return axis_; }
  [[nodiscard]] std::span<const R> potential() const noexcept {
    return {v_.data(), v_.size()};
  }

 private:
  mesh::grid3d grid_;
  mesh::fd_order order_;
  std::vector<R> v_;       ///< Local potential cast to the LFD precision.
  double v_min_ = 0.0, v_max_ = 0.0;
  int axis_;
  double a_field_ = 0.0;
};

}  // namespace dcmesh::lfd
