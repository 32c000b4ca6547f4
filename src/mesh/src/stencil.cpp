#include "dcmesh/mesh/stencil.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

// This translation unit is compiled with -ffp-contract=off (see
// src/mesh/CMakeLists.txt): every product below is rounded before it is
// added, so the component-wise weights round exactly as an unfused
// std::complex multiplication does.  The sweeps read only psi and write
// only out, which do not overlap (hence the __restrict qualifiers).

namespace dcmesh::mesh {
namespace {

// Central-difference coefficients.
// 2nd order Laplacian: (1, -2, 1) / h^2 per axis.
// 4th order Laplacian: (-1/12, 4/3, -5/2, 4/3, -1/12) / h^2 per axis.
// 2nd order gradient:  (-1/2, 0, 1/2) / h.
// 4th order gradient:  (1/12, -2/3, 0, 2/3, -1/12) / h.

struct stencil_taps {
  int radius;
  std::array<double, 2> off;  ///< off[d-1] = coefficient at distance d.
  double center;
};

constexpr stencil_taps lap_taps(fd_order order) noexcept {
  if (order == fd_order::second) return {1, {1.0, 0.0}, -2.0};
  return {2, {4.0 / 3.0, -1.0 / 12.0}, -5.0 / 2.0};
}

constexpr stencil_taps grad_taps(fd_order order) noexcept {
  if (order == fd_order::second) return {1, {0.5, 0.0}, 0.0};
  return {2, {2.0 / 3.0, -1.0 / 12.0}, 0.0};
}

/// A complex tap weight as its two real components.
template <typename R>
struct weight {
  R re;
  R im;
};

template <typename R>
weight<R> components(std::complex<R> w) noexcept {
  return {w.real(), w.imag()};
}

/// Periodic coordinates of one axis with a halo: at(c) = wrap(c, n) for c
/// in [-radius, n + radius).  Built once per sweep, so the sweeps
/// themselves never divide.
class wrapped_axis {
 public:
  wrapped_axis(std::int64_t n, int radius)
      : n_(n), radius_(radius),
        coords_(static_cast<std::size_t>(n + 2 * radius)) {
    for (std::int64_t c = -radius; c < n + radius; ++c) {
      coords_[static_cast<std::size_t>(c + radius)] = grid3d::wrap(c, n);
    }
  }
  [[nodiscard]] std::int64_t at(std::int64_t c) const noexcept {
    return coords_[static_cast<std::size_t>(c + radius_)];
  }
  [[nodiscard]] std::int64_t size() const noexcept { return n_; }
  [[nodiscard]] int radius() const noexcept { return radius_; }

 private:
  std::int64_t n_;
  int radius_;
  std::vector<std::int64_t> coords_;
};

/// A column viewed as interleaved re/im lanes, x-rows addressed by (iy, iz).
template <typename R>
struct lanes {
  const grid3d& grid;
  const R* data;
  [[nodiscard]] const R* row(std::int64_t iy, std::int64_t iz) const {
    return data + 2 * grid.index(0, iy, iz);
  }
};

/// One x-row with `radius` wrapped points on each side, so that x
/// neighbours are plain offsets: lane pair ix + radius holds point ix.
template <typename R>
class halo_row {
 public:
  explicit halo_row(const wrapped_axis& x)
      : x_(x), nx_(x.size()), radius_(x.radius()),
        lanes_(static_cast<std::size_t>(2 * (nx_ + 2 * radius_))) {}

  void load(const R* row) {
    std::copy_n(row, 2 * nx_, lanes_.data() + 2 * radius_);
    for (std::int64_t k = 1; k <= radius_; ++k) {
      copy_point(row, -k);
      copy_point(row, nx_ - 1 + k);
    }
  }
  /// Lanes of the row shifted by `offset` points: [2*ix] is point ix+offset.
  [[nodiscard]] const R* shifted(int offset) const noexcept {
    return lanes_.data() + 2 * (radius_ + offset);
  }

 private:
  void copy_point(const R* row, std::int64_t ix) {
    const R* src = row + 2 * x_.at(ix);
    R* dst = lanes_.data() + 2 * (ix + radius_);
    dst[0] = src[0];
    dst[1] = src[1];
  }

  const wrapped_axis& x_;
  std::int64_t nx_;
  int radius_;
  std::vector<R> lanes_;
};

/// out[ix] += wc*c[ix] + sum_d w[d]*(xm+xp+ym+yp+zm+zp)_d[ix] over one
/// row: the summation order of the scalar stencil, each complex product
/// written out as re = w.re*s.re - w.im*s.im, im = w.re*s.im + w.im*s.re.
/// nb[d] holds the six neighbour rows at distance d+1 in that order.
template <typename R, int Radius>
void kinetic_row(std::int64_t nx, const R* __restrict c,
                 const std::array<std::array<const R*, 6>, Radius>& nb,
                 weight<R> wc, const std::array<weight<R>, 2>& w,
                 R* __restrict out) {
  const R* __restrict n1[6] = {nb[0][0], nb[0][1], nb[0][2],
                               nb[0][3], nb[0][4], nb[0][5]};
  const R* __restrict n2[6] = {nb[Radius - 1][0], nb[Radius - 1][1],
                               nb[Radius - 1][2], nb[Radius - 1][3],
                               nb[Radius - 1][4], nb[Radius - 1][5]};
  const weight<R> w1 = w[0], w2 = w[1];
  for (std::int64_t i = 0; i < 2 * nx; i += 2) {
    const R c_re = c[i], c_im = c[i + 1];
    R acc_re = wc.re * c_re - wc.im * c_im;
    R acc_im = wc.re * c_im + wc.im * c_re;
    {
      const R s_re = n1[0][i] + n1[1][i] + n1[2][i] + n1[3][i] + n1[4][i] +
                     n1[5][i];
      const R s_im = n1[0][i + 1] + n1[1][i + 1] + n1[2][i + 1] +
                     n1[3][i + 1] + n1[4][i + 1] + n1[5][i + 1];
      acc_re += w1.re * s_re - w1.im * s_im;
      acc_im += w1.re * s_im + w1.im * s_re;
    }
    if constexpr (Radius == 2) {
      const R s_re = n2[0][i] + n2[1][i] + n2[2][i] + n2[3][i] + n2[4][i] +
                     n2[5][i];
      const R s_im = n2[0][i + 1] + n2[1][i + 1] + n2[2][i + 1] +
                     n2[3][i + 1] + n2[4][i + 1] + n2[5][i + 1];
      acc_re += w2.re * s_re - w2.im * s_im;
      acc_im += w2.re * s_im + w2.im * s_re;
    }
    out[i] += acc_re;
    out[i + 1] += acc_im;
  }
}

/// out[ix] += sum_d w[d]*(p_d[ix] - m_d[ix]) over one row, starting from a
/// zero accumulator as the scalar stencil does.
template <typename R, int Radius>
void gradient_row(std::int64_t nx, const std::array<const R*, Radius>& m,
                  const std::array<const R*, Radius>& p,
                  const std::array<weight<R>, 2>& w, R* __restrict out) {
  const R* __restrict m1 = m[0];
  const R* __restrict p1 = p[0];
  const R* __restrict m2 = m[Radius - 1];
  const R* __restrict p2 = p[Radius - 1];
  const weight<R> w1 = w[0], w2 = w[1];
  for (std::int64_t i = 0; i < 2 * nx; i += 2) {
    R acc_re = R(0), acc_im = R(0);
    {
      const R s_re = p1[i] - m1[i];
      const R s_im = p1[i + 1] - m1[i + 1];
      acc_re += w1.re * s_re - w1.im * s_im;
      acc_im += w1.re * s_im + w1.im * s_re;
    }
    if constexpr (Radius == 2) {
      const R s_re = p2[i] - m2[i];
      const R s_im = p2[i + 1] - m2[i + 1];
      acc_re += w2.re * s_re - w2.im * s_im;
      acc_im += w2.re * s_im + w2.im * s_re;
    }
    out[i] += acc_re;
    out[i + 1] += acc_im;
  }
}

template <typename R, int Radius>
void kinetic_sweep(const grid3d& grid, const R* psi, weight<R> wc,
                   const std::array<weight<R>, 2>& w, R* out) {
  const wrapped_axis x(grid.nx, Radius), y(grid.ny, Radius),
      z(grid.nz, Radius);
  const lanes<R> in{grid, psi};
  halo_row<R> halo(x);
  std::array<std::array<const R*, 6>, Radius> nb;
  for (std::int64_t iz = 0; iz < grid.nz; ++iz) {
    for (std::int64_t iy = 0; iy < grid.ny; ++iy) {
      const R* centre = in.row(iy, iz);
      halo.load(centre);
      for (int d = 1; d <= Radius; ++d) {
        nb[static_cast<std::size_t>(d - 1)] = {
            halo.shifted(-d),           halo.shifted(d),
            in.row(y.at(iy - d), iz),   in.row(y.at(iy + d), iz),
            in.row(iy, z.at(iz - d)),   in.row(iy, z.at(iz + d))};
      }
      kinetic_row<R, Radius>(grid.nx, centre, nb, wc, w,
                             out + 2 * grid.index(0, iy, iz));
    }
  }
}

template <typename R, int Radius>
void gradient_sweep(const grid3d& grid, int axis, const R* psi,
                    const std::array<weight<R>, 2>& w, R* out) {
  const wrapped_axis x(grid.nx, Radius), y(grid.ny, Radius),
      z(grid.nz, Radius);
  const lanes<R> in{grid, psi};
  halo_row<R> halo(x);  // loaded only along x
  std::array<const R*, Radius> m, p;
  for (std::int64_t iz = 0; iz < grid.nz; ++iz) {
    for (std::int64_t iy = 0; iy < grid.ny; ++iy) {
      if (axis == 0) halo.load(in.row(iy, iz));
      for (int d = 1; d <= Radius; ++d) {
        const auto k = static_cast<std::size_t>(d - 1);
        switch (axis) {
          case 0:
            m[k] = halo.shifted(-d);
            p[k] = halo.shifted(d);
            break;
          case 1:
            m[k] = in.row(y.at(iy - d), iz);
            p[k] = in.row(y.at(iy + d), iz);
            break;
          default:
            m[k] = in.row(iy, z.at(iz - d));
            p[k] = in.row(iy, z.at(iz + d));
            break;
        }
      }
      gradient_row<R, Radius>(grid.nx, m, p, w,
                              out + 2 * grid.index(0, iy, iz));
    }
  }
}

template <typename R>
const R* as_lanes(std::span<const std::complex<R>> v) noexcept {
  return reinterpret_cast<const R*>(v.data());
}

template <typename R>
R* as_lanes(std::span<std::complex<R>> v) noexcept {
  return reinterpret_cast<R*>(v.data());
}

}  // namespace

template <typename R>
void add_kinetic(const grid3d& grid, fd_order order,
                 std::span<const std::complex<R>> psi, std::complex<R> coeff,
                 std::span<std::complex<R>> out) {
  const stencil_taps taps = lap_taps(order);
  const double inv_h2 = 1.0 / (grid.spacing * grid.spacing);
  // -1/2 nabla^2 folded into the tap weights.
  const std::complex<R> w_center =
      coeff * static_cast<R>(-0.5 * 3.0 * taps.center * inv_h2);
  std::array<weight<R>, 2> w_off{};
  for (int d = 1; d <= taps.radius; ++d) {
    w_off[static_cast<std::size_t>(d - 1)] = components(
        coeff * static_cast<R>(-0.5 * taps.off[static_cast<std::size_t>(d - 1)] *
                               inv_h2));
  }
  if (taps.radius == 1) {
    kinetic_sweep<R, 1>(grid, as_lanes(psi), components(w_center), w_off,
                        as_lanes(out));
  } else {
    kinetic_sweep<R, 2>(grid, as_lanes(psi), components(w_center), w_off,
                        as_lanes(out));
  }
}

template <typename R>
void add_gradient(const grid3d& grid, fd_order order, int axis,
                  std::span<const std::complex<R>> psi, std::complex<R> coeff,
                  std::span<std::complex<R>> out) {
  const stencil_taps taps = grad_taps(order);
  const double inv_h = 1.0 / grid.spacing;
  std::array<weight<R>, 2> w_off{};
  for (int d = 1; d <= taps.radius; ++d) {
    w_off[static_cast<std::size_t>(d - 1)] = components(
        coeff *
        static_cast<R>(taps.off[static_cast<std::size_t>(d - 1)] * inv_h));
  }
  if (taps.radius == 1) {
    gradient_sweep<R, 1>(grid, axis, as_lanes(psi), w_off, as_lanes(out));
  } else {
    gradient_sweep<R, 2>(grid, axis, as_lanes(psi), w_off, as_lanes(out));
  }
}

double kinetic_spectral_radius(const grid3d& grid, fd_order order) noexcept {
  // Max over the axis of the 1-D symbol; for a cubic grid all axes equal.
  // 2nd order: max of (2 - 2cos(k)) = 4; 4th order: 16/3 at k = pi
  // (coefficients -1/12, 4/3, -5/2: symbol 5/2 + ... evaluates to 16/3).
  const double axis_max = order == fd_order::second ? 4.0 : 16.0 / 3.0;
  const double inv_h2 = 1.0 / (grid.spacing * grid.spacing);
  return 0.5 * 3.0 * axis_max * inv_h2;
}

template void add_kinetic<float>(const grid3d&, fd_order,
                                 std::span<const std::complex<float>>,
                                 std::complex<float>,
                                 std::span<std::complex<float>>);
template void add_kinetic<double>(const grid3d&, fd_order,
                                  std::span<const std::complex<double>>,
                                  std::complex<double>,
                                  std::span<std::complex<double>>);
template void add_gradient<float>(const grid3d&, fd_order, int,
                                  std::span<const std::complex<float>>,
                                  std::complex<float>,
                                  std::span<std::complex<float>>);
template void add_gradient<double>(const grid3d&, fd_order, int,
                                   std::span<const std::complex<double>>,
                                   std::complex<double>,
                                   std::span<std::complex<double>>);

}  // namespace dcmesh::mesh
