// Tests for the finite-difference operators: plane waves are
// eigenfunctions of the periodic Laplacian/gradient with known symbols, so
// exact analytic checks are available.  The row/halo sweeps are also
// checked bit for bit against the scalar point-by-point stencil below.

#include "dcmesh/mesh/stencil.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <vector>

#include "dcmesh/common/rng.hpp"
#include "dcmesh/lfd/hamiltonian.hpp"

namespace dcmesh::mesh {
namespace {

using cd = std::complex<double>;

std::vector<cd> plane_wave(const grid3d& g, int kx, int ky, int kz) {
  std::vector<cd> psi(static_cast<std::size_t>(g.size()));
  const double two_pi = 2.0 * std::numbers::pi;
  for (std::int64_t iz = 0; iz < g.nz; ++iz) {
    for (std::int64_t iy = 0; iy < g.ny; ++iy) {
      for (std::int64_t ix = 0; ix < g.nx; ++ix) {
        const double phase = two_pi * (kx * double(ix) / g.nx +
                                       ky * double(iy) / g.ny +
                                       kz * double(iz) / g.nz);
        psi[static_cast<std::size_t>(g.index(ix, iy, iz))] =
            cd(std::cos(phase), std::sin(phase));
      }
    }
  }
  return psi;
}

/// Discrete symbol of (-1/2 d^2/dx^2) for the central-difference stencils,
/// per axis, at angular frequency theta = 2*pi*k/n.
double kinetic_symbol(fd_order order, double theta, double h) {
  if (order == fd_order::second) {
    return 0.5 * (2.0 - 2.0 * std::cos(theta)) / (h * h);
  }
  return 0.5 *
         (5.0 / 2.0 - (8.0 / 3.0) * std::cos(theta) +
          (1.0 / 6.0) * std::cos(2.0 * theta)) /
         (h * h);
}

/// Discrete symbol of d/dx (purely imaginary: i*s).
double gradient_symbol(fd_order order, double theta, double h) {
  if (order == fd_order::second) return std::sin(theta) / h;
  return ((4.0 / 3.0) * std::sin(theta) - (1.0 / 6.0) * std::sin(2.0 * theta)) /
         h;
}

class StencilOrder : public ::testing::TestWithParam<fd_order> {};

TEST_P(StencilOrder, KineticPlaneWaveEigenvalue) {
  const fd_order order = GetParam();
  const grid3d g{12, 10, 8, 0.7};
  const auto psi = plane_wave(g, 2, -1, 3);
  std::vector<cd> out(psi.size(), cd(0));
  add_kinetic<double>(g, order, psi, cd(1), out);

  const double two_pi = 2.0 * std::numbers::pi;
  const double expected =
      kinetic_symbol(order, two_pi * 2 / g.nx, g.spacing) +
      kinetic_symbol(order, two_pi * -1 / g.ny, g.spacing) +
      kinetic_symbol(order, two_pi * 3 / g.nz, g.spacing);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    ASSERT_NEAR(std::abs(out[i] - expected * psi[i]), 0.0, 1e-10) << i;
  }
}

TEST_P(StencilOrder, GradientPlaneWaveEigenvalue) {
  const fd_order order = GetParam();
  const grid3d g{8, 8, 8, 0.5};
  const auto psi = plane_wave(g, 1, 2, 3);
  const double two_pi = 2.0 * std::numbers::pi;
  for (int axis = 0; axis < 3; ++axis) {
    std::vector<cd> out(psi.size(), cd(0));
    add_gradient<double>(g, order, axis, psi, cd(1), out);
    const int k = axis == 0 ? 1 : axis == 1 ? 2 : 3;
    const std::int64_t n = axis == 0 ? g.nx : axis == 1 ? g.ny : g.nz;
    const cd expected =
        cd(0, gradient_symbol(order, two_pi * k / double(n), g.spacing));
    for (std::size_t i = 0; i < psi.size(); ++i) {
      ASSERT_NEAR(std::abs(out[i] - expected * psi[i]), 0.0, 1e-10)
          << "axis=" << axis << " i=" << i;
    }
  }
}

TEST_P(StencilOrder, ConstantFieldHasZeroDerivatives) {
  const fd_order order = GetParam();
  const grid3d g{6, 6, 6, 1.0};
  std::vector<cd> psi(static_cast<std::size_t>(g.size()), cd(2.5, -1.0));
  std::vector<cd> out(psi.size(), cd(0));
  add_kinetic<double>(g, order, psi, cd(1), out);
  for (const cd& v : out) ASSERT_NEAR(std::abs(v), 0.0, 1e-12);
  add_gradient<double>(g, order, 2, psi, cd(1), out);
  for (const cd& v : out) ASSERT_NEAR(std::abs(v), 0.0, 1e-12);
}

TEST_P(StencilOrder, AccumulatesWithCoefficient) {
  const fd_order order = GetParam();
  const grid3d g{4, 4, 4, 1.0};
  const auto psi = plane_wave(g, 1, 0, 0);
  std::vector<cd> out(psi.size(), cd(1.0, 0.0));  // pre-existing content
  add_kinetic<double>(g, order, psi, cd(0), out);  // coeff 0: unchanged
  for (const cd& v : out) ASSERT_EQ(v, cd(1.0, 0.0));
}

INSTANTIATE_TEST_SUITE_P(Orders, StencilOrder,
                         ::testing::Values(fd_order::second,
                                           fd_order::fourth));

TEST(Stencil, FourthOrderMoreAccurateThanSecond) {
  // For a smooth (low-k) mode, compare to the continuum eigenvalue
  // 0.5*|k_cont|^2; 4th order must be closer.
  const grid3d g{32, 32, 32, 0.3};
  const auto psi = plane_wave(g, 1, 1, 1);
  const double two_pi = 2.0 * std::numbers::pi;
  const double k_cont = two_pi / (g.nx * g.spacing);
  const double continuum = 0.5 * 3.0 * k_cont * k_cont;

  for (fd_order order : {fd_order::second, fd_order::fourth}) {
    std::vector<cd> out(psi.size(), cd(0));
    add_kinetic<double>(g, order, psi, cd(1), out);
    const double discrete = (out[0] / psi[0]).real();
    const double err = std::abs(discrete - continuum);
    if (order == fd_order::second) {
      EXPECT_GT(err, 1e-4);
    } else {
      EXPECT_LT(err, 1e-4);
    }
  }
}

TEST(Stencil, SpectralRadiusBoundsActualEigenvalues) {
  const grid3d g{8, 8, 8, 0.6};
  for (fd_order order : {fd_order::second, fd_order::fourth}) {
    const double radius = kinetic_spectral_radius(g, order);
    // The highest mode (Nyquist on each axis) must not exceed the bound.
    const auto psi = plane_wave(g, 4, 4, 4);  // k = n/2 = Nyquist
    std::vector<cd> out(psi.size(), cd(0));
    add_kinetic<double>(g, order, psi, cd(1), out);
    const double eig = (out[0] / psi[0]).real();
    EXPECT_LE(eig, radius * (1.0 + 1e-12));
    EXPECT_GT(eig, 0.5 * radius);  // bound is tight-ish
  }
}

TEST(Stencil, FloatAndDoubleAgree) {
  const grid3d g{6, 6, 6, 0.8};
  const auto psi_d = plane_wave(g, 1, 2, 0);
  std::vector<std::complex<float>> psi_f(psi_d.size());
  for (std::size_t i = 0; i < psi_d.size(); ++i) {
    psi_f[i] = {static_cast<float>(psi_d[i].real()),
                static_cast<float>(psi_d[i].imag())};
  }
  std::vector<cd> out_d(psi_d.size(), cd(0));
  std::vector<std::complex<float>> out_f(psi_f.size(), {0, 0});
  add_kinetic<double>(g, fd_order::fourth, psi_d, cd(1), out_d);
  add_kinetic<float>(g, fd_order::fourth, psi_f, {1, 0}, out_f);
  for (std::size_t i = 0; i < out_d.size(); ++i) {
    ASSERT_NEAR(out_f[i].real(), out_d[i].real(), 2e-4);
    ASSERT_NEAR(out_f[i].imag(), out_d[i].imag(), 2e-4);
  }
}

// --- Bitwise oracle -------------------------------------------------------
//
// The scalar stencil the row/halo sweeps replaced: one point at a time,
// every neighbour wrapped with grid3d::wrap, std::complex arithmetic.  This
// file is compiled with the default contraction setting, as the library
// stencil used to be.

namespace ref {

struct taps {
  int radius;
  std::array<double, 2> off;
  double center;
};

constexpr taps lap_taps(fd_order order) {
  if (order == fd_order::second) return {1, {1.0, 0.0}, -2.0};
  return {2, {4.0 / 3.0, -1.0 / 12.0}, -5.0 / 2.0};
}

constexpr taps grad_taps(fd_order order) {
  if (order == fd_order::second) return {1, {0.5, 0.0}, 0.0};
  return {2, {2.0 / 3.0, -1.0 / 12.0}, 0.0};
}

template <typename R>
void add_kinetic(const grid3d& grid, fd_order order,
                 const std::vector<std::complex<R>>& psi,
                 std::complex<R> coeff, std::vector<std::complex<R>>& out) {
  const taps t = lap_taps(order);
  const double inv_h2 = 1.0 / (grid.spacing * grid.spacing);
  const std::complex<R> w_center =
      coeff * static_cast<R>(-0.5 * 3.0 * t.center * inv_h2);
  std::array<std::complex<R>, 2> w_off;
  for (int d = 1; d <= t.radius; ++d) {
    w_off[static_cast<std::size_t>(d - 1)] =
        coeff *
        static_cast<R>(-0.5 * t.off[static_cast<std::size_t>(d - 1)] * inv_h2);
  }
  const std::int64_t nx = grid.nx, ny = grid.ny, nz = grid.nz;
  const auto at = [&](std::int64_t i) { return psi[static_cast<std::size_t>(i)]; };
  for (std::int64_t iz = 0; iz < nz; ++iz) {
    for (std::int64_t iy = 0; iy < ny; ++iy) {
      const std::int64_t row = grid.index(0, iy, iz);
      for (std::int64_t ix = 0; ix < nx; ++ix) {
        const std::int64_t idx = row + ix;
        std::complex<R> acc = w_center * at(idx);
        for (int d = 1; d <= t.radius; ++d) {
          const auto w = w_off[static_cast<std::size_t>(d - 1)];
          const std::int64_t xm = row + grid3d::wrap(ix - d, nx);
          const std::int64_t xp = row + grid3d::wrap(ix + d, nx);
          const std::int64_t ym = grid.index(0, grid3d::wrap(iy - d, ny), iz) + ix;
          const std::int64_t yp = grid.index(0, grid3d::wrap(iy + d, ny), iz) + ix;
          const std::int64_t zm = grid.index(0, iy, grid3d::wrap(iz - d, nz)) + ix;
          const std::int64_t zp = grid.index(0, iy, grid3d::wrap(iz + d, nz)) + ix;
          acc += w * (at(xm) + at(xp) + at(ym) + at(yp) + at(zm) + at(zp));
        }
        out[static_cast<std::size_t>(idx)] += acc;
      }
    }
  }
}

template <typename R>
void add_gradient(const grid3d& grid, fd_order order, int axis,
                  const std::vector<std::complex<R>>& psi,
                  std::complex<R> coeff, std::vector<std::complex<R>>& out) {
  const taps t = grad_taps(order);
  const double inv_h = 1.0 / grid.spacing;
  const std::int64_t n = axis == 0 ? grid.nx : axis == 1 ? grid.ny : grid.nz;
  const std::int64_t stride =
      axis == 0 ? 1 : axis == 1 ? grid.nx : grid.nx * grid.ny;
  std::array<std::complex<R>, 2> w_off;
  for (int d = 1; d <= t.radius; ++d) {
    w_off[static_cast<std::size_t>(d - 1)] =
        coeff * static_cast<R>(t.off[static_cast<std::size_t>(d - 1)] * inv_h);
  }
  for (std::int64_t idx = 0; idx < grid.size(); ++idx) {
    const std::int64_t coord = (idx / stride) % n;
    std::complex<R> acc{};
    for (int d = 1; d <= t.radius; ++d) {
      const auto w = w_off[static_cast<std::size_t>(d - 1)];
      const std::int64_t cm = grid3d::wrap(coord - d, n);
      const std::int64_t cp = grid3d::wrap(coord + d, n);
      const std::int64_t base = idx - coord * stride;
      acc += w * (psi[static_cast<std::size_t>(base + cp * stride)] -
                  psi[static_cast<std::size_t>(base + cm * stride)]);
    }
    out[static_cast<std::size_t>(idx)] += acc;
  }
}

}  // namespace ref

template <typename R>
std::vector<std::complex<R>> random_field(const grid3d& g, std::uint64_t seed) {
  xoshiro256 rng(seed);
  std::vector<std::complex<R>> v(static_cast<std::size_t>(g.size()));
  for (auto& x : v) {
    x = {static_cast<R>(rng.uniform(-1, 1)), static_cast<R>(rng.uniform(-1, 1))};
  }
  return v;
}

/// A field of zeros with seeded random signs: every stencil term is a
/// signed zero, so the sweeps must reproduce the scalar stencil's sign
/// rules (a gradient accumulator that starts from +0, the operand order of
/// each product) to match it bit for bit.
template <typename R>
std::vector<std::complex<R>> signed_zeros(const grid3d& g, std::uint64_t seed) {
  xoshiro256 rng(seed);
  const auto zero = [&] { return rng.uniform() < 0.5 ? R(0) : -R(0); };
  std::vector<std::complex<R>> v(static_cast<std::size_t>(g.size()));
  for (auto& x : v) x = {zero(), zero()};
  return v;
}

template <typename R>
bool bitwise_equal(const std::vector<std::complex<R>>& a,
                   const std::vector<std::complex<R>>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

/// Non-cubic grids and axes of length 1, 2 and 3, where the 4th-order
/// halo wraps more than once around the box.
const std::vector<grid3d>& oracle_grids() {
  static const std::vector<grid3d> grids = {
      {12, 10, 8, 0.7}, {1, 2, 3, 0.5}, {3, 1, 2, 0.9},
      {2, 3, 1, 1.1},   {5, 2, 7, 0.6}, {1, 1, 1, 1.0}};
  return grids;
}

template <typename R>
class StencilOracle : public ::testing::Test {};
using OracleScalars = ::testing::Types<float, double>;
TYPED_TEST_SUITE(StencilOracle, OracleScalars);

TYPED_TEST(StencilOracle, BitIdenticalToScalarStencil) {
  using R = TypeParam;
  using CR = std::complex<R>;
  const std::array<CR, 3> coeffs = {CR(1), CR(0), CR(0, R(-0.37))};
  const auto compare = [&](const grid3d& g, const std::vector<CR>& psi,
                           const std::vector<CR>& base, const char* field) {
    for (fd_order order : {fd_order::second, fd_order::fourth}) {
      for (const CR& coeff : coeffs) {
        auto want = base, got = base;
        ref::add_kinetic<R>(g, order, psi, coeff, want);
        add_kinetic<R>(g, order, psi, coeff, got);
        EXPECT_TRUE(bitwise_equal(want, got))
            << "kinetic " << g.nx << "x" << g.ny << "x" << g.nz
            << " order=" << static_cast<int>(order) << " coeff=" << coeff
            << " field=" << field;
        for (int axis = 0; axis < 3; ++axis) {
          auto want_g = base, got_g = base;
          ref::add_gradient<R>(g, order, axis, psi, coeff, want_g);
          add_gradient<R>(g, order, axis, psi, coeff, got_g);
          EXPECT_TRUE(bitwise_equal(want_g, got_g))
              << "gradient axis=" << axis << " " << g.nx << "x" << g.ny
              << "x" << g.nz << " order=" << static_cast<int>(order)
              << " coeff=" << coeff << " field=" << field;
        }
      }
    }
  };
  std::uint64_t seed = 100;
  for (const grid3d& g : oracle_grids()) {
    compare(g, random_field<R>(g, seed + 1), random_field<R>(g, seed + 2),
            "random");
    compare(g, signed_zeros<R>(g, seed + 3), signed_zeros<R>(g, seed + 4),
            "signed zeros");
    seed += 4;
  }
}

TYPED_TEST(StencilOracle, GeneralCoefficientWithinTwoUlp) {
  // A coefficient with both components non-zero: the scalar stencil let
  // the compiler fuse one product of each complex multiplication into an
  // FMA, the sweeps round every product, so the two differ by the
  // rounding of products and of the partial sums after them.  Where the
  // sum cancels, that is many ulp of the small result, so the bound is
  // 2 ulp at the magnitude of the largest term the stencil adds up:
  // max|out| + |coeff| * (sum of |tap weights|) * max|psi|.
  using R = TypeParam;
  using CR = std::complex<R>;
  const CR coeff(R(0.3), R(-0.7));
  std::uint64_t seed = 500;
  const auto check = [&](const std::vector<CR>& base,
                         const std::vector<CR>& psi, double taps_sum,
                         const std::vector<CR>& want,
                         const std::vector<CR>& got, const char* what) {
    double max_base = 0.0, max_psi = 0.0;
    for (const CR& v : base) max_base = std::max(max_base, double(std::abs(v)));
    for (const CR& v : psi) max_psi = std::max(max_psi, double(std::abs(v)));
    const auto scale = static_cast<R>(
        max_base + double(std::abs(coeff)) * taps_sum * max_psi);
    const R ulp =
        std::nextafter(scale, std::numeric_limits<R>::infinity()) - scale;
    R worst = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      worst = std::max({worst, std::abs(want[i].real() - got[i].real()),
                        std::abs(want[i].imag() - got[i].imag())});
    }
    EXPECT_LE(worst, 2 * ulp) << what << " (" << worst / ulp << " ulp)";
  };
  for (const grid3d& g : oracle_grids()) {
    const auto psi = random_field<R>(g, ++seed);
    const auto base = random_field<R>(g, ++seed);
    for (fd_order order : {fd_order::second, fd_order::fourth}) {
      const ref::taps lap = ref::lap_taps(order);
      const ref::taps grad = ref::grad_taps(order);
      const double h = g.spacing;
      const double lap_sum =
          0.5 * (3.0 * std::abs(lap.center) +
                 6.0 * (std::abs(lap.off[0]) + std::abs(lap.off[1]))) /
          (h * h);
      const double grad_sum =
          2.0 * (std::abs(grad.off[0]) + std::abs(grad.off[1])) / h;
      auto want = base, got = base;
      ref::add_kinetic<R>(g, order, psi, coeff, want);
      add_kinetic<R>(g, order, psi, coeff, got);
      check(base, psi, lap_sum, want, got, "kinetic");
      for (int axis = 0; axis < 3; ++axis) {
        auto want_g = base, got_g = base;
        ref::add_gradient<R>(g, order, axis, psi, coeff, want_g);
        add_gradient<R>(g, order, axis, psi, coeff, got_g);
        check(base, psi, grad_sum, want_g, got_g, "gradient");
      }
    }
  }
}

TYPED_TEST(StencilOracle, HamiltonianColumnsMatchScalarStencil) {
  // Whole matrices through lfd::hamiltonian (apply is a team region over
  // columns) with a non-zero field, column by column against the scalar
  // stencil applied the way the Hamiltonian composes it.
  using R = TypeParam;
  using CR = std::complex<R>;
  const grid3d g{12, 10, 8, 0.7};
  const std::size_t ngrid = static_cast<std::size_t>(g.size());
  const std::size_t norb = 5;
  xoshiro256 rng(9);
  std::vector<double> v(ngrid);
  for (auto& x : v) x = rng.uniform(-0.5, 0.0);
  for (int axis = 0; axis < 3; ++axis) {
    lfd::hamiltonian<R> h(g, fd_order::fourth, v, axis);
    const double a_field = 0.23;
    h.set_field(a_field);
    matrix<CR> psi(ngrid, norb), out(ngrid, norb), out_kf(ngrid, norb);
    for (std::size_t j = 0; j < norb; ++j) {
      const auto col = random_field<R>(g, 40 + j);
      std::copy(col.begin(), col.end(), psi.data() + j * ngrid);
    }
    h.apply(psi.view(), out.view());
    for (std::size_t j = 0; j < norb; ++j) {
      h.apply_kinetic_field_column(psi.data() + j * ngrid,
                                   out_kf.data() + j * ngrid);
    }

    const R a = static_cast<R>(a_field);
    const R half_a2 = static_cast<R>(0.5 * a_field * a_field);
    const CR grad_coeff{0, -a};
    const std::span<const R> pot = h.potential();
    for (std::size_t j = 0; j < norb; ++j) {
      const std::vector<CR> in(psi.data() + j * ngrid,
                               psi.data() + (j + 1) * ngrid);
      std::vector<CR> want(ngrid), want_kf(ngrid, CR(0));
      for (std::size_t i = 0; i < ngrid; ++i) {
        want[i] = (pot[i] + half_a2) * in[i];
      }
      ref::add_kinetic<R>(g, fd_order::fourth, in, CR(1), want);
      ref::add_gradient<R>(g, fd_order::fourth, axis, in, grad_coeff, want);
      ref::add_kinetic<R>(g, fd_order::fourth, in, CR(1), want_kf);
      ref::add_gradient<R>(g, fd_order::fourth, axis, in, grad_coeff,
                           want_kf);
      EXPECT_EQ(std::memcmp(want.data(), out.data() + j * ngrid,
                            ngrid * sizeof(CR)),
                0)
          << "apply axis=" << axis << " column " << j;
      EXPECT_EQ(std::memcmp(want_kf.data(), out_kf.data() + j * ngrid,
                            ngrid * sizeof(CR)),
                0)
          << "apply_kinetic_field_column axis=" << axis << " column " << j;
    }
  }
}

}  // namespace
}  // namespace dcmesh::mesh
