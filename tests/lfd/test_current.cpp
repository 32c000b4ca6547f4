// Tests for the average current density observable.

#include "dcmesh/lfd/current.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "dcmesh/common/rng.hpp"
#include "dcmesh/sched/config.hpp"

namespace dcmesh::lfd {
namespace {

using C = std::complex<double>;

/// Normalized plane wave along `axis` with wavenumber index k.
matrix<C> plane_wave(const mesh::grid3d& g, int axis, int k) {
  matrix<C> psi(static_cast<std::size_t>(g.size()), 1);
  const double two_pi = 2.0 * std::numbers::pi;
  const double norm = 1.0 / std::sqrt(g.volume());
  for (std::int64_t iz = 0; iz < g.nz; ++iz) {
    for (std::int64_t iy = 0; iy < g.ny; ++iy) {
      for (std::int64_t ix = 0; ix < g.nx; ++ix) {
        const std::int64_t coord = axis == 0 ? ix : axis == 1 ? iy : iz;
        const std::int64_t n = axis == 0 ? g.nx : axis == 1 ? g.ny : g.nz;
        const double phase = two_pi * k * double(coord) / double(n);
        psi(static_cast<std::size_t>(g.index(ix, iy, iz)), 0) =
            C(std::cos(phase) * norm, std::sin(phase) * norm);
      }
    }
  }
  return psi;
}

TEST(Current, RealStateCarriesNoParamagneticCurrent) {
  const mesh::grid3d g = mesh::grid3d::cubic(8, 1.0);
  matrix<C> psi(static_cast<std::size_t>(g.size()), 1);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    psi.data()[i] = 1.0 / std::sqrt(g.volume());
  }
  const std::vector<double> occ{2.0};
  const double j = current_density<double>(g, mesh::fd_order::fourth, 2,
                                           psi, occ, 0.0, g.dv());
  EXPECT_NEAR(j, 0.0, 1e-12);
}

TEST(Current, PlaneWaveCarriesMomentumCurrent) {
  // j = f * k_discrete / V for one e^{ikz} electron (A = 0).
  const mesh::grid3d g = mesh::grid3d::cubic(10, 0.9);
  const auto psi = plane_wave(g, 2, 1);
  const std::vector<double> occ{1.0};
  const double j = current_density<double>(g, mesh::fd_order::fourth, 2,
                                           psi, occ, 0.0, g.dv());
  // 4th-order discrete momentum for theta = 2 pi/10.
  const double theta = 2.0 * std::numbers::pi / 10.0;
  const double k_disc =
      ((4.0 / 3.0) * std::sin(theta) - (1.0 / 6.0) * std::sin(2 * theta)) /
      g.spacing;
  EXPECT_NEAR(j, k_disc / g.volume(), 1e-10);
}

TEST(Current, DiamagneticTermAddsFieldContribution) {
  const mesh::grid3d g = mesh::grid3d::cubic(8, 1.0);
  matrix<C> psi(static_cast<std::size_t>(g.size()), 1);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    psi.data()[i] = 1.0 / std::sqrt(g.volume());
  }
  const std::vector<double> occ{2.0};
  const double a = 0.15;
  const double j = current_density<double>(g, mesh::fd_order::second, 2,
                                           psi, occ, a, g.dv());
  // j = N_el * A / V with N_el = 2.
  EXPECT_NEAR(j, 2.0 * a / g.volume(), 1e-10);
}

TEST(Current, AxisSelection) {
  // A wave along x produces current along x, none along z.
  const mesh::grid3d g = mesh::grid3d::cubic(8, 1.0);
  const auto psi = plane_wave(g, 0, 1);
  const std::vector<double> occ{1.0};
  const double jx = current_density<double>(g, mesh::fd_order::fourth, 0,
                                            psi, occ, 0.0, g.dv());
  const double jz = current_density<double>(g, mesh::fd_order::fourth, 2,
                                            psi, occ, 0.0, g.dv());
  EXPECT_GT(std::abs(jx), 1e-6);
  EXPECT_NEAR(jz, 0.0, 1e-12);
}

TEST(Current, OccupationWeighting) {
  const mesh::grid3d g = mesh::grid3d::cubic(8, 1.0);
  const auto one = plane_wave(g, 2, 1);
  matrix<C> two(static_cast<std::size_t>(g.size()), 2);
  for (std::size_t i = 0; i < one.size(); ++i) {
    two(i, 0) = one.data()[i];
    two(i, 1) = one.data()[i];
  }
  const std::vector<double> occ1{2.0};
  const std::vector<double> occ2{1.0, 1.0};
  const double j1 = current_density<double>(g, mesh::fd_order::fourth, 2,
                                            one, occ1, 0.0, g.dv());
  const double j2 = current_density<double>(g, mesh::fd_order::fourth, 2,
                                            two, occ2, 0.0, g.dv());
  EXPECT_NEAR(j1, j2, 1e-12);
}

TEST(Current, TeamWidthLeavesTheBitsUnchanged) {
  // Occupied orbitals are team indices; their sums are folded in orbital
  // order afterwards, so every team width gives the single-thread bits.
  const mesh::grid3d g{9, 7, 6, 0.8};
  const std::size_t norb = 11;
  matrix<std::complex<float>> psi(static_cast<std::size_t>(g.size()), norb);
  xoshiro256 rng(17);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    psi.data()[i] = {static_cast<float>(rng.uniform(-1, 1)),
                     static_cast<float>(rng.uniform(-1, 1))};
  }
  std::vector<double> occ(norb, 0.0);
  for (std::size_t j = 0; j < norb; j += 2) occ[j] = 2.0 - 0.1 * double(j);
  const auto run = [&](int width) {
    sched::set_max_threads(width);
    return current_density<float>(g, mesh::fd_order::fourth, 1, psi, occ,
                                  0.07, g.dv());
  };
  const double want = run(1);
  for (const int width : {2, 3, 4}) EXPECT_EQ(run(width), want) << width;
  sched::set_max_threads(0);
}

}  // namespace
}  // namespace dcmesh::lfd
