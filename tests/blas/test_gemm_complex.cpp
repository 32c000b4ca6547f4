// Correctness tests for cgemm/zgemm: all transpose/conjugate combinations,
// complex alpha/beta, and the 3M algorithm vs standard arithmetic.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/gemm_ref.hpp"
#include "dcmesh/common/rng.hpp"

namespace dcmesh::blas {
namespace {

template <typename R>
std::vector<std::complex<R>> random_complex(std::size_t n, unsigned seed) {
  xoshiro256 rng(seed);
  std::vector<std::complex<R>> v(n);
  for (auto& x : v) {
    x = {static_cast<R>(rng.uniform(-1.0, 1.0)),
         static_cast<R>(rng.uniform(-1.0, 1.0))};
  }
  return v;
}

struct cplx_case {
  blas_int m, n, k;
  transpose ta, tb;
};

class ComplexGemm : public ::testing::TestWithParam<cplx_case> {
 protected:
  void SetUp() override { clear_compute_mode(); }
};

TEST_P(ComplexGemm, CgemmMatchesReference) {
  const auto [m, n, k, ta, tb] = GetParam();
  const auto rows_a = ta == transpose::none ? m : k;
  const auto cols_a = ta == transpose::none ? k : m;
  const auto rows_b = tb == transpose::none ? k : n;
  const auto cols_b = tb == transpose::none ? n : k;
  using C = std::complex<float>;

  const auto a = random_complex<float>(rows_a * cols_a, 21);
  const auto b = random_complex<float>(rows_b * cols_b, 22);
  auto c1 = random_complex<float>(m * n, 23);
  auto c2 = c1;
  const C alpha{1.25f, -0.5f}, beta{0.5f, 0.25f};

  cgemm(ta, tb, m, n, k, alpha, a.data(), rows_a, b.data(), rows_b, beta,
        c1.data(), m);
  detail::gemm_ref<C, std::complex<double>>(ta, tb, m, n, k, alpha, a.data(),
                                            rows_a, b.data(), rows_b, beta,
                                            c2.data(), m);
  for (blas_int i = 0; i < m * n; ++i) {
    ASSERT_NEAR(std::abs(c1[i] - c2[i]), 0.0f,
                1e-4f * static_cast<float>(k + 1));
  }
}

TEST_P(ComplexGemm, ZgemmMatchesReference) {
  const auto [m, n, k, ta, tb] = GetParam();
  const auto rows_a = ta == transpose::none ? m : k;
  const auto cols_a = ta == transpose::none ? k : m;
  const auto rows_b = tb == transpose::none ? k : n;
  const auto cols_b = tb == transpose::none ? n : k;
  using Z = std::complex<double>;

  const auto a = random_complex<double>(rows_a * cols_a, 31);
  const auto b = random_complex<double>(rows_b * cols_b, 32);
  auto c1 = random_complex<double>(m * n, 33);
  auto c2 = c1;
  const Z alpha{-0.75, 0.3}, beta{1.0, -1.0};

  zgemm(ta, tb, m, n, k, alpha, a.data(), rows_a, b.data(), rows_b, beta,
        c1.data(), m);
  detail::gemm_ref<Z, Z>(ta, tb, m, n, k, alpha, a.data(), rows_a, b.data(),
                         rows_b, beta, c2.data(), m);
  for (blas_int i = 0; i < m * n; ++i) {
    ASSERT_NEAR(std::abs(c1[i] - c2[i]), 0.0,
                1e-12 * static_cast<double>(k + 1));
  }
}

TEST_P(ComplexGemm, Complex3mMatchesStandardWithinTolerance) {
  // 3M has "accuracy comparable with standard complex arithmetic, but with
  // different numeric cancellation behaviour" (Sec. III-B) — same result
  // up to a modest multiple of FP32 epsilon.
  const auto [m, n, k, ta, tb] = GetParam();
  const auto rows_a = ta == transpose::none ? m : k;
  const auto cols_a = ta == transpose::none ? k : m;
  const auto rows_b = tb == transpose::none ? k : n;
  const auto cols_b = tb == transpose::none ? n : k;
  using C = std::complex<float>;

  const auto a = random_complex<float>(rows_a * cols_a, 41);
  const auto b = random_complex<float>(rows_b * cols_b, 42);
  std::vector<C> c_std(m * n), c_3m(m * n);
  const C alpha{1.0f, 0.0f};

  clear_compute_mode();
  cgemm(ta, tb, m, n, k, alpha, a.data(), rows_a, b.data(), rows_b, C(0),
        c_std.data(), m);
  {
    scoped_compute_mode mode(compute_mode::complex_3m);
    cgemm(ta, tb, m, n, k, alpha, a.data(), rows_a, b.data(), rows_b, C(0),
          c_3m.data(), m);
  }
  for (blas_int i = 0; i < m * n; ++i) {
    ASSERT_NEAR(std::abs(c_std[i] - c_3m[i]), 0.0f,
                2e-4f * static_cast<float>(k + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ComplexGemm,
    ::testing::Values(
        cplx_case{1, 1, 1, transpose::none, transpose::none},
        cplx_case{4, 4, 4, transpose::none, transpose::none},
        cplx_case{7, 9, 11, transpose::none, transpose::none},
        cplx_case{9, 7, 11, transpose::trans, transpose::none},
        cplx_case{9, 7, 11, transpose::conj_trans, transpose::none},
        cplx_case{9, 7, 11, transpose::none, transpose::trans},
        cplx_case{9, 7, 11, transpose::none, transpose::conj_trans},
        cplx_case{6, 6, 8, transpose::conj_trans, transpose::conj_trans},
        cplx_case{6, 6, 8, transpose::trans, transpose::conj_trans},
        cplx_case{5, 70, 260, transpose::none, transpose::none},
        // DCMESH-like: Psi^H Psi overlap shape.
        cplx_case{12, 12, 300, transpose::conj_trans, transpose::none},
        cplx_case{300, 12, 12, transpose::none, transpose::none}));

TEST(ComplexGemmEdge, HermitianOverlapIsHermitian) {
  // G = Psi^H Psi must be Hermitian with real non-negative diagonal.
  using C = std::complex<float>;
  const blas_int ngrid = 200, norb = 8;
  const auto psi = random_complex<float>(ngrid * norb, 55);
  std::vector<C> g(norb * norb);
  clear_compute_mode();
  cgemm(transpose::conj_trans, transpose::none, norb, norb, ngrid, C(1),
        psi.data(), ngrid, psi.data(), ngrid, C(0), g.data(), norb);
  for (blas_int j = 0; j < norb; ++j) {
    EXPECT_NEAR(g[j + j * norb].imag(), 0.0f, 1e-4f);
    EXPECT_GT(g[j + j * norb].real(), 0.0f);
    for (blas_int i = 0; i < norb; ++i) {
      ASSERT_NEAR(std::abs(g[i + j * norb] - std::conj(g[j + i * norb])),
                  0.0f, 1e-3f);
    }
  }
}

TEST(ComplexGemmEdge, Zgemm3mModeApplies) {
  // COMPLEX_3M also covers zgemm (double precision 3M).
  using Z = std::complex<double>;
  const blas_int m = 6, n = 5, k = 40;
  const auto a = random_complex<double>(m * k, 61);
  const auto b = random_complex<double>(k * n, 62);
  std::vector<Z> c_std(m * n), c_3m(m * n);
  clear_compute_mode();
  zgemm(transpose::none, transpose::none, m, n, k, Z(1), a.data(), m,
        b.data(), k, Z(0), c_std.data(), m);
  {
    scoped_compute_mode mode(compute_mode::complex_3m);
    zgemm(transpose::none, transpose::none, m, n, k, Z(1), a.data(), m,
          b.data(), k, Z(0), c_3m.data(), m);
  }
  for (blas_int i = 0; i < m * n; ++i) {
    ASSERT_NEAR(std::abs(c_std[i] - c_3m[i]), 0.0, 1e-12 * (k + 1));
  }
}

TEST(ComplexGemmEdge, SplitModesDoNotApplyToZgemm) {
  // FLOAT_TO_* modes affect single precision only; zgemm must stay exact.
  using Z = std::complex<double>;
  const blas_int m = 5, n = 5, k = 64;
  const auto a = random_complex<double>(m * k, 71);
  const auto b = random_complex<double>(k * n, 72);
  std::vector<Z> c_std(m * n), c_mode(m * n);
  clear_compute_mode();
  zgemm(transpose::none, transpose::none, m, n, k, Z(1), a.data(), m,
        b.data(), k, Z(0), c_std.data(), m);
  {
    scoped_compute_mode mode(compute_mode::float_to_bf16);
    zgemm(transpose::none, transpose::none, m, n, k, Z(1), a.data(), m,
          b.data(), k, Z(0), c_mode.data(), m);
  }
  for (blas_int i = 0; i < m * n; ++i) {
    ASSERT_EQ(c_std[i], c_mode[i]);
  }
}

// The epilogue C <- alpha*P + beta*C rounds each complex product the way
// that path always has (see complex_epilogue.hpp).  With k = 1 and
// B = 1 the plane products P are known exactly, so the expected C can be
// written out here with the same named roundings.
enum class fused { none, p_re, p_im, w_re };

template <typename R>
std::complex<R> product(std::complex<R> w, std::complex<R> p, fused f) {
  const R wr = w.real(), wi = w.imag(), pr = p.real(), pi = p.imag();
  switch (f) {
    case fused::none:
      return {wr * pr - wi * pi, wr * pi + wi * pr};
    case fused::p_re:
      return {std::fma(pr, wr, -(pi * wi)), std::fma(pr, wi, pi * wr)};
    case fused::p_im:
      return {std::fma(-pi, wi, pr * wr), std::fma(pi, wr, pr * wi)};
    case fused::w_re:
    default:
      return {std::fma(pr, wr, -(pi * wi)), std::fma(pi, wr, pr * wi)};
  }
}

template <typename R, typename Gemm>
void expect_epilogue(Gemm gemm, compute_mode mode, fused alpha_f,
                     fused beta_f) {
  using C = std::complex<R>;
  const blas_int m = 257;
  const auto a = random_complex<R>(m, 71);
  const auto c0 = random_complex<R>(m, 72);
  const C b(1, 0);
  for (const bool overwrite : {true, false}) {
    const C alpha(R(0.3), R(-0.7));
    const C beta = overwrite ? C(0) : C(R(-0.45), R(0.65));
    std::vector<C> c = c0;
    {
      scoped_compute_mode scope(mode);
      gemm(transpose::none, transpose::none, m, 1, 1, alpha, a.data(), m, &b,
           1, beta, c.data(), m);
    }
    std::vector<C> want(static_cast<std::size_t>(m));
    for (std::size_t i = 0; i < want.size(); ++i) {
      // 4M: Pr = ar*1 - ai*0 and Pi = ar*0 + ai*1 are exact.  3M: P1 = ar,
      // P2 = 0, P3 = (ar + ai)*1, so Pi = (P3 - P1) - P2.
      const R ar = a[i].real(), ai = a[i].imag();
      const C p = mode == compute_mode::complex_3m ? C(ar, (ar + ai) - ar)
                                                   : C(ar, ai);
      want[i] = product(alpha, p, alpha_f);
      if (!overwrite) want[i] += product(beta, c0[i], beta_f);
    }
    EXPECT_EQ(std::memcmp(want.data(), c.data(), want.size() * sizeof(C)), 0)
        << "mode " << static_cast<int>(mode) << " beta " << beta;
  }
}

TEST(ComplexGemmEdge, EpilogueKeepsEachPathsRounding) {
  clear_compute_mode();
  expect_epilogue<float>(cgemm, compute_mode::standard, fused::none,
                         fused::none);
  expect_epilogue<double>(zgemm, compute_mode::standard, fused::p_re,
                          fused::p_re);
  expect_epilogue<float>(cgemm, compute_mode::complex_3m, fused::p_im,
                         fused::w_re);
  expect_epilogue<double>(zgemm, compute_mode::complex_3m, fused::p_im,
                          fused::w_re);
}

}  // namespace
}  // namespace dcmesh::blas
