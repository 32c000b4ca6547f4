#include "complex_epilogue.hpp"

#include <cmath>
#include <cstddef>

namespace dcmesh::blas::detail {
namespace {

template <typename R>
std::complex<R> multiply(std::complex<R> w, std::complex<R> p,
                         cmul_rounding rounding) {
  const R wr = w.real(), wi = w.imag(), pr = p.real(), pi = p.imag();
  R re, im;
  switch (rounding) {
    case cmul_rounding::unfused:
      re = wr * pr - wi * pi;
      im = wr * pi + wi * pr;
      break;
    case cmul_rounding::fuse_p_re:
      re = std::fma(pr, wr, -(pi * wi));
      im = std::fma(pr, wi, pi * wr);
      break;
    case cmul_rounding::fuse_p_im:
      re = std::fma(-pi, wi, pr * wr);
      im = std::fma(pi, wr, pr * wi);
      break;
    case cmul_rounding::fuse_w_re:
    default:
      re = std::fma(pr, wr, -(pi * wi));
      im = std::fma(pi, wr, pr * wi);
      break;
  }
  if (std::isnan(re) && std::isnan(im)) return w * p;
  return {re, im};
}

}  // namespace

template <typename R>
void combine_planes(blas_int m, blas_int n, std::complex<R> alpha,
                    cmul_rounding alpha_rounding, const R* pr, const R* pi,
                    std::complex<R> beta, cmul_rounding beta_rounding,
                    std::complex<R>* c, blas_int ldc) {
  const std::size_t rows = static_cast<std::size_t>(m);
  const bool overwrite = beta == std::complex<R>(0);
  for (blas_int j = 0; j < n; ++j) {
    const R* pr_col = pr + static_cast<std::size_t>(j) * rows;
    const R* pi_col = pi + static_cast<std::size_t>(j) * rows;
    std::complex<R>* c_col = c + j * ldc;
    for (blas_int i = 0; i < m; ++i) {
      const std::complex<R> scaled =
          multiply(alpha, {pr_col[i], pi_col[i]}, alpha_rounding);
      c_col[i] = overwrite
                     ? scaled
                     : scaled + multiply(beta, c_col[i], beta_rounding);
    }
  }
}

template void combine_planes<float>(blas_int, blas_int, std::complex<float>,
                                    cmul_rounding, const float*,
                                    const float*, std::complex<float>,
                                    cmul_rounding, std::complex<float>*,
                                    blas_int);
template void combine_planes<double>(blas_int, blas_int,
                                     std::complex<double>, cmul_rounding,
                                     const double*, const double*,
                                     std::complex<double>, cmul_rounding,
                                     std::complex<double>*, blas_int);

}  // namespace dcmesh::blas::detail
