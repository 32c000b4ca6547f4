#pragma once
// complex_epilogue.hpp — the last step of the plane-based complex GEMM
// (internal): C <- alpha*(Pr + i*Pi) + beta*C.
//
// Each complex product w*p is written out with its rounding spelled out
// (which of its real products, if any, are fused into the add), in a
// translation unit compiled with -ffp-contract=off.  Its results then no
// longer depend on what the optimizer inlines or contracts around it.

#include <complex>

#include "dcmesh/blas/blas.hpp"

namespace dcmesh::blas::detail {

/// Rounding of one complex product w*p: re = w.re*p.re - w.im*p.im and
/// im = w.re*p.im + w.im*p.re, each sum either of two rounded products or
/// one fused multiply-add over the named product.  The values are the
/// roundings the engine's paths have always produced (see
/// combine_planes' callers); spelling them out keeps those bits.
enum class cmul_rounding {
  unfused,    ///< Every product rounded.
  fuse_p_re,  ///< Fused: w.re*p.re and w.im*p.re.
  fuse_p_im,  ///< Fused: w.im*p.im and w.re*p.im.
  fuse_w_re,  ///< Fused: w.re*p.re and w.re*p.im.
};

/// C <- alpha*(Pr + i*Pi) + beta*C element-wise (alpha/beta applied at
/// full precision, matching MKL's FP32 epilogue).  Pr/Pi are m x n with
/// leading dimension m; beta == 0 overwrites C without reading it.  A
/// product whose both components come out NaN is recomputed by
/// std::complex (C99 Annex G infinity recovery), as before.
template <typename R>
void combine_planes(blas_int m, blas_int n, std::complex<R> alpha,
                    cmul_rounding alpha_rounding, const R* pr, const R* pi,
                    std::complex<R> beta, cmul_rounding beta_rounding,
                    std::complex<R>* c, blas_int ldc);

}  // namespace dcmesh::blas::detail
