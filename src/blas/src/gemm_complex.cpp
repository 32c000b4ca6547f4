// gemm_complex.cpp — cgemm/zgemm entry points: standard complex arithmetic,
// 3M complex multiplication, and FP32 split modes applied to the real
// component products (the hardware path XMX takes for complex data).

#include <array>
#include <complex>
#include <cstddef>

#include "dcmesh/blas/blas.hpp"
#include "dcmesh/blas/gemm_call.hpp"
#include "complex_epilogue.hpp"
#include "gemm_kernel.hpp"
#include "gemm_modes.hpp"
#include "pack_arena.hpp"
#include "split.hpp"

namespace dcmesh::blas {
namespace detail {
namespace {

/// Real-arithmetic transpose op corresponding to a complex op once
/// conjugation has been folded into the extracted imaginary plane.
constexpr transpose real_op(transpose op) noexcept {
  return op == transpose::none ? transpose::none : transpose::trans;
}

/// Real planes of one complex GEMM (operand planes, plane products),
/// carved from the calling thread's grow-only kArenaSlotPlanes slot, each
/// starting on a cache line.  Valid until this thread's next complex GEMM;
/// a warm thread allocates nothing.
template <typename R, std::size_t N>
std::array<R*, N> arena_planes(const std::array<std::size_t, N>& counts) {
  constexpr std::size_t per_line = kCacheLineBytes / sizeof(R);
  std::array<std::size_t, N> offsets{};
  std::size_t total = 0;
  for (std::size_t i = 0; i < N; ++i) {
    offsets[i] = total;
    total += (counts[i] + per_line - 1) / per_line * per_line;
  }
  R* base = pack_arena::for_thread().acquire<R>(kArenaSlotPlanes, total);
  std::array<R*, N> planes{};
  for (std::size_t i = 0; i < N; ++i) planes[i] = base + offsets[i];
  return planes;
}

/// Extract the real and imaginary planes of a stored complex operand into
/// `re`/`im` (rows x cols, leading dimension rows).  `negate_imag` folds a
/// conjugate-transpose into the extraction.
template <typename R>
void extract_planes(const std::complex<R>* x, blas_int rows, blas_int cols,
                    blas_int ld, bool negate_imag, R* re, R* im) {
  for (blas_int j = 0; j < cols; ++j) {
    const std::complex<R>* src = x + j * ld;
    R* re_col = re + j * rows;
    R* im_col = im + j * rows;
    if (negate_imag) {
      for (blas_int i = 0; i < rows; ++i) {
        re_col[i] = src[i].real();
        im_col[i] = -src[i].imag();
      }
    } else {
      for (blas_int i = 0; i < rows; ++i) {
        re_col[i] = src[i].real();
        im_col[i] = src[i].imag();
      }
    }
  }
}

/// Real GEMM that honours a split mode for float (standard otherwise;
/// double precision never splits).  Split modes route to the fused
/// pack-once engine; its arena slots are released between the sequential
/// plane products, so nesting 4M over sgemm_split is allocation-safe
/// (see pack_arena.hpp lifetime rules).
template <typename R>
void real_gemm_mode(compute_mode mode, transpose ta, transpose tb,
                    blas_int m, blas_int n, blas_int k, R alpha, const R* a,
                    blas_int lda, const R* b, blas_int ldb, R beta, R* c,
                    blas_int ldc) {
  if constexpr (std::is_same_v<R, float>) {
    if (is_split_mode(mode)) {
      sgemm_split(mode, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                  ldc);
      return;
    }
  }
  (void)mode;
  gemm_blocked(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

/// 4M complex GEMM over extracted planes: the standard complex algorithm
/// expressed as four real products (real-plane GEMMs vectorize far better
/// than a complex microkernel, and this is also how the XMX hardware path
/// consumes complex data).  Split modes apply to the component products.
template <typename R>
void gemm_4m(compute_mode mode, transpose transa, transpose transb,
             blas_int m, blas_int n, blas_int k, std::complex<R> alpha,
             const std::complex<R>* a, blas_int lda,
             const std::complex<R>* b, blas_int ldb, std::complex<R> beta,
             std::complex<R>* c, blas_int ldc) {
  const blas_int rows_a = transa == transpose::none ? m : k;
  const blas_int cols_a = transa == transpose::none ? k : m;
  const blas_int rows_b = transb == transpose::none ? k : n;
  const blas_int cols_b = transb == transpose::none ? n : k;

  const auto size_a = static_cast<std::size_t>(rows_a) *
                      static_cast<std::size_t>(cols_a);
  const auto size_b = static_cast<std::size_t>(rows_b) *
                      static_cast<std::size_t>(cols_b);
  const auto size_c =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
  const auto [ar, ai, br, bi, pr, pi] = arena_planes<R, 6>(
      {size_a, size_a, size_b, size_b, size_c, size_c});
  extract_planes(a, rows_a, cols_a, lda, transa == transpose::conj_trans,
                 ar, ai);
  extract_planes(b, rows_b, cols_b, ldb, transb == transpose::conj_trans,
                 br, bi);
  const transpose ta = real_op(transa);
  const transpose tb = real_op(transb);

  // Pr = Ar*Br - Ai*Bi ; Pi = Ar*Bi + Ai*Br
  real_gemm_mode<R>(mode, ta, tb, m, n, k, R(1), ar, rows_a, br, rows_b,
                    R(0), pr, m);
  real_gemm_mode<R>(mode, ta, tb, m, n, k, R(-1), ai, rows_a, bi, rows_b,
                    R(1), pr, m);
  real_gemm_mode<R>(mode, ta, tb, m, n, k, R(1), ar, rows_a, bi, rows_b,
                    R(0), pi, m);
  real_gemm_mode<R>(mode, ta, tb, m, n, k, R(1), ai, rows_a, br, rows_b,
                    R(1), pi, m);

  // The roundings 4M's epilogue has always had: every product rounded in
  // single precision, the p.re products fused in double.
  constexpr cmul_rounding rounding = std::is_same_v<R, float>
                                         ? cmul_rounding::unfused
                                         : cmul_rounding::fuse_p_re;
  combine_planes(m, n, alpha, rounding, pr, pi, beta, rounding, c, ldc);
}

/// 3M complex GEMM (Karatsuba-style): three real products
/// P1 = Ar*Br, P2 = Ai*Bi, P3 = (Ar+Ai)*(Br+Bi);
/// Cr = P1 - P2, Ci = P3 - P1 - P2.  Same flop class as the hardware
/// cgemm3m path, with its characteristic cancellation behaviour.
template <typename R>
void gemm_3m(transpose transa, transpose transb, blas_int m, blas_int n,
             blas_int k, std::complex<R> alpha, const std::complex<R>* a,
             blas_int lda, const std::complex<R>* b, blas_int ldb,
             std::complex<R> beta, std::complex<R>* c, blas_int ldc) {
  const blas_int rows_a = transa == transpose::none ? m : k;
  const blas_int cols_a = transa == transpose::none ? k : m;
  const blas_int rows_b = transb == transpose::none ? k : n;
  const blas_int cols_b = transb == transpose::none ? n : k;

  const auto size_a = static_cast<std::size_t>(rows_a) *
                      static_cast<std::size_t>(cols_a);
  const auto size_b = static_cast<std::size_t>(rows_b) *
                      static_cast<std::size_t>(cols_b);
  const auto size_c =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
  const auto [ar, ai, br, bi, sa, sb, p1, p2, p3] = arena_planes<R, 9>(
      {size_a, size_a, size_b, size_b, size_a, size_b, size_c, size_c,
       size_c});
  extract_planes(a, rows_a, cols_a, lda, transa == transpose::conj_trans,
                 ar, ai);
  extract_planes(b, rows_b, cols_b, ldb, transb == transpose::conj_trans,
                 br, bi);
  const transpose ta = real_op(transa);
  const transpose tb = real_op(transb);

  for (std::size_t i = 0; i < size_a; ++i) sa[i] = ar[i] + ai[i];
  for (std::size_t i = 0; i < size_b; ++i) sb[i] = br[i] + bi[i];

  gemm_blocked(ta, tb, m, n, k, R(1), ar, rows_a, br, rows_b, R(0), p1, m);
  gemm_blocked(ta, tb, m, n, k, R(1), ai, rows_a, bi, rows_b, R(0), p2, m);
  gemm_blocked(ta, tb, m, n, k, R(1), sa, rows_a, sb, rows_b, R(0), p3, m);

  // Cr = P1 - P2 into P1's plane, Ci = P3 - P1 - P2 into P3's.
  for (std::size_t i = 0; i < size_c; ++i) {
    const R v1 = p1[i];
    const R v2 = p2[i];
    p1[i] = v1 - v2;
    p3[i] = p3[i] - v1 - v2;
  }
  // The roundings 3M's epilogue has always had.
  combine_planes(m, n, alpha, cmul_rounding::fuse_p_im, p1, p3, beta,
                 cmul_rounding::fuse_w_re, c, ldc);
}

}  // namespace

void gemm_at_mode(compute_mode mode, transpose transa, transpose transb,
                  blas_int m, blas_int n, blas_int k,
                  std::complex<float> alpha, const std::complex<float>* a,
                  blas_int lda, const std::complex<float>* b, blas_int ldb,
                  std::complex<float> beta, std::complex<float>* c,
                  blas_int ldc) {
  validate_gemm_args(transa, transb, m, n, k, a, lda, b, ldb, c, ldc,
                     /*needs_ab=*/alpha != decltype(alpha)(0));
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == std::complex<float>(0)) {
    scale_c(m, n, beta, c, ldc);
    return;
  }
  if (mode == compute_mode::complex_3m) {
    gemm_3m(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else {
    // Standard arithmetic and all split modes share the 4M plane path.
    gemm_4m(mode, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c,
            ldc);
  }
}

void gemm_at_mode(compute_mode mode, transpose transa, transpose transb,
                  blas_int m, blas_int n, blas_int k,
                  std::complex<double> alpha, const std::complex<double>* a,
                  blas_int lda, const std::complex<double>* b, blas_int ldb,
                  std::complex<double> beta, std::complex<double>* c,
                  blas_int ldc) {
  validate_gemm_args(transa, transb, m, n, k, a, lda, b, ldb, c, ldc,
                     /*needs_ab=*/alpha != decltype(alpha)(0));
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == std::complex<double>(0)) {
    scale_c(m, n, beta, c, ldc);
    return;
  }
  // FP32 split modes do not apply to double precision; COMPLEX_3M does.
  if (mode == compute_mode::complex_3m) {
    gemm_3m(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else {
    gemm_4m(compute_mode::standard, transa, transb, m, n, k, alpha, a, lda,
            b, ldb, beta, c, ldc);
  }
}

}  // namespace detail

void cgemm(transpose transa, transpose transb, blas_int m, blas_int n,
           blas_int k, std::complex<float> alpha, const std::complex<float>* a,
           blas_int lda, const std::complex<float>* b, blas_int ldb,
           std::complex<float> beta, std::complex<float>* c, blas_int ldc) {
  run(gemm_call<std::complex<float>>{transa, transb, m, n, k, alpha, a, lda,
                                     b, ldb, beta, c, ldc});
}

void zgemm(transpose transa, transpose transb, blas_int m, blas_int n,
           blas_int k, std::complex<double> alpha,
           const std::complex<double>* a, blas_int lda,
           const std::complex<double>* b, blas_int ldb,
           std::complex<double> beta, std::complex<double>* c,
           blas_int ldc) {
  run(gemm_call<std::complex<double>>{transa, transb, m, n, k, alpha, a,
                                      lda, b, ldb, beta, c, ldc});
}

}  // namespace dcmesh::blas
