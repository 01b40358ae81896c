#pragma once

// Internal glue for the SIMD kernel layer: shared numeric constants and
// the declarations of the AVX2 translation unit.  Only src/util/simd.cpp
// and src/util/simd_avx2.cpp may include this header.

#include <cstddef>
#include <cstdint>

namespace gtl::simd::detail {

// exp2 approximation used by bounded_scores().  Both backends evaluate
// the identical fma chain; the constants below are constexpr-rounded the
// same way in both translation units.
//
// Accuracy budget (for the enclosure argument; see bounded_scores):
//   * t = fl(expo * fl(log_k * kInvLn2)) carries <= 3*2^-53 relative
//     error, i.e. an absolute error on the exponent of <= 3e-16 * t
//     <= 3e-13 for t <= kMaxT, which perturbs 2^-t by <= ~2.1e-13
//     relatively.
//   * The degree-11 Taylor polynomial of exp(x) on |x| <= ln2/2 has
//     truncation error <= |x|^12 / 12! * e^|x| < 9e-15, and the fma
//     Horner chain adds <= ~12 * 2^-53 of rounding.
//   * The final three multiplies/divides add <= 3 * 2^-53.
// Total relative error < 3e-13, four orders of magnitude inside the
// kCurveBoundEps = 1e-9 margin applied to the lo/hi enclosure.
inline constexpr double kInvLn2 = 1.4426950408889634074;  // 1 / ln 2
inline constexpr double kLn2 = 0.69314718055994530942;    // ln 2
// Exponents beyond this take the trivial [0, +inf) enclosure; 2^-1000 is
// far below any score the finder can distinguish from zero anyway.
inline constexpr double kMaxT = 1000.0;
// Taylor coefficients of exp(x): kExpCoeff[j] = 1/j!.
inline constexpr double kExpCoeff[12] = {
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
};

}  // namespace gtl::simd::detail

#if defined(GTL_SIMD_AVX2)

// The AVX2 backend, compiled with -mavx2 -mfma -ffp-contract=off in
// src/util/simd_avx2.cpp.  Signatures mirror the public kernels in
// util/simd.hpp one to one.
namespace gtl::simd::avx2 {

void pins_over_index(const std::uint64_t* pins, std::size_t n, std::size_t k0,
                     double* out);
void cut_to_double(const std::int64_t* cut, std::size_t n, double* out);
void div_by_scalar(const double* in, std::size_t n, double d, double* out);
void mul_by_scalar(const double* in, std::size_t n, double s, double* out);
void sub_elem(const double* a, const double* b, std::size_t n, double* out);
void rent_clamp(const double* log_cut, const double* log_ac,
                const double* log_k, const double* a_c, std::size_t n,
                double* out);
void bounded_scores(const double* cutd, const double* expo,
                    const double* log_k, std::size_t n, double a_g,
                    double* lo, double* hi);
double min_value(const double* v, std::size_t n);
double max_value(const double* v, std::size_t n);
bool any_not_below(const double* v, std::size_t n, double t);
std::size_t collect_not_above(const double* v, std::size_t n, double t,
                              std::uint32_t* out, std::size_t cap);
std::size_t collect_not_below(const double* v, std::size_t n, double t,
                              std::uint32_t* out, std::size_t cap);
double dot_blocked(const double* u, const double* v, std::size_t n);
void axpy2(std::size_t n, double alpha, const double* p, const double* ap,
           double* x, double* r);
void xpay(std::size_t n, const double* z, double beta, double* p);
void jacobi_precondition(std::size_t n, const double* diag, const double* r,
                         double* z);
void spmv_csr(std::size_t n, const std::size_t* row_offset,
              const std::uint32_t* col, const double* val, const double* x,
              double* y);

}  // namespace gtl::simd::avx2

#endif  // GTL_SIMD_AVX2
