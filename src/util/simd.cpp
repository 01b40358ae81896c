// Blocked-scalar backend + compile-time dispatch for the SIMD kernel
// layer.  This translation unit is always compiled WITHOUT architecture
// flags and with -ffp-contract=off: every fma below is explicit, so the
// emitted operation sequence is exactly the documented one and matches
// the AVX2 backend bit for bit (see util/simd.hpp for the argument).
//
// The implementations live in gtl::simd::scalar_ref — the embedded
// equivalence reference that differential tests compare the active
// backend against — and the public entry points dispatch either here or
// to gtl::simd::avx2 depending on GTL_SIMD_AVX2.

#include "util/simd.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "util/simd_backend.hpp"

namespace gtl::simd::scalar_ref {

namespace {

using detail::kExpCoeff;
using detail::kInvLn2;
using detail::kLn2;
using detail::kMaxT;

// 2^i for integral i in [-1022, 1023], by exponent-bit construction —
// the scalar twin of (cvtpd_epi32 ; add 1023 ; sll 52) in the AVX2 TU.
double exp2_integral(double i) {
  const auto biased =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(i) + 1023);
  const std::uint64_t bits = biased << 52;
  double p2;
  std::memcpy(&p2, &bits, sizeof(p2));
  return p2;
}

}  // namespace

void pins_over_index(const std::uint64_t* pins, std::size_t n, std::size_t k0,
                     double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(pins[i]) / static_cast<double>(k0 + i);
  }
}

void cut_to_double(const std::int64_t* cut, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<double>(cut[i]);
}

void div_by_scalar(const double* in, std::size_t n, double d, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] / d;
}

void mul_by_scalar(const double* in, std::size_t n, double s, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] * s;
}

void sub_elem(const double* a, const double* b, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void rent_clamp(const double* log_cut, const double* log_ac,
                const double* log_k, const double* a_c, std::size_t n,
                double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a_c[i] <= 0.0) {
      out[i] = 1.0;
      continue;
    }
    // Comparison-and-select, exactly std::clamp(p, 0.0, 1.0) and exactly
    // the cmp/blend sequence of the AVX2 TU (signed zeros included).
    double p = (log_cut[i] - log_ac[i]) / log_k[i];
    if (p < 0.0) p = 0.0;
    if (1.0 < p) p = 1.0;
    out[i] = p;
  }
}

void bounded_scores(const double* cutd, const double* expo,
                    const double* log_k, std::size_t n, double a_g,
                    double* lo, double* hi) {
  for (std::size_t i = 0; i < n; ++i) {
    const double t = expo[i] * (log_k[i] * kInvLn2);  // expo * log2(k)
    if (!(t <= kMaxT)) {
      lo[i] = 0.0;
      hi[i] = std::numeric_limits<double>::infinity();
      continue;
    }
    // exp2(-t): split -t = i + f with |f| <= 1/2 (the split is exact),
    // 2^i by exponent bits, 2^f = exp(f * ln2) by the degree-11 Taylor
    // fma chain shared with the AVX2 TU.
    const double s = -t;
    const double ri = std::nearbyint(s);
    const double f = s - ri;
    const double x = f * kLn2;
    double q = kExpCoeff[11];
    for (int j = 10; j >= 0; --j) q = std::fma(q, x, kExpCoeff[j]);
    const double v = (cutd[i] * q) * exp2_integral(ri) / a_g;
    lo[i] = v * (1.0 - kCurveBoundEps);
    hi[i] = v * (1.0 + kCurveBoundEps);
  }
}

double min_value(const double* v, std::size_t n) {
  double acc[kLaneWidth];
  for (double& a : acc) a = std::numeric_limits<double>::infinity();
  const std::size_t nb = n - n % kLaneWidth;
  for (std::size_t i = 0; i < nb; i += kLaneWidth) {
    for (std::size_t l = 0; l < kLaneWidth; ++l) {
      // Mirrors minpd(acc, x): second operand wins ties.
      acc[l] = acc[l] < v[i + l] ? acc[l] : v[i + l];
    }
  }
  for (std::size_t l = 0; l < n % kLaneWidth; ++l) {
    acc[l] = acc[l] < v[nb + l] ? acc[l] : v[nb + l];
  }
  const double m01 = acc[0] < acc[1] ? acc[0] : acc[1];
  const double m23 = acc[2] < acc[3] ? acc[2] : acc[3];
  return m01 < m23 ? m01 : m23;
}

double max_value(const double* v, std::size_t n) {
  double acc[kLaneWidth];
  for (double& a : acc) a = -std::numeric_limits<double>::infinity();
  const std::size_t nb = n - n % kLaneWidth;
  for (std::size_t i = 0; i < nb; i += kLaneWidth) {
    for (std::size_t l = 0; l < kLaneWidth; ++l) {
      acc[l] = acc[l] > v[i + l] ? acc[l] : v[i + l];
    }
  }
  for (std::size_t l = 0; l < n % kLaneWidth; ++l) {
    acc[l] = acc[l] > v[nb + l] ? acc[l] : v[nb + l];
  }
  const double m01 = acc[0] > acc[1] ? acc[0] : acc[1];
  const double m23 = acc[2] > acc[3] ? acc[2] : acc[3];
  return m01 > m23 ? m01 : m23;
}

bool any_not_below(const double* v, std::size_t n, double t) {
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] >= t) return true;
  }
  return false;
}

std::size_t collect_not_above(const double* v, std::size_t n, double t,
                              std::uint32_t* out, std::size_t cap) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(v[i] <= t)) continue;
    if (count < cap) out[count] = static_cast<std::uint32_t>(i);
    if (++count > cap) return cap + 1;
  }
  return count;
}

std::size_t collect_not_below(const double* v, std::size_t n, double t,
                              std::uint32_t* out, std::size_t cap) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(v[i] >= t)) continue;
    if (count < cap) out[count] = static_cast<std::uint32_t>(i);
    if (++count > cap) return cap + 1;
  }
  return count;
}

double dot_blocked(const double* u, const double* v, std::size_t n) {
  double acc[kLaneWidth] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t nb = n - n % kLaneWidth;
  for (std::size_t i = 0; i < nb; i += kLaneWidth) {
    for (std::size_t l = 0; l < kLaneWidth; ++l) {
      acc[l] = std::fma(u[i + l], v[i + l], acc[l]);
    }
  }
  for (std::size_t l = 0; l < n % kLaneWidth; ++l) {
    acc[l] = std::fma(u[nb + l], v[nb + l], acc[l]);
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

void axpy2(std::size_t n, double alpha, const double* p, const double* ap,
           double* x, double* r) {
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::fma(alpha, p[i], x[i]);
    r[i] = std::fma(-alpha, ap[i], r[i]);  // == fnmadd(alpha, ap, r)
  }
}

void xpay(std::size_t n, const double* z, double beta, double* p) {
  for (std::size_t i = 0; i < n; ++i) p[i] = std::fma(beta, p[i], z[i]);
}

void jacobi_precondition(std::size_t n, const double* diag, const double* r,
                         double* z) {
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = std::abs(diag[i]) > 1e-12 ? r[i] / diag[i] : r[i];
  }
}

void spmv_csr(std::size_t n, const std::size_t* row_offset,
              const std::uint32_t* col, const double* val, const double* x,
              double* y) {
  for (std::size_t row = 0; row < n; ++row) {
    const std::size_t begin = row_offset[row];
    const std::size_t len = row_offset[row + 1] - begin;
    double acc[kLaneWidth] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t nb = len - len % kLaneWidth;
    for (std::size_t j = 0; j < nb; j += kLaneWidth) {
      for (std::size_t l = 0; l < kLaneWidth; ++l) {
        const std::size_t e = begin + j + l;
        acc[l] = std::fma(val[e], x[col[e]], acc[l]);
      }
    }
    for (std::size_t l = 0; l < len % kLaneWidth; ++l) {
      const std::size_t e = begin + nb + l;
      acc[l] = std::fma(val[e], x[col[e]], acc[l]);
    }
    y[row] = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  }
}

}  // namespace gtl::simd::scalar_ref

namespace gtl::simd {

#if defined(GTL_SIMD_AVX2)
namespace active = ::gtl::simd::avx2;
const char* backend_name() { return "avx2"; }
#else
namespace active = ::gtl::simd::scalar_ref;
const char* backend_name() { return "scalar"; }
#endif

void pins_over_index(const std::uint64_t* pins, std::size_t n, std::size_t k0,
                     double* out) {
  active::pins_over_index(pins, n, k0, out);
}

void cut_to_double(const std::int64_t* cut, std::size_t n, double* out) {
  active::cut_to_double(cut, n, out);
}

void div_by_scalar(const double* in, std::size_t n, double d, double* out) {
  active::div_by_scalar(in, n, d, out);
}

void mul_by_scalar(const double* in, std::size_t n, double s, double* out) {
  active::mul_by_scalar(in, n, s, out);
}

void sub_elem(const double* a, const double* b, std::size_t n, double* out) {
  active::sub_elem(a, b, n, out);
}

void rent_clamp(const double* log_cut, const double* log_ac,
                const double* log_k, const double* a_c, std::size_t n,
                double* out) {
  active::rent_clamp(log_cut, log_ac, log_k, a_c, n, out);
}

void bounded_scores(const double* cutd, const double* expo,
                    const double* log_k, std::size_t n, double a_g,
                    double* lo, double* hi) {
  active::bounded_scores(cutd, expo, log_k, n, a_g, lo, hi);
}

double min_value(const double* v, std::size_t n) {
  return active::min_value(v, n);
}

double max_value(const double* v, std::size_t n) {
  return active::max_value(v, n);
}

bool any_not_below(const double* v, std::size_t n, double t) {
  return active::any_not_below(v, n, t);
}

std::size_t collect_not_above(const double* v, std::size_t n, double t,
                              std::uint32_t* out, std::size_t cap) {
  return active::collect_not_above(v, n, t, out, cap);
}

std::size_t collect_not_below(const double* v, std::size_t n, double t,
                              std::uint32_t* out, std::size_t cap) {
  return active::collect_not_below(v, n, t, out, cap);
}

double dot_blocked(const double* u, const double* v, std::size_t n) {
  return active::dot_blocked(u, v, n);
}

void axpy2(std::size_t n, double alpha, const double* p, const double* ap,
           double* x, double* r) {
  active::axpy2(n, alpha, p, ap, x, r);
}

void xpay(std::size_t n, const double* z, double beta, double* p) {
  active::xpay(n, z, beta, p);
}

void jacobi_precondition(std::size_t n, const double* diag, const double* r,
                         double* z) {
  active::jacobi_precondition(n, diag, r, z);
}

void spmv_csr(std::size_t n, const std::size_t* row_offset,
              const std::uint32_t* col, const double* val, const double* x,
              double* y) {
  active::spmv_csr(n, row_offset, col, val, x, y);
}

}  // namespace gtl::simd
