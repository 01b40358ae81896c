// AVX2 backend of the SIMD kernel layer.  Compiled only when the
// resolved GTL_SIMD backend is avx2, with -mavx2 -mfma -ffp-contract=off.
//
// Bitwise contract with src/util/simd.cpp (scalar_ref):
//   * elementwise lanes use the same correctly-rounded IEEE-754 ops in
//     the same per-element order (vfmadd === std::fma, vdivpd === /,
//     vroundpd(nearest) === std::nearbyint, cmp/blend === the scalar
//     compare-and-select written in scalar_ref);
//   * reductions accumulate into kLaneWidth lanes with element i folding
//     into lane i % kLaneWidth and combine as ((a0+a1)+(a2+a3)) — the
//     identical blocked order scalar_ref commits to;
//   * remainder elements of elementwise kernels are delegated to
//     scalar_ref, which is valid precisely because lanes are order-free;
//   * integer->double lanes use exponent-tricks that are exact within a
//     guarded range and fall back to scalar_ref casts outside it.

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/simd.hpp"
#include "util/simd_backend.hpp"

namespace gtl::simd::avx2 {

namespace {

using detail::kExpCoeff;
using detail::kInvLn2;
using detail::kLn2;
using detail::kMaxT;

constexpr std::size_t kW = kLaneWidth;  // 4 x 64-bit lanes per __m256d

// Magic constants for exact integer->double conversion without AVX-512:
// uint64 x < 2^52 converts via OR with the exponent of 2^52 and a
// subtract; int64 |x| < 2^51 via a 2^52+2^51 offset.
constexpr std::uint64_t kExp52Bits = 0x4330000000000000ULL;  // 2^52
constexpr double kTwo52 = 4503599627370496.0;                // 2^52
constexpr std::uint64_t kExp52_51Bits = 0x4338000000000000ULL;
constexpr double kTwo52Plus51 = 6755399441055744.0;  // 2^52 + 2^51

inline double combine_lanes_add(__m256d v) {
  alignas(32) double a[kW];
  _mm256_store_pd(a, v);
  return (a[0] + a[1]) + (a[2] + a[3]);
}

}  // namespace

void pins_over_index(const std::uint64_t* pins, std::size_t n, std::size_t k0,
                     double* out) {
  if (k0 + n >= (1ULL << 52)) {  // keep the k-lane doubles exact
    scalar_ref::pins_over_index(pins, n, k0, out);
    return;
  }
  const __m256d step = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  const __m256i limit = _mm256_set1_epi64x(1LL << 52);
  const __m256i neg1 = _mm256_set1_epi64x(-1);
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    const __m256i pv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pins + i));
    // In-range means 0 <= pv < 2^52 as a signed lane.
    const __m256i ok = _mm256_and_si256(_mm256_cmpgt_epi64(limit, pv),
                                        _mm256_cmpgt_epi64(pv, neg1));
    if (_mm256_movemask_epi8(ok) != -1) {
      scalar_ref::pins_over_index(pins + i, kW, k0 + i, out + i);
      continue;
    }
    const __m256d pd = _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_or_si256(pv, _mm256_set1_epi64x(kExp52Bits))),
        _mm256_set1_pd(kTwo52));
    const __m256d kd =
        _mm256_add_pd(_mm256_set1_pd(static_cast<double>(k0 + i)), step);
    _mm256_storeu_pd(out + i, _mm256_div_pd(pd, kd));
  }
  scalar_ref::pins_over_index(pins + nb, n - nb, k0 + nb, out + nb);
}

void cut_to_double(const std::int64_t* cut, std::size_t n, double* out) {
  const __m256i hi = _mm256_set1_epi64x(1LL << 51);
  const __m256i lo = _mm256_set1_epi64x(-(1LL << 51) - 1);
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    const __m256i cv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cut + i));
    const __m256i ok = _mm256_and_si256(_mm256_cmpgt_epi64(hi, cv),
                                        _mm256_cmpgt_epi64(cv, lo));
    if (_mm256_movemask_epi8(ok) != -1) {
      scalar_ref::cut_to_double(cut + i, kW, out + i);
      continue;
    }
    const __m256d cd = _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_add_epi64(cv, _mm256_set1_epi64x(kExp52_51Bits))),
        _mm256_set1_pd(kTwo52Plus51));
    _mm256_storeu_pd(out + i, cd);
  }
  scalar_ref::cut_to_double(cut + nb, n - nb, out + nb);
}

void div_by_scalar(const double* in, std::size_t n, double d, double* out) {
  const __m256d dv = _mm256_set1_pd(d);
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    _mm256_storeu_pd(out + i, _mm256_div_pd(_mm256_loadu_pd(in + i), dv));
  }
  scalar_ref::div_by_scalar(in + nb, n - nb, d, out + nb);
}

void mul_by_scalar(const double* in, std::size_t n, double s, double* out) {
  const __m256d sv = _mm256_set1_pd(s);
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(in + i), sv));
  }
  scalar_ref::mul_by_scalar(in + nb, n - nb, s, out + nb);
}

void sub_elem(const double* a, const double* b, std::size_t n, double* out) {
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  scalar_ref::sub_elem(a + nb, b + nb, n - nb, out + nb);
}

void rent_clamp(const double* log_cut, const double* log_ac,
                const double* log_k, const double* a_c, std::size_t n,
                double* out) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    __m256d p = _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(log_cut + i),
                                            _mm256_loadu_pd(log_ac + i)),
                              _mm256_loadu_pd(log_k + i));
    // clamp(p, 0, 1) by compare-and-select, matching scalar_ref lane-wise.
    p = _mm256_blendv_pd(p, zero, _mm256_cmp_pd(p, zero, _CMP_LT_OQ));
    p = _mm256_blendv_pd(p, one, _mm256_cmp_pd(one, p, _CMP_LT_OQ));
    const __m256d invalid =
        _mm256_cmp_pd(_mm256_loadu_pd(a_c + i), zero, _CMP_LE_OQ);
    _mm256_storeu_pd(out + i, _mm256_blendv_pd(p, one, invalid));
  }
  scalar_ref::rent_clamp(log_cut + nb, log_ac + nb, log_k + nb, a_c + nb,
                         n - nb, out + nb);
}

void bounded_scores(const double* cutd, const double* expo,
                    const double* log_k, std::size_t n, double a_g,
                    double* lo, double* hi) {
  const __m256d v_inv_ln2 = _mm256_set1_pd(kInvLn2);
  const __m256d v_ln2 = _mm256_set1_pd(kLn2);
  const __m256d v_max_t = _mm256_set1_pd(kMaxT);
  const __m256d v_ag = _mm256_set1_pd(a_g);
  const __m256d v_lo_scale = _mm256_set1_pd(1.0 - kCurveBoundEps);
  const __m256d v_hi_scale = _mm256_set1_pd(1.0 + kCurveBoundEps);
  const __m256d v_zero = _mm256_setzero_pd();
  const __m256d v_inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    const __m256d t = _mm256_mul_pd(
        _mm256_loadu_pd(expo + i),
        _mm256_mul_pd(_mm256_loadu_pd(log_k + i), v_inv_ln2));
    const __m256d ok = _mm256_cmp_pd(t, v_max_t, _CMP_LE_OQ);
    const __m256d s = _mm256_xor_pd(t, sign_mask);  // exact -t
    const __m256d ri =
        _mm256_round_pd(s, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256d f = _mm256_sub_pd(s, ri);
    const __m256d x = _mm256_mul_pd(f, v_ln2);
    __m256d q = _mm256_set1_pd(kExpCoeff[11]);
    for (int j = 10; j >= 0; --j) {
      q = _mm256_fmadd_pd(q, x, _mm256_set1_pd(kExpCoeff[j]));
    }
    // 2^ri by exponent-bit construction; ri is integral in [-1000, 0]
    // on ok lanes, garbage elsewhere (blended away below).
    const __m256i biased = _mm256_add_epi64(
        _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(ri)),
        _mm256_set1_epi64x(1023));
    const __m256d p2 = _mm256_castsi256_pd(_mm256_slli_epi64(biased, 52));
    const __m256d v = _mm256_div_pd(
        _mm256_mul_pd(_mm256_mul_pd(_mm256_loadu_pd(cutd + i), q), p2),
        v_ag);
    _mm256_storeu_pd(
        lo + i, _mm256_blendv_pd(v_zero, _mm256_mul_pd(v, v_lo_scale), ok));
    _mm256_storeu_pd(
        hi + i, _mm256_blendv_pd(v_inf, _mm256_mul_pd(v, v_hi_scale), ok));
  }
  scalar_ref::bounded_scores(cutd + nb, expo + nb, log_k + nb, n - nb, a_g,
                             lo + nb, hi + nb);
}

double min_value(const double* v, std::size_t n) {
  __m256d vacc = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    vacc = _mm256_min_pd(vacc, _mm256_loadu_pd(v + i));
  }
  alignas(32) double acc[kW];
  _mm256_store_pd(acc, vacc);
  for (std::size_t l = 0; l < n % kW; ++l) {
    acc[l] = acc[l] < v[nb + l] ? acc[l] : v[nb + l];
  }
  const double m01 = acc[0] < acc[1] ? acc[0] : acc[1];
  const double m23 = acc[2] < acc[3] ? acc[2] : acc[3];
  return m01 < m23 ? m01 : m23;
}

double max_value(const double* v, std::size_t n) {
  __m256d vacc = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    vacc = _mm256_max_pd(vacc, _mm256_loadu_pd(v + i));
  }
  alignas(32) double acc[kW];
  _mm256_store_pd(acc, vacc);
  for (std::size_t l = 0; l < n % kW; ++l) {
    acc[l] = acc[l] > v[nb + l] ? acc[l] : v[nb + l];
  }
  const double m01 = acc[0] > acc[1] ? acc[0] : acc[1];
  const double m23 = acc[2] > acc[3] ? acc[2] : acc[3];
  return m01 > m23 ? m01 : m23;
}

bool any_not_below(const double* v, std::size_t n, double t) {
  const __m256d tv = _mm256_set1_pd(t);
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    const __m256d ge = _mm256_cmp_pd(_mm256_loadu_pd(v + i), tv, _CMP_GE_OQ);
    if (_mm256_movemask_pd(ge) != 0) return true;
  }
  return scalar_ref::any_not_below(v + nb, n - nb, t);
}

std::size_t collect_not_above(const double* v, std::size_t n, double t,
                              std::uint32_t* out, std::size_t cap) {
  const __m256d tv = _mm256_set1_pd(t);
  std::size_t count = 0;
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(v + i), tv, _CMP_LE_OQ));
    while (mask != 0) {
      const int l = __builtin_ctz(static_cast<unsigned>(mask));
      mask &= mask - 1;
      if (count < cap) {
        out[count] = static_cast<std::uint32_t>(i + static_cast<size_t>(l));
      }
      if (++count > cap) return cap + 1;
    }
  }
  for (std::size_t i = nb; i < n; ++i) {
    if (!(v[i] <= t)) continue;
    if (count < cap) out[count] = static_cast<std::uint32_t>(i);
    if (++count > cap) return cap + 1;
  }
  return count;
}

std::size_t collect_not_below(const double* v, std::size_t n, double t,
                              std::uint32_t* out, std::size_t cap) {
  const __m256d tv = _mm256_set1_pd(t);
  std::size_t count = 0;
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(v + i), tv, _CMP_GE_OQ));
    while (mask != 0) {
      const int l = __builtin_ctz(static_cast<unsigned>(mask));
      mask &= mask - 1;
      if (count < cap) {
        out[count] = static_cast<std::uint32_t>(i + static_cast<size_t>(l));
      }
      if (++count > cap) return cap + 1;
    }
  }
  for (std::size_t i = nb; i < n; ++i) {
    if (!(v[i] >= t)) continue;
    if (count < cap) out[count] = static_cast<std::uint32_t>(i);
    if (++count > cap) return cap + 1;
  }
  return count;
}

double dot_blocked(const double* u, const double* v, std::size_t n) {
  __m256d vacc = _mm256_setzero_pd();
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    vacc = _mm256_fmadd_pd(_mm256_loadu_pd(u + i), _mm256_loadu_pd(v + i),
                           vacc);
  }
  alignas(32) double acc[kW];
  _mm256_store_pd(acc, vacc);
  for (std::size_t l = 0; l < n % kW; ++l) {
    acc[l] = std::fma(u[nb + l], v[nb + l], acc[l]);
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

void axpy2(std::size_t n, double alpha, const double* p, const double* ap,
           double* x, double* r) {
  const __m256d av = _mm256_set1_pd(alpha);
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    _mm256_storeu_pd(
        x + i, _mm256_fmadd_pd(av, _mm256_loadu_pd(p + i),
                               _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(
        r + i, _mm256_fnmadd_pd(av, _mm256_loadu_pd(ap + i),
                                _mm256_loadu_pd(r + i)));
  }
  scalar_ref::axpy2(n - nb, alpha, p + nb, ap + nb, x + nb, r + nb);
}

void xpay(std::size_t n, const double* z, double beta, double* p) {
  const __m256d bv = _mm256_set1_pd(beta);
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    _mm256_storeu_pd(
        p + i, _mm256_fmadd_pd(bv, _mm256_loadu_pd(p + i),
                               _mm256_loadu_pd(z + i)));
  }
  scalar_ref::xpay(n - nb, z + nb, beta, p + nb);
}

void jacobi_precondition(std::size_t n, const double* diag, const double* r,
                         double* z) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d guard = _mm256_set1_pd(1e-12);
  const std::size_t nb = n - n % kW;
  for (std::size_t i = 0; i < nb; i += kW) {
    const __m256d d = _mm256_loadu_pd(diag + i);
    const __m256d rv = _mm256_loadu_pd(r + i);
    const __m256d ad = _mm256_andnot_pd(sign_mask, d);
    const __m256d use = _mm256_cmp_pd(ad, guard, _CMP_GT_OQ);
    // Guarded lanes may divide by ~0 here; the blend discards them and
    // SSE/AVX arithmetic never traps under the default masked MXCSR.
    _mm256_storeu_pd(z + i, _mm256_blendv_pd(rv, _mm256_div_pd(rv, d), use));
  }
  scalar_ref::jacobi_precondition(n - nb, diag + nb, r + nb, z + nb);
}

void spmv_csr(std::size_t n, const std::size_t* row_offset,
              const std::uint32_t* col, const double* val, const double* x,
              double* y) {
  // vgatherdpd sign-extends its i32 indices, so column ids must stay
  // <= INT32_MAX; SparseMatrix::assemble() enforces that bound.
  for (std::size_t row = 0; row < n; ++row) {
    const std::size_t begin = row_offset[row];
    const std::size_t len = row_offset[row + 1] - begin;
    __m256d vacc = _mm256_setzero_pd();
    const std::size_t nb = len - len % kW;
    for (std::size_t j = 0; j < nb; j += kW) {
      const __m128i idx = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(col + begin + j));
      // The masked form carries an explicit (all-lanes) source operand;
      // the plain _mm256_i32gather_pd expands through an undefined
      // register and trips GCC's -Wmaybe-uninitialized.
      const __m256d xs = _mm256_mask_i32gather_pd(
          _mm256_setzero_pd(), x, idx,
          _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
      vacc = _mm256_fmadd_pd(_mm256_loadu_pd(val + begin + j), xs, vacc);
    }
    alignas(32) double acc[kW];
    _mm256_store_pd(acc, vacc);
    for (std::size_t l = 0; l < len % kW; ++l) {
      const std::size_t e = begin + nb + l;
      acc[l] = std::fma(val[e], x[col[e]], acc[l]);
    }
    y[row] = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  }
}

}  // namespace gtl::simd::avx2
