#pragma once

// SIMD kernel layer with a bitwise-deterministic backend switch.
//
// Every kernel here has exactly two implementations selected at compile
// time by the `GTL_SIMD` CMake option (auto|avx2|scalar):
//
//   * an AVX2 one (src/util/simd_avx2.cpp, built with -mavx2 -mfma), and
//   * a blocked-scalar one (src/util/simd.cpp) that executes the SAME
//     fixed lane-blocked operation order with explicit std::fma.
//
// The contract is bitwise interchangeability: for identical inputs, both
// backends produce identical output bits on every platform.  That holds
// because (a) elementwise IEEE-754 add/sub/mul/div/min/max/fma/convert
// are correctly rounded and therefore order-free, and (b) every
// *reduction* (dot products, min/max scans, per-row SpMV sums) commits
// to one fixed order — kLaneWidth independent accumulators, element i
// folding into accumulator i % kLaneWidth, combined as
// ((acc0+acc1)+(acc2+acc3)) — in BOTH backends.  Both translation units
// are compiled with -ffp-contract=off so the compiler cannot fuse or
// split operations behind our back; every fma is spelled explicitly.
//
// `gtl::simd::scalar_ref` re-exports the blocked-scalar implementations
// under a stable name in every build.  Equivalence and fuzz tests
// compare the active backend against scalar_ref bitwise (see
// tests/fuzz/simd_differential_test.cpp); in a scalar build the
// comparison is trivially the identity, in an AVX2 build it proves the
// vector port.
//
// Raw intrinsics are confined to src/util/simd* by the gtl_lint rule
// `simd-intrinsics-contained`; the rest of the tree programs against
// this header only.

#include <cstddef>
#include <cstdint>

namespace gtl::simd {

/// Number of 64-bit lanes per block.  All blocked reductions use this
/// width in both backends; changing it changes result bits everywhere.
inline constexpr std::size_t kLaneWidth = 4;

/// Relative margin applied to the fast-path score bounds computed by
/// bounded_scores().  The approximation error is ~1e-13; 1e-9 leaves
/// four orders of magnitude of slack while still pruning essentially
/// every unambiguous comparison.
inline constexpr double kCurveBoundEps = 1e-9;

/// "avx2" or "scalar" — the backend compiled into this binary.
[[nodiscard]] const char* backend_name();

// ---------------------------------------------------------------------------
// Elementwise batch kernels (score curves).  Per element the operation
// sequence is fixed and identical across backends, so outputs are
// bitwise identical to the naive scalar loop they replace.
// ---------------------------------------------------------------------------

/// out[i] = double(pins[i]) / double(k0 + i).  With k0 == 1 this is the
/// per-prefix average pin count a_c(k) = pins(k) / k.
void pins_over_index(const std::uint64_t* pins, std::size_t n, std::size_t k0,
                     double* out);

/// out[i] = double(cut[i]).
void cut_to_double(const std::int64_t* cut, std::size_t n, double* out);

/// out[i] = in[i] / d.
void div_by_scalar(const double* in, std::size_t n, double d, double* out);

/// out[i] = in[i] * s.
void mul_by_scalar(const double* in, std::size_t n, double s, double* out);

/// out[i] = a[i] - b[i].
void sub_elem(const double* a, const double* b, std::size_t n, double* out);

/// Vector tail of metrics::group_rent_exponent over a span of prefixes,
/// with ln T and ln k supplied by the caller:
///   out[i] = a_c[i] <= 0
///       ? 1.0 : clamp((log_cut[i] - log_ac[i]) / log_k[i], 0, 1)
/// Callers guarantee size >= 2 for every element (the size < 2 guard
/// stays with them) and that log_ac[i] is only meaningful when
/// a_c[i] > 0.  Matches metrics::group_rent_exponent bitwise when
/// log_cut[i] = std::log(std::max(cut, 1e-9)) and log_k[i] = std::log(k).
void rent_clamp(const double* log_cut, const double* log_ac,
                const double* log_k, const double* a_c, std::size_t n,
                double* out);

/// Guaranteed enclosures of the selected score curve
///   v[i] = cutd[i] / (a_g * pow(k_i, expo[i]))   with log_k[i] = ln(k_i)
/// via a vectorized exp2 approximation:  lo[i] <= v[i] <= hi[i] always,
/// with hi/lo within a relative kCurveBoundEps of each other on the fast
/// path.  Lanes where the exponent product exceeds the safe range fall
/// back to the trivial enclosure [0, +inf).  Requires cutd[i] >= 0 and
/// expo[i] >= 0 (true for both score kinds).  Both backends produce
/// identical bits, but the *reference* semantics callers rely on is only
/// the enclosure: exact comparisons must re-evaluate with libm.
void bounded_scores(const double* cutd, const double* expo,
                    const double* log_k, std::size_t n, double a_g,
                    double* lo, double* hi);

// ---------------------------------------------------------------------------
// Scans (fixed lane-blocked order; min/max are order-free for non-NaN
// input but blocked anyway for one shared shape).
// ---------------------------------------------------------------------------

/// Minimum of v[0..n); +inf when n == 0.  No NaNs allowed.
[[nodiscard]] double min_value(const double* v, std::size_t n);

/// Maximum of v[0..n); -inf when n == 0.  No NaNs allowed.
[[nodiscard]] double max_value(const double* v, std::size_t n);

/// True iff some v[i] >= t.
[[nodiscard]] bool any_not_below(const double* v, std::size_t n, double t);

/// Collect indices i (ascending) with v[i] <= t into out[0..cap).
/// Returns the number written, or cap + 1 if more than cap matched
/// (out then holds the first cap matches).
[[nodiscard]] std::size_t collect_not_above(const double* v, std::size_t n,
                                            double t, std::uint32_t* out,
                                            std::size_t cap);

/// Collect indices i (ascending) with v[i] >= t; same cap contract.
[[nodiscard]] std::size_t collect_not_below(const double* v, std::size_t n,
                                            double t, std::uint32_t* out,
                                            std::size_t cap);

// ---------------------------------------------------------------------------
// Placer kernels (PCG building blocks).  All reductions use the fixed
// lane-blocked order described at the top of this header.
// ---------------------------------------------------------------------------

/// Blocked dot product of u and v.
[[nodiscard]] double dot_blocked(const double* u, const double* v,
                                 std::size_t n);

/// Fused CG update pair: x[i] += alpha * p[i]; r[i] -= alpha * ap[i].
void axpy2(std::size_t n, double alpha, const double* p, const double* ap,
           double* x, double* r);

/// p[i] = z[i] + beta * p[i].
void xpay(std::size_t n, const double* z, double beta, double* p);

/// Jacobi preconditioner with an explicit magnitude guard:
///   z[i] = |diag[i]| > 1e-12 ? r[i] / diag[i] : r[i]
void jacobi_precondition(std::size_t n, const double* diag, const double* r,
                         double* z);

/// CSR sparse matrix-vector product y = A x.  Each row's sum uses the
/// blocked reduction over its [row_offset[r], row_offset[r+1]) entries.
void spmv_csr(std::size_t n, const std::size_t* row_offset,
              const std::uint32_t* col, const double* val, const double* x,
              double* y);

// ---------------------------------------------------------------------------
// scalar_ref — the blocked-scalar implementations, always compiled,
// regardless of the active backend.  This is the embedded equivalence
// reference: tests call these mirrors and require bitwise equality with
// the public kernels above.
// ---------------------------------------------------------------------------
namespace scalar_ref {

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
[[nodiscard]] double min_value(const double* v, std::size_t n);
[[nodiscard]] double max_value(const double* v, std::size_t n);
[[nodiscard]] bool any_not_below(const double* v, std::size_t n, double t);
[[nodiscard]] std::size_t collect_not_above(const double* v, std::size_t n,
                                            double t, std::uint32_t* out,
                                            std::size_t cap);
[[nodiscard]] std::size_t collect_not_below(const double* v, std::size_t n,
                                            double t, std::uint32_t* out,
                                            std::size_t cap);
[[nodiscard]] double dot_blocked(const double* u, const double* v,
                                 std::size_t n);
void axpy2(std::size_t n, double alpha, const double* p, const double* ap,
           double* x, double* r);
void xpay(std::size_t n, const double* z, double beta, double* p);
void jacobi_precondition(std::size_t n, const double* diag, const double* r,
                         double* z);
void spmv_csr(std::size_t n, const std::size_t* row_offset,
              const std::uint32_t* col, const double* val, const double* x,
              double* y);

}  // namespace scalar_ref

}  // namespace gtl::simd
