// Differential fuzzing for the SIMD kernel layer (ctest label: fuzz).
//
// Property under test: whichever backend this binary was built with
// (GTL_SIMD=avx2 or scalar) is BITWISE interchangeable with the embedded
// blocked-scalar reference gtl::simd::scalar_ref, on random inputs and
// on the edge shapes vector code gets wrong first — n = 0/1, sizes that
// are not a multiple of the lane width, all-equal inputs, huge integers
// past the exact-conversion range, singular/negative diagonals.  On top
// of the kernel level, the fused finder fast path and the PCG solver are
// fuzzed end to end against their exact compositions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "finder/score_curve.hpp"
#include "finder/score_curve_reference.hpp"
#include "graphgen/planted_graph.hpp"
#include "metrics/scores.hpp"
#include "order/linear_ordering.hpp"
#include "place/linear_system.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace gtl {
namespace {

constexpr std::size_t kSizes[] = {0,  1,  2,  3,  4,   5,   7,  8,
                                  15, 16, 17, 33, 100, 255, 1021};

double random_double(Rng& rng) {
  // Mix magnitudes: uniform [0,1), scaled, and occasional exact zeros.
  const std::uint64_t pick = rng.next_below(8);
  if (pick == 0) return 0.0;
  const double u = rng.next_double();
  if (pick == 1) return u * 1e-6;
  if (pick == 2) return u * 1e9;
  if (pick == 3) return -u;
  return u;
}

std::vector<double> random_array(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = random_double(rng);
  return v;
}

void expect_bits_equal(std::span<const double> got,
                       std::span<const double> want, const char* what,
                       std::size_t n) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << " n=" << n << " lane " << i << ": " << got[i] << " vs "
        << want[i];
  }
}

void expect_scalar_bits_equal(double got, double want, const char* what,
                              std::size_t n) {
  ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
      << what << " n=" << n << ": " << got << " vs " << want;
}

TEST(SimdDifferential, ElementwiseKernelsMatchScalarRef) {
  Rng rng(2026'08'08);
  for (const std::size_t n : kSizes) {
    const std::vector<double> a = random_array(rng, n);
    const std::vector<double> b = random_array(rng, n);
    std::vector<double> got(n), want(n);

    simd::div_by_scalar(a.data(), n, 3.7, got.data());
    simd::scalar_ref::div_by_scalar(a.data(), n, 3.7, want.data());
    expect_bits_equal(got, want, "div_by_scalar", n);

    simd::mul_by_scalar(a.data(), n, -0.3, got.data());
    simd::scalar_ref::mul_by_scalar(a.data(), n, -0.3, want.data());
    expect_bits_equal(got, want, "mul_by_scalar", n);

    simd::sub_elem(a.data(), b.data(), n, got.data());
    simd::scalar_ref::sub_elem(a.data(), b.data(), n, want.data());
    expect_bits_equal(got, want, "sub_elem", n);
  }
}

TEST(SimdDifferential, IntegerConversionsMatchScalarRefIncludingHugeValues) {
  Rng rng(77);
  for (const std::size_t n : kSizes) {
    std::vector<std::uint64_t> pins(n);
    std::vector<std::int64_t> cut(n);
    for (std::size_t i = 0; i < n; ++i) {
      switch (rng.next_below(5)) {
        case 0:  // past the 2^52 / 2^51 exact-conversion guards
          pins[i] = (1ULL << 52) + rng.next();
          cut[i] = static_cast<std::int64_t>((1LL << 51) + rng.next_below(
                                                               1ULL << 60));
          break;
        case 1:
          pins[i] = 0;
          cut[i] = 0;
          break;
        case 2:  // negative cuts exercise the signed trick's low range
          pins[i] = rng.next_below(1000);
          cut[i] = -static_cast<std::int64_t>(rng.next_below(1ULL << 52));
          break;
        default:
          pins[i] = rng.next_below(1ULL << 40);
          cut[i] = static_cast<std::int64_t>(rng.next_below(1ULL << 40));
      }
    }
    std::vector<double> got(n), want(n);
    simd::cut_to_double(cut.data(), n, got.data());
    simd::scalar_ref::cut_to_double(cut.data(), n, want.data());
    expect_bits_equal(got, want, "cut_to_double", n);

    for (const std::size_t k0 : {std::size_t{1}, std::size_t{3}}) {
      simd::pins_over_index(pins.data(), n, k0, got.data());
      simd::scalar_ref::pins_over_index(pins.data(), n, k0, want.data());
      expect_bits_equal(got, want, "pins_over_index", n);
    }
  }
}

TEST(SimdDifferential, ScansAndCollectorsMatchScalarRef) {
  Rng rng(424242);
  for (const std::size_t n : kSizes) {
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<double> v = random_array(rng, n);
      if (variant == 1) {  // all-equal array: every lane ties
        std::fill(v.begin(), v.end(), 0.25);
      }
      if (n == 0) {
        EXPECT_EQ(simd::min_value(v.data(), 0),
                  std::numeric_limits<double>::infinity());
        EXPECT_EQ(simd::max_value(v.data(), 0),
                  -std::numeric_limits<double>::infinity());
      }
      expect_scalar_bits_equal(simd::min_value(v.data(), n),
                               simd::scalar_ref::min_value(v.data(), n),
                               "min_value", n);
      expect_scalar_bits_equal(simd::max_value(v.data(), n),
                               simd::scalar_ref::max_value(v.data(), n),
                               "max_value", n);
      const double t = variant == 2 ? 0.25 : random_double(rng);
      EXPECT_EQ(simd::any_not_below(v.data(), n, t),
                simd::scalar_ref::any_not_below(v.data(), n, t))
          << "any_not_below n=" << n;
      for (const std::size_t cap : {std::size_t{0}, std::size_t{3},
                                    std::size_t{64}, n + 1}) {
        std::vector<std::uint32_t> got_idx(cap + 1, 0xFFFFFFFF);
        std::vector<std::uint32_t> want_idx(cap + 1, 0xFFFFFFFF);
        const std::size_t got = simd::collect_not_above(
            v.data(), n, t, got_idx.data(), cap);
        const std::size_t want = simd::scalar_ref::collect_not_above(
            v.data(), n, t, want_idx.data(), cap);
        ASSERT_EQ(got, want) << "collect_not_above n=" << n << " cap=" << cap;
        EXPECT_EQ(got_idx, want_idx) << "collect_not_above n=" << n;
        const std::size_t got2 = simd::collect_not_below(
            v.data(), n, t, got_idx.data(), cap);
        const std::size_t want2 = simd::scalar_ref::collect_not_below(
            v.data(), n, t, want_idx.data(), cap);
        ASSERT_EQ(got2, want2) << "collect_not_below n=" << n;
        EXPECT_EQ(got_idx, want_idx) << "collect_not_below n=" << n;
      }
    }
  }
}

TEST(SimdDifferential, RentClampAndBoundsMatchScalarRef) {
  Rng rng(90210);
  for (const std::size_t n : kSizes) {
    std::vector<double> log_cut(n), log_ac(n), log_k(n), a_c(n);
    std::vector<double> cutd(n), expo(n);
    for (std::size_t i = 0; i < n; ++i) {
      a_c[i] = rng.next_below(10) == 0 ? 0.0 : rng.next_double() * 8.0;
      log_ac[i] = a_c[i] > 0.0 ? std::log(a_c[i]) : 0.0;
      log_cut[i] = std::log(1.0 + rng.next_double() * 1e4);
      log_k[i] = std::log(static_cast<double>(i + 2));
      cutd[i] = rng.next_below(6) == 0
                    ? 0.0
                    : static_cast<double>(rng.next_below(100000));
      // Include exponents that push t past the kMaxT fallback.
      expo[i] = rng.next_below(12) == 0 ? 500.0 : rng.next_double() * 3.0;
    }
    std::vector<double> got(n), want(n), got2(n), want2(n);
    simd::rent_clamp(log_cut.data(), log_ac.data(), log_k.data(), a_c.data(),
                     n, got.data());
    simd::scalar_ref::rent_clamp(log_cut.data(), log_ac.data(), log_k.data(),
                                 a_c.data(), n, want.data());
    expect_bits_equal(got, want, "rent_clamp", n);

    simd::bounded_scores(cutd.data(), expo.data(), log_k.data(), n, 2.5,
                         got.data(), got2.data());
    simd::scalar_ref::bounded_scores(cutd.data(), expo.data(), log_k.data(),
                                     n, 2.5, want.data(), want2.data());
    expect_bits_equal(got, want, "bounded_scores lo", n);
    expect_bits_equal(got2, want2, "bounded_scores hi", n);
  }
}

TEST(SimdDifferential, BoundedScoresEncloseTheExactScore) {
  // The fused fast path is only correct if [lo, hi] always contains the
  // exact libm-evaluated score — fuzz the enclosure invariant directly.
  Rng rng(5150);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + rng.next_below(300);
    const double a_g = 0.5 + rng.next_double() * 7.5;
    std::vector<double> cutd(n), expo(n), log_k(n), lo(n), hi(n);
    for (std::size_t i = 0; i < n; ++i) {
      cutd[i] = static_cast<double>(rng.next_below(1'000'000));
      expo[i] = rng.next_double() * (rng.next_below(2) != 0u ? 1.0 : 40.0);
      log_k[i] = std::log(static_cast<double>(i + 1));
    }
    simd::bounded_scores(cutd.data(), expo.data(), log_k.data(), n, a_g,
                         lo.data(), hi.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double exact =
          cutd[i] /
          (a_g * std::pow(static_cast<double>(i + 1), expo[i]));
      EXPECT_LE(lo[i], exact) << "round " << round << " lane " << i;
      EXPECT_GE(hi[i], exact) << "round " << round << " lane " << i;
    }
  }
}

// --- fused finder fast path on synthetic curves --------------------------

/// A netlist is only consulted for average_pins_per_cell, so one small
/// planted graph serves every synthetic ordering.
const Netlist& shared_netlist() {
  static const PlantedGraph pg = [] {
    PlantedGraphConfig gcfg;
    gcfg.num_cells = 600;
    gcfg.gtls.push_back({80, 2});
    Rng rng(1);
    return generate_planted_graph(gcfg, rng);
  }();
  return pg.netlist;
}

LinearOrdering synthetic_ordering(Rng& rng, std::size_t n, int shape) {
  LinearOrdering ord;
  ord.seed = 0;
  ord.cells.resize(n);
  ord.prefix_cut.resize(n);
  ord.prefix_pins.resize(n);
  std::uint64_t pins = 0;
  for (std::size_t k = 1; k <= n; ++k) {
    ord.cells[k - 1] = static_cast<CellId>(k - 1);
    pins += 1 + rng.next_below(6);
    ord.prefix_pins[k - 1] = pins;
    switch (shape) {
      case 0:  // V shape: clear minimum in the middle
        ord.prefix_cut[k - 1] = static_cast<std::int64_t>(
            10 + (k > n / 2 ? k - n / 2 : n / 2 - k) * 3 +
            rng.next_below(3));
        break;
      case 1:  // all-equal curve: every prefix ties
        ord.prefix_cut[k - 1] = 42;
        ord.prefix_pins[k - 1] = 4 * k;
        break;
      case 2:  // monotone rising: background logic, no minimum
        ord.prefix_cut[k - 1] = static_cast<std::int64_t>(3 * k);
        break;
      default:  // noise, with occasional zero cuts
        ord.prefix_cut[k - 1] = static_cast<std::int64_t>(
            rng.next_below(8) == 0 ? 0 : rng.next_below(200));
    }
  }
  return ord;
}

TEST(SimdDifferential, FusedExtractMatchesExactCompositionOnSyntheticCurves) {
  const Netlist& nl = shared_netlist();
  Rng rng(31337);
  CurveScratch scratch;
  for (int round = 0; round < 120; ++round) {
    const std::size_t n = 1 + rng.next_below(400);
    const int shape = round % 4;
    const LinearOrdering ord = synthetic_ordering(rng, n, shape);
    MinimumConfig mcfg;
    mcfg.min_size = 1 + rng.next_below(40);
    mcfg.accept_threshold =
        rng.next_below(3) == 0 ? 1e12 : 0.1 + rng.next_double() * 2.0;
    mcfg.drop_factor = 0.5 + rng.next_double() * 2.0;
    mcfg.rise_factor = 0.5 + rng.next_double() * 2.0;
    mcfg.edge_fraction = rng.next_double() * 0.2;
    const CurveConfig ccfg{.rent_min_k = 1 + rng.next_below(20)};
    for (const ScoreKind kind : {ScoreKind::kGtlSd, ScoreKind::kNgtlS}) {
      const ScoreCurve ref = testing::reference_score_curve(nl, ord, ccfg);
      const auto want = find_clear_minimum(ref.values(kind), mcfg);
      const CurveExtremum got =
          extract_curve_minimum(nl, ord, ccfg, kind, mcfg, scratch);
      ASSERT_EQ(got.rent_exponent, ref.rent_exponent) << "round " << round;
      ASSERT_EQ(got.minimum.has_value(), want.has_value())
          << "round " << round << " shape " << shape << " n " << n;
      if (want) {
        ASSERT_EQ(got.minimum->prefix_size, want->prefix_size)
            << "round " << round;
        ASSERT_EQ(got.minimum->value, want->value) << "round " << round;
      }
    }
  }
}

// --- random SPD systems: production solver vs scalar_ref composition -----

TEST(SimdDifferential, PcgKernelsMatchScalarRefOnRandomSystems) {
  Rng rng(60606);
  for (int round = 0; round < 60; ++round) {
    const std::size_t n = 1 + rng.next_below(50);
    std::vector<double> u = random_array(rng, n);
    std::vector<double> v = random_array(rng, n);
    std::vector<double> diag(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Singular and negative diagonals included on purpose.
      switch (rng.next_below(4)) {
        case 0: diag[i] = 0.0; break;
        case 1: diag[i] = -1.0 - rng.next_double(); break;
        case 2: diag[i] = 1e-13; break;
        default: diag[i] = 0.5 + rng.next_double() * 4.0;
      }
    }
    expect_scalar_bits_equal(simd::dot_blocked(u.data(), v.data(), n),
                             simd::scalar_ref::dot_blocked(u.data(), v.data(),
                                                           n),
                             "dot_blocked", n);
    std::vector<double> x1 = u, r1 = v, x2 = u, r2 = v;
    simd::axpy2(n, 0.37, v.data(), u.data(), x1.data(), r1.data());
    simd::scalar_ref::axpy2(n, 0.37, v.data(), u.data(), x2.data(),
                            r2.data());
    expect_bits_equal(x1, x2, "axpy2 x", n);
    expect_bits_equal(r1, r2, "axpy2 r", n);

    std::vector<double> p1 = u, p2 = u;
    simd::xpay(n, v.data(), -1.7, p1.data());
    simd::scalar_ref::xpay(n, v.data(), -1.7, p2.data());
    expect_bits_equal(p1, p2, "xpay", n);

    std::vector<double> z1(n), z2(n);
    simd::jacobi_precondition(n, diag.data(), v.data(), z1.data());
    simd::scalar_ref::jacobi_precondition(n, diag.data(), v.data(),
                                          z2.data());
    expect_bits_equal(z1, z2, "jacobi", n);
  }
}

TEST(SimdDifferential, SpmvMatchesScalarRefOnRandomSparsity) {
  Rng rng(808);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + rng.next_below(60);
    // Random CSR with empty rows and non-multiple-of-lane row lengths.
    std::vector<std::size_t> row_offset(1, 0);
    std::vector<std::uint32_t> col;
    std::vector<double> val;
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t len = rng.next_below(10);
      for (std::size_t e = 0; e < len; ++e) {
        col.push_back(static_cast<std::uint32_t>(rng.next_below(n)));
        val.push_back(random_double(rng));
      }
      row_offset.push_back(col.size());
    }
    const std::vector<double> x = random_array(rng, n);
    std::vector<double> got(n), want(n);
    simd::spmv_csr(n, row_offset.data(), col.data(), val.data(), x.data(),
                   got.data());
    simd::scalar_ref::spmv_csr(n, row_offset.data(), col.data(), val.data(),
                               x.data(), want.data());
    expect_bits_equal(got, want, "spmv_csr", n);
  }
  // n = 0: a legal empty matrix must be a no-op for both backends.
  const std::size_t zero_off[] = {0};
  simd::spmv_csr(0, zero_off, nullptr, nullptr, nullptr, nullptr);
  simd::scalar_ref::spmv_csr(0, zero_off, nullptr, nullptr, nullptr, nullptr);
}

}  // namespace
}  // namespace gtl
