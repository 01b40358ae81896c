#include "finder/score_curve.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"
#include "util/simd.hpp"

namespace gtl {

ScoreCurve compute_score_curve(const Netlist& nl,
                               const LinearOrdering& ordering,
                               const CurveConfig& cfg) {
  GTL_REQUIRE(!ordering.cells.empty(), "ordering is empty");
  const std::size_t n = ordering.cells.size();
  GTL_REQUIRE(ordering.prefix_cut.size() == n &&
                  ordering.prefix_pins.size() == n,
              "ordering prefix arrays inconsistent");

  ScoreCurve out;
  out.context.avg_pins_per_cell = nl.average_pins_per_cell();

  // Rent exponent: mean over prefixes of the paper's per-group estimate.
  double p_sum = 0.0;
  std::size_t p_count = 0;
  for (std::size_t k = std::max<std::size_t>(cfg.rent_min_k, 2); k <= n; ++k) {
    const auto cut = static_cast<double>(ordering.prefix_cut[k - 1]);
    const double a_c = static_cast<double>(ordering.prefix_pins[k - 1]) /
                       static_cast<double>(k);
    p_sum += group_rent_exponent(cut, static_cast<double>(k), a_c);
    ++p_count;
  }
  out.rent_exponent = p_count > 0 ? p_sum / static_cast<double>(p_count) : 0.6;
  out.rent_exponent = std::clamp(out.rent_exponent, 0.1, 1.0);
  out.context.rent_exponent = out.rent_exponent;

  out.ngtl_s.resize(n);
  out.gtl_sd.resize(n);
  out.ratio_cut.resize(n);
  for (std::size_t k = 1; k <= n; ++k) {
    const auto cut = static_cast<double>(ordering.prefix_cut[k - 1]);
    const auto size = static_cast<double>(k);
    const double a_c =
        static_cast<double>(ordering.prefix_pins[k - 1]) / size;
    out.ngtl_s[k - 1] = ngtl_score(cut, size, out.context);
    out.gtl_sd[k - 1] = gtl_sd_score(cut, size, a_c, out.context);
    out.ratio_cut[k - 1] = ratio_cut(cut, size);
  }
  return out;
}

namespace {

/// Cap on the ln T memo (128 KiB per scratch): covers every realistic
/// prefix cut; larger cuts pay one live std::log.
constexpr std::size_t kLogCutCap = 16'384;

/// How many ambiguous prefixes the fused fast path re-evaluates exactly
/// before falling back to a dense exact scan of the whole range.
constexpr std::size_t kAmbiguousCap = 64;

double memoized_log_cut(CurveScratch& scratch, std::int64_t cut) {
  if (cut >= 0 && static_cast<std::size_t>(cut) < kLogCutCap) {
    const auto c = static_cast<std::size_t>(cut);
    if (c >= scratch.log_cut.size()) {
      const std::size_t c0 = scratch.log_cut.size();
      const std::size_t grown =
          std::min(kLogCutCap, std::max<std::size_t>(2 * (c + 1), 256));
      scratch.log_cut.resize(grown);
      for (std::size_t x = c0; x < grown; ++x) {
        scratch.log_cut[x] =
            std::log(x == 0 ? 1e-9 : static_cast<double>(x));
      }
    }
    return scratch.log_cut[c];
  }
  return std::log(std::max(static_cast<double>(cut), 1e-9));
}

void ensure_log_k(CurveScratch& scratch, std::size_t n) {
  if (scratch.log_k.size() < n + 1) {
    const std::size_t k0 = std::max<std::size_t>(scratch.log_k.size(), 1);
    scratch.log_k.resize(n + 1);
    for (std::size_t k = k0; k <= n; ++k) {
      scratch.log_k[k] = std::log(static_cast<double>(k));
    }
  }
}

/// Rent pass of extract_curve_minimum: the same k-order accumulation as
/// compute_score_curve with ln k / ln T read from the memo tables and the
/// per-prefix clamp evaluated by the rent_clamp kernel (same ops per
/// element => same bits).  Requires scratch.a_c and scratch.log_k filled
/// for [1, n].  Returns the clamped mean, which every score depends on —
/// so the score pass cannot fuse with this one.
double batched_rent_exponent(const LinearOrdering& ordering,
                             const CurveConfig& cfg, CurveScratch& scratch,
                             std::size_t n) {
  const std::size_t start = std::max<std::size_t>(cfg.rent_min_k, 2);
  if (start > n) return std::clamp(0.6, 0.1, 1.0);
  const std::size_t m = n - start + 1;
  scratch.rent_log_cut.resize(m);
  scratch.rent_log_ac.resize(m);
  scratch.rent_p.resize(m);
  const double* a_c = scratch.a_c.data() + (start - 1);
  for (std::size_t i = 0; i < m; ++i) {
    scratch.rent_log_cut[i] =
        memoized_log_cut(scratch, ordering.prefix_cut[start - 1 + i]);
    // Guard lanes (a_c <= 0) never read log_ac; 0.0 keeps them defined.
    scratch.rent_log_ac[i] = a_c[i] > 0.0 ? std::log(a_c[i]) : 0.0;
  }
  simd::rent_clamp(scratch.rent_log_cut.data(), scratch.rent_log_ac.data(),
                   scratch.log_k.data() + start, a_c, m,
                   scratch.rent_p.data());
  double p_sum = 0.0;
  for (std::size_t i = 0; i < m; ++i) p_sum += scratch.rent_p[i];
  const double mean = p_sum / static_cast<double>(m);
  return std::clamp(mean, 0.1, 1.0);
}

}  // namespace

std::optional<ClearMinimum> find_clear_minimum(std::span<const double> curve,
                                               const MinimumConfig& cfg) {
  const std::size_t n = curve.size();
  if (n < cfg.min_size || cfg.min_size == 0) return std::nullopt;

  // Right-edge guard: a minimum in the final stretch means the curve was
  // still falling when the ordering ended.
  const auto last_valid = static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - cfg.edge_fraction)));
  if (last_valid < cfg.min_size) return std::nullopt;

  // First-wins argmin over [min_size, last_valid]: the blocked min scan
  // finds the value, the forward scan finds its first position (ties kept
  // exactly as the sequential strict-< loop would).
  const double* base = curve.data() + (cfg.min_size - 1);
  const std::size_t count = last_valid - cfg.min_size + 1;
  const double m = simd::min_value(base, count);
  std::size_t best_k = 0;
  double best_v = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (base[i] == m) {
      best_k = cfg.min_size + i;
      best_v = base[i];
      break;
    }
  }
  if (best_k == 0) return std::nullopt;
  if (best_v >= cfg.accept_threshold) return std::nullopt;

  // Drop test: the curve must have risen well above the minimum earlier
  // (a monotone-rising background curve, Fig. 2, has no such drop).
  const double max_before =
      std::max(0.0, simd::max_value(base, best_k - cfg.min_size + 1));
  if (max_before < cfg.drop_factor * std::max(best_v, 1e-12)) {
    return std::nullopt;
  }
  // Rise test: after absorbing the whole GTL, adding outside cells must
  // push the score back up (paper §3.1).  A curve still falling at its
  // end means the ordering ended inside a structure — no boundary found.
  const double max_after = std::max(
      0.0, simd::max_value(curve.data() + (best_k - 1), n - best_k + 1));
  if (max_after < cfg.rise_factor * std::max(best_v, 1e-12)) {
    return std::nullopt;
  }
  return ClearMinimum{best_k, best_v};
}

CurveExtremum extract_curve_minimum(const Netlist& nl,
                                    const LinearOrdering& ordering,
                                    const CurveConfig& cfg, ScoreKind kind,
                                    const MinimumConfig& min_cfg,
                                    CurveScratch& scratch) {
  GTL_REQUIRE(!ordering.cells.empty(), "ordering is empty");
  const std::size_t n = ordering.cells.size();
  GTL_REQUIRE(ordering.prefix_cut.size() == n &&
                  ordering.prefix_pins.size() == n,
              "ordering prefix arrays inconsistent");

  CurveExtremum out;
  out.context.avg_pins_per_cell = nl.average_pins_per_cell();
  ensure_log_k(scratch, n);
  scratch.a_c.resize(n);
  simd::pins_over_index(ordering.prefix_pins.data(), n, 1,
                        scratch.a_c.data());
  out.rent_exponent = batched_rent_exponent(ordering, cfg, scratch, n);
  out.context.rent_exponent = out.rent_exponent;

  // Degenerate netlist (no pins, A_G = 0): every Φ divides by A_G and is
  // NaN or inf, so no prefix can pass the clear-minimum tests (and the
  // enclosure argument below needs A_G > 0).
  if (!(out.context.avg_pins_per_cell > 0.0)) return out;

  // Same domain guards as find_clear_minimum, decided before any score.
  if (n < min_cfg.min_size || min_cfg.min_size == 0) return out;
  const auto last_valid = static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - min_cfg.edge_fraction)));
  if (last_valid < min_cfg.min_size) return out;

  // Enclose every Φ(C_k) in [lo, hi] with the vectorized exp2 bound; the
  // exact libm path below is only consulted where intervals overlap a
  // decision.  kNgtlS uses a constant exponent p; kGtlSd uses
  // p * (a_c / A_G) computed with the exact kernel ops (the bound needs
  // only the value, not its rounding, but reusing the exact expo array
  // costs nothing).
  scratch.cutd.resize(n);
  simd::cut_to_double(ordering.prefix_cut.data(), n, scratch.cutd.data());
  scratch.expo.resize(n);
  const double a_g = out.context.avg_pins_per_cell;
  const double p = out.context.rent_exponent;
  if (kind == ScoreKind::kNgtlS) {
    std::fill(scratch.expo.begin(), scratch.expo.end(), p);
  } else {
    simd::div_by_scalar(scratch.a_c.data(), n, a_g, scratch.expo.data());
    simd::mul_by_scalar(scratch.expo.data(), n, p, scratch.expo.data());
  }
  scratch.lo.resize(n);
  scratch.hi.resize(n);
  simd::bounded_scores(scratch.cutd.data(), scratch.expo.data(),
                       scratch.log_k.data() + 1, n, a_g, scratch.lo.data(),
                       scratch.hi.data());

  // Exact Φ(C_k), bit-for-bit the compute_score_curve value: the same
  // score function on the same operand bits.  cut == 0 shortcuts to
  // +0.0 — the exponent is >= 0 so the denominator is >= A_G > 0
  // (possibly +inf), and 0/positive == +0.
  const auto exact_at = [&](std::size_t k) {
    const std::int64_t cut_i = ordering.prefix_cut[k - 1];
    if (cut_i == 0) return 0.0;
    const auto cut = static_cast<double>(cut_i);
    const auto size = static_cast<double>(k);
    return kind == ScoreKind::kNgtlS
               ? ngtl_score(cut, size, out.context)
               : gtl_sd_score(cut, size, scratch.a_c[k - 1], out.context);
  };

  // --- Minimum scan on [min_size, last_valid] -------------------------
  // m = min(hi) bounds the true minimum from above; every k with
  // lo[k] <= m could be (or tie) the first argmin, nothing else can.
  // Evaluating those candidates exactly in ascending k reproduces the
  // sequential strict-< scan: all minimum achievers are candidates, so
  // the first exact achiever wins, and non-candidates are strictly
  // greater than the minimum.
  const double* lo = scratch.lo.data() + (min_cfg.min_size - 1);
  const double* hi = scratch.hi.data() + (min_cfg.min_size - 1);
  const std::size_t count = last_valid - min_cfg.min_size + 1;
  const double m = simd::min_value(hi, count);
  scratch.idx.resize(kAmbiguousCap);
  std::size_t best_k = 0;
  double best_v = 0.0;
  const std::size_t got =
      simd::collect_not_above(lo, count, m, scratch.idx.data(),
                              kAmbiguousCap);
  if (got > kAmbiguousCap) {
    // Overly flat curve: bounds cannot separate candidates, run the
    // reference scan densely.
    for (std::size_t k = min_cfg.min_size; k <= last_valid; ++k) {
      const double v = exact_at(k);
      if (best_k == 0 || v < best_v) {
        best_k = k;
        best_v = v;
      }
    }
  } else {
    for (std::size_t i = 0; i < got; ++i) {
      const std::size_t k = min_cfg.min_size + scratch.idx[i];
      const double v = exact_at(k);
      if (best_k == 0 || v < best_v) {
        best_k = k;
        best_v = v;
      }
    }
  }
  if (best_k == 0) return out;
  if (best_v >= min_cfg.accept_threshold) return out;

  // --- Drop / rise tests ---------------------------------------------
  // Each is an existence test "does some Φ in the range reach t?"
  // (scores are >= 0, so the reference's max-against-0 seed cannot
  // change the outcome).  Bounds decide all lanes with hi < t (no) or
  // lo >= t (yes); ambiguous lanes re-evaluate exactly.
  const auto range_reaches = [&](std::size_t ka, std::size_t kb, double t) {
    const double* l = scratch.lo.data() + (ka - 1);
    const double* h = scratch.hi.data() + (ka - 1);
    const std::size_t c = kb - ka + 1;
    if (!simd::any_not_below(h, c, t)) return false;
    if (simd::any_not_below(l, c, t)) return true;
    const std::size_t amb =
        simd::collect_not_below(h, c, t, scratch.idx.data(), kAmbiguousCap);
    if (amb > kAmbiguousCap) {
      for (std::size_t k = ka; k <= kb; ++k) {
        if (exact_at(k) >= t) return true;
      }
      return false;
    }
    for (std::size_t i = 0; i < amb; ++i) {
      if (exact_at(ka + scratch.idx[i]) >= t) return true;
    }
    return false;
  };

  const double drop_at = min_cfg.drop_factor * std::max(best_v, 1e-12);
  if (!range_reaches(min_cfg.min_size, best_k, drop_at)) return out;
  const double rise_at = min_cfg.rise_factor * std::max(best_v, 1e-12);
  if (!range_reaches(best_k, n, rise_at)) return out;

  out.minimum = ClearMinimum{best_k, best_v};
  return out;
}

}  // namespace gtl
