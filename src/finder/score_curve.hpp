#pragma once
// Phase II support (paper §3.2.2): turn a linear ordering into score
// curves  Φ(C_k)  over its prefixes C_k, estimate the Rent exponent from
// the ordering itself, and detect a "clear minimum" — the signature of a
// discovered GTL (paper Figs. 2, 3, 5).
//
// The paper's criterion is informal ("if there is a clear minimum in this
// function, the corresponding cell group is selected").  We make it
// precise with three checks, each motivated by the curve shapes in Figs.
// 2-3: the minimum must (a) be deep in absolute terms (score below
// `accept_threshold`; average logic ≈ 1, strong GTLs « 1), (b) come after
// a pronounced drop (max-before-min / min >= `drop_factor` — the outside-
// GTL curve of Fig. 2 rises monotonically and never drops), and (c) not
// sit at the right edge of the curve (a still-falling curve means the
// ordering ran out of length before leaving the structure).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "metrics/scores.hpp"
#include "order/linear_ordering.hpp"

namespace gtl {

/// Which Φ drives candidate selection and pruning.
enum class ScoreKind {
  kNgtlS,   ///< normalized GTL-Score
  kGtlSd,   ///< density-aware GTL-Score (paper's final metric)
};

/// Score curves over every prefix of one linear ordering.
struct ScoreCurve {
  /// Per-prefix values, index k-1 for prefix size k.
  std::vector<double> ngtl_s;
  std::vector<double> gtl_sd;
  std::vector<double> ratio_cut;  ///< baseline, for Fig. 5
  /// Rent exponent estimated from this ordering: the mean over prefixes of
  /// (ln T(C_k) − ln A_Ck)/ln k  (paper §3.2.2), k >= rent_min_k.
  double rent_exponent = 0.6;
  /// The context the curves were computed with (A_G plus the above p).
  ScoreContext context;

  [[nodiscard]] const std::vector<double>& values(ScoreKind kind) const {
    return kind == ScoreKind::kNgtlS ? ngtl_s : gtl_sd;
  }
};

struct CurveConfig {
  /// Smallest prefix used for Rent-exponent estimation.
  std::size_t rent_min_k = 10;
};

/// Compute the score curves of an ordering.  A_G is taken from the
/// netlist; the Rent exponent is estimated from the ordering itself.
[[nodiscard]] ScoreCurve compute_score_curve(const Netlist& nl,
                                             const LinearOrdering& ordering,
                                             const CurveConfig& cfg = {});

/// Reusable scratch backing extract_curve_minimum.  One instance per
/// worker thread; every buffer keeps its capacity across seeds, so the
/// steady-state fast path allocates nothing.  The ln tables are shared
/// across seeds — k and the (small, heavily repeating) integer cuts are
/// the same arguments to the same std::log call no matter which ordering
/// is being scored, so memoizing them cannot change a single bit.
struct CurveScratch {
  /// log_k[k] = std::log(double(k)); index 0 unused, extended lazily.
  std::vector<double> log_k;
  /// log_cut[c] = std::log(double(c)) for c >= 1; log_cut[0] =
  /// std::log(1e-9), the T = 0 guard value.  Capped (large cuts fall back
  /// to a live std::log).
  std::vector<double> log_cut;
  /// Batch buffers for the SIMD kernels (util/simd.hpp): per-prefix
  /// average pins a_c(k), double(cut), pow exponents, and the score
  /// enclosures.
  std::vector<double> a_c;
  std::vector<double> cutd;
  std::vector<double> expo;
  std::vector<double> lo;
  std::vector<double> hi;
  /// Rent-pass batch buffers over prefixes k >= max(rent_min_k, 2).
  std::vector<double> rent_log_cut;
  std::vector<double> rent_log_ac;
  std::vector<double> rent_p;
  /// Ambiguous-lane indices of the enclosure scans.
  std::vector<std::uint32_t> idx;
};

/// Parameters of the clear-minimum test.
struct MinimumConfig {
  std::size_t min_size = 30;       ///< ignore tiny prefixes (paper §3.1)
  double accept_threshold = 0.75;  ///< minimum must score below this
  double drop_factor = 1.6;        ///< max-before-min / min must exceed this
  double rise_factor = 1.3;        ///< max-after-min / min must exceed this
  double edge_fraction = 0.02;     ///< reject minima in the last 2% of curve
};

/// A detected clear minimum.
struct ClearMinimum {
  std::size_t prefix_size = 0;  ///< k*: candidate GTL = first k* cells
  double value = 0.0;           ///< Φ(C_{k*})
};

/// Find the clear minimum of `curve` (one of ScoreCurve's value vectors),
/// or nullopt if no prefix passes the three checks.  The curve must be
/// NaN-free (every Φ is when A_G > 0).
[[nodiscard]] std::optional<ClearMinimum> find_clear_minimum(
    std::span<const double> curve, const MinimumConfig& cfg = {});

/// Result of the fused curve + clear-minimum extraction.
struct CurveExtremum {
  /// Identical bits to ScoreCurve::rent_exponent.
  double rent_exponent = 0.6;
  /// A_G plus the rent estimate — what every score was computed with.
  ScoreContext context;
  /// Bitwise identical to
  /// find_clear_minimum(compute_score_curve(...).values(kind), min_cfg);
  /// nullopt on a pinless netlist (A_G = 0), where no Φ is finite.
  std::optional<ClearMinimum> minimum;
};

/// The finder's Phase II hot path: the ordering's Rent estimate and the
/// clear minimum of the selected Φ's curve, without materializing the
/// curve.  The Rent pass reads ln k / ln T from the scratch memo tables
/// and runs the same k-order accumulation as compute_score_curve.  A
/// vectorized exp2 approximation (simd::bounded_scores) then encloses
/// every Φ(C_k) in a guaranteed [lo, hi] interval; the min scan and the
/// drop/rise tests run on the enclosures and re-evaluate only the few
/// ambiguous prefixes with the exact libm-backed score functions.  Every
/// comparison that decides the result is therefore made on exact values,
/// so the outcome — k*, its score bits, and the rent estimate — is
/// identical to the three-curve composition by construction (pinned by
/// tests/finder/score_curve_equivalence_test.cpp).  Costs ~1
/// transcendental per prefix (vs 5 for compute_score_curve) and no
/// allocation in steady state.
[[nodiscard]] CurveExtremum extract_curve_minimum(
    const Netlist& nl, const LinearOrdering& ordering, const CurveConfig& cfg,
    ScoreKind kind, const MinimumConfig& min_cfg, CurveScratch& scratch);

}  // namespace gtl
