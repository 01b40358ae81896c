#pragma once
// The paper's tangled-logic metrics (§3.1) and the classical clustering
// metrics they are compared against (Ch. II, Fig. 5).
//
// Given a group C with net cut T(C), size |C|, Rent exponent p, netlist
// average pin count A_G and group average pin count A_C:
//
//   ratio cut     RC(C)     = T(C) / |C|                    (favors large C)
//   Ng Rent metric Rent(C)  ∝ ln T(C) / ln |C|              (favors large C)
//   GTL-Score     GTL-S(C)  = T(C) / |C|^p                  (size-fair)
//   normalized    nGTL-S(C) = T(C) / (A_G · |C|^p)          (≈1 for average C)
//   density-aware GTL-SD(C) = T(C) / (A_G · |C|^(p·A_C/A_G))
//
// Smaller is more tangled; strong GTLs score « 1 (e.g. < 0.1).

#include <cstdint>

#include "metrics/group_connectivity.hpp"

namespace gtl {

/// Netlist-level constants needed by the normalized scores.
struct ScoreContext {
  double rent_exponent = 0.6;      ///< p
  double avg_pins_per_cell = 3.0;  ///< A(G)
};

/// GTL-S(C) = T / |C|^p.  A cut of 0 (fully absorbed group) scores 0.
[[nodiscard]] double gtl_score(double cut, double size, double rent_exponent);

/// nGTL-S(C) = T / (A_G · |C|^p).
[[nodiscard]] double ngtl_score(double cut, double size,
                                const ScoreContext& ctx);

/// GTL-SD(C) = T / (A_G · |C|^(p · A_C/A_G)); `avg_pins_in_group` is A_C.
[[nodiscard]] double gtl_sd_score(double cut, double size,
                                  double avg_pins_in_group,
                                  const ScoreContext& ctx);

/// Classical ratio cut T(C)/|C| (Chan-Schlag-Zien; also Scaled Cost's
/// per-cluster term).  Shown in Fig. 5 to overly favor large groups.
[[nodiscard]] double ratio_cut(double cut, double size);

/// Ng-Oldfield-Pitchumani Rent-exponent metric  ln T(C) / ln |C|.
/// Monotonically decreases as C grows (paper Ch. II, item 4).
[[nodiscard]] double ng_rent_metric(double cut, double size);

/// Per-group Rent exponent estimate  (ln T(C) − ln A_C) / ln |C|
/// (paper §3.2.2), clamped to [0, 1]. Used by Phase II, averaged over all
/// prefixes of a linear ordering.
[[nodiscard]] double group_rent_exponent(double cut, double size,
                                         double avg_pins_in_group);

/// All three GTL metrics of one tracked group, in one call.
struct GtlScores {
  double gtl_s = 0.0;
  double ngtl_s = 0.0;
  double gtl_sd = 0.0;
};
[[nodiscard]] GtlScores score_group(const GroupConnectivity& group,
                                    const ScoreContext& ctx);

}  // namespace gtl
