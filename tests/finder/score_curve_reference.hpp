#pragma once
// Test-side reference for Phase II scoring: the original allocating
// three-curve implementation of src/finder/score_curve.cpp (verbatim
// modulo names), which the production fast path is pinned against bit
// for bit.  Shared by the finder equivalence tests and the SIMD
// differential fuzz.

#include <algorithm>
#include <cstddef>

#include "finder/score_curve.hpp"
#include "metrics/scores.hpp"
#include "netlist/netlist.hpp"
#include "order/linear_ordering.hpp"

namespace gtl::testing {

/// The ordering's Rent exponent estimate: the clamped mean over prefixes
/// k >= max(rent_min_k, 2) of the per-group estimate, 0.6 when there are
/// none.  Needs no A_G, so it is defined on pinless netlists too.
inline double reference_rent_exponent(const LinearOrdering& ordering,
                                      const CurveConfig& cfg) {
  const std::size_t n = ordering.cells.size();
  double p_sum = 0.0;
  std::size_t p_count = 0;
  for (std::size_t k = std::max<std::size_t>(cfg.rent_min_k, 2); k <= n; ++k) {
    const auto cut = static_cast<double>(ordering.prefix_cut[k - 1]);
    const double a_c = static_cast<double>(ordering.prefix_pins[k - 1]) /
                       static_cast<double>(k);
    p_sum += group_rent_exponent(cut, static_cast<double>(k), a_c);
    ++p_count;
  }
  const double p = p_count > 0 ? p_sum / static_cast<double>(p_count) : 0.6;
  return std::clamp(p, 0.1, 1.0);
}

inline ScoreCurve reference_score_curve(const Netlist& nl,
                                        const LinearOrdering& ordering,
                                        const CurveConfig& cfg) {
  const std::size_t n = ordering.cells.size();

  ScoreCurve out;
  out.context.avg_pins_per_cell = nl.average_pins_per_cell();
  out.rent_exponent = reference_rent_exponent(ordering, cfg);
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

}  // namespace gtl::testing
