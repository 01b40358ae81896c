#include "metrics/scores.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace gtl {

double gtl_score(double cut, double size, double rent_exponent) {
  GTL_REQUIRE(size >= 1.0, "group must be non-empty");
  GTL_REQUIRE(cut >= 0.0, "cut must be non-negative");
  return cut / std::pow(size, rent_exponent);
}

double ngtl_score(double cut, double size, const ScoreContext& ctx) {
  GTL_REQUIRE(ctx.avg_pins_per_cell > 0.0, "A(G) must be positive");
  return gtl_score(cut, size, ctx.rent_exponent) / ctx.avg_pins_per_cell;
}

double gtl_sd_score(double cut, double size, double avg_pins_in_group,
                    const ScoreContext& ctx) {
  GTL_REQUIRE(ctx.avg_pins_per_cell > 0.0, "A(G) must be positive");
  GTL_REQUIRE(avg_pins_in_group >= 0.0, "A_C must be non-negative");
  const double density = avg_pins_in_group / ctx.avg_pins_per_cell;
  const double exponent = ctx.rent_exponent * density;
  return cut / (ctx.avg_pins_per_cell * std::pow(size, exponent));
}

double ratio_cut(double cut, double size) {
  GTL_REQUIRE(size >= 1.0, "group must be non-empty");
  return cut / size;
}

double ng_rent_metric(double cut, double size) {
  GTL_REQUIRE(size >= 1.0, "group must be non-empty");
  if (size < 2.0) return 1.0;               // ln|C| = 0: undefined, neutral
  if (cut < 1.0) return 0.0;                // fully absorbed
  return std::log(cut) / std::log(size);
}

double group_rent_exponent(double cut, double size, double avg_pins_in_group) {
  GTL_REQUIRE(size >= 1.0, "group must be non-empty");
  if (size < 2.0 || avg_pins_in_group <= 0.0) return 1.0;
  const double log_cut = std::log(std::max(cut, 1e-9));
  const double p = (log_cut - std::log(avg_pins_in_group)) / std::log(size);
  return std::clamp(p, 0.0, 1.0);
}

GtlScores score_group(const GroupConnectivity& group, const ScoreContext& ctx) {
  GtlScores s;
  const auto cut = static_cast<double>(group.cut());
  const auto size = static_cast<double>(group.size());
  if (group.size() == 0) return s;
  s.gtl_s = gtl_score(cut, size, ctx.rent_exponent);
  s.ngtl_s = ngtl_score(cut, size, ctx);
  s.gtl_sd = gtl_sd_score(cut, size, group.avg_pins_per_cell(), ctx);
  return s;
}

}  // namespace gtl
