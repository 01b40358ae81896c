#include "finder/candidate.hpp"

#include <algorithm>
#include <cassert>

#include "util/require.hpp"

namespace gtl {
namespace {

/// Shared tail of score_members / score_sorted_members: `c.cells` is
/// already populated (sorted), `group` already holds the members.
Candidate finish_scored(Candidate c, std::size_t num_members,
                        const GroupConnectivity& group,
                        const ScoreContext& ctx, ScoreKind kind) {
  c.cut = group.cut();
  c.avg_pins = group.avg_pins_per_cell();
  const auto cut = static_cast<double>(c.cut);
  const auto size = static_cast<double>(num_members);
  c.ngtl_s = ngtl_score(cut, size, ctx);
  c.gtl_sd = gtl_sd_score(cut, size, c.avg_pins, ctx);
  c.score = kind == ScoreKind::kNgtlS ? c.ngtl_s : c.gtl_sd;
  c.rent_exponent_used = ctx.rent_exponent;
  return c;
}

}  // namespace

Candidate score_members(std::span<const CellId> members,
                        GroupConnectivity& group, const ScoreContext& ctx,
                        ScoreKind kind) {
  GTL_REQUIRE(!members.empty(), "cannot score an empty group");
  group.assign(members);

  Candidate c;
  c.cells.assign(members.begin(), members.end());
  std::sort(c.cells.begin(), c.cells.end());
  return finish_scored(std::move(c), members.size(), group, ctx, kind);
}

Candidate score_sorted_members(std::span<const CellId> members,
                               GroupConnectivity& group,
                               const ScoreContext& ctx, ScoreKind kind) {
  GTL_REQUIRE(!members.empty(), "cannot score an empty group");
  assert(std::is_sorted(members.begin(), members.end()) &&
         "score_sorted_members requires members sorted by cell id");
  group.assign(members);

  Candidate c;
  c.cells.assign(members.begin(), members.end());
  return finish_scored(std::move(c), members.size(), group, ctx, kind);
}

Extraction extract_candidate(const Netlist& nl, const LinearOrdering& ordering,
                             ScoreKind kind, const CurveConfig& curve_cfg,
                             const MinimumConfig& min_cfg,
                             CurveScratch& scratch) {
  Extraction out;
  if (ordering.cells.size() < 2) return out;
  const CurveExtremum curve =
      extract_curve_minimum(nl, ordering, curve_cfg, kind, min_cfg, scratch);
  out.rent_exponent = curve.rent_exponent;
  const auto& minimum = curve.minimum;
  if (!minimum) return out;

  const std::size_t k = minimum->prefix_size;
  Candidate& c = out.candidate.emplace();
  c.cells.assign(ordering.cells.begin(),
                 ordering.cells.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(c.cells.begin(), c.cells.end());
  c.cut = ordering.prefix_cut[k - 1];
  c.avg_pins = static_cast<double>(ordering.prefix_pins[k - 1]) /
               static_cast<double>(k);
  // The selected Φ comes off the curve; the other is the same scoring
  // call the full curve would have made at this k (same args, same bits).
  const auto cut = static_cast<double>(c.cut);
  const auto size = static_cast<double>(k);
  if (kind == ScoreKind::kNgtlS) {
    c.ngtl_s = minimum->value;
    c.gtl_sd = gtl_sd_score(cut, size, c.avg_pins, curve.context);
  } else {
    c.ngtl_s = ngtl_score(cut, size, curve.context);
    c.gtl_sd = minimum->value;
  }
  c.score = minimum->value;
  c.seed = ordering.seed;
  c.rent_exponent_used = curve.rent_exponent;
  return out;
}

std::vector<CellId> set_union(std::span<const CellId> a,
                              std::span<const CellId> b) {
  std::vector<CellId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<CellId> set_intersection(std::span<const CellId> a,
                                     std::span<const CellId> b) {
  std::vector<CellId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<CellId> set_difference(std::span<const CellId> a,
                                   std::span<const CellId> b) {
  std::vector<CellId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

void set_union_into(std::span<const CellId> a, std::span<const CellId> b,
                    std::vector<CellId>& out) {
  out.clear();
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
}

void set_intersection_into(std::span<const CellId> a,
                           std::span<const CellId> b,
                           std::vector<CellId>& out) {
  out.clear();
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
}

void set_difference_into(std::span<const CellId> a, std::span<const CellId> b,
                         std::vector<CellId>& out) {
  out.clear();
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
}

bool sets_overlap(std::span<const CellId> a, std::span<const CellId> b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return true;
    if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return false;
}

}  // namespace gtl
