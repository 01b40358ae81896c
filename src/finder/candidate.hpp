#pragma once
// Candidate GTLs: extraction from a linear ordering (Phase II, steps
// II.1-II.4) and scoring of explicit member sets — including the set
// algebra (union / intersection / difference) that Phase III's genetic
// refinement needs.

#include <optional>
#include <span>
#include <vector>

#include "finder/score_curve.hpp"
#include "metrics/group_connectivity.hpp"
#include "netlist/netlist.hpp"

namespace gtl {

/// A (candidate or final) group of tangled logic.
struct Candidate {
  /// Member cells, sorted by id.
  std::vector<CellId> cells;
  std::int64_t cut = 0;     ///< T(C)
  double avg_pins = 0.0;    ///< A_C
  double ngtl_s = 0.0;
  double gtl_sd = 0.0;
  double score = 0.0;       ///< the selected Φ (per FinderConfig::score)
  CellId seed = kInvalidCell;        ///< seed of the ordering it came from
  double rent_exponent_used = 0.0;   ///< p the scores were computed with

  [[nodiscard]] std::size_t size() const { return cells.size(); }
};

/// Score an explicit member set under `ctx`, filling every Candidate
/// field except `seed`.  `group` is scratch space (cleared and reused).
[[nodiscard]] Candidate score_members(std::span<const CellId> members,
                                      GroupConnectivity& group,
                                      const ScoreContext& ctx,
                                      ScoreKind kind);

/// score_members for a member list that is ALREADY sorted by cell id —
/// the refine hot path, where every genetic-family list is sorted by
/// construction (set algebra over sorted inputs).  Skips the defensive
/// sort; asserts the precondition in debug builds.  Bitwise-identical to
/// score_members on sorted input (sorting unique sorted ids is the
/// identity).
[[nodiscard]] Candidate score_sorted_members(std::span<const CellId> members,
                                             GroupConnectivity& group,
                                             const ScoreContext& ctx,
                                             ScoreKind kind);

/// Phase II result for one ordering.
struct Extraction {
  /// The ordering's own Rent exponent estimate (paper §3.2.2); nullopt
  /// for an ordering of fewer than 2 cells, which has no prefix to
  /// estimate from.
  std::optional<double> rent_exponent;
  /// The first k* cells at the score curve's clear minimum, scored with
  /// the estimate above; nullopt when the curve has none (the seed was
  /// outside any GTL).
  std::optional<Candidate> candidate;
};

/// Phase II: estimate the ordering's Rent exponent and extract the
/// candidate at its clear minimum.  The curve lives in `scratch` (zero
/// steady-state allocation); results are pinned bit for bit to the
/// three-curve reference by tests/finder/score_curve_equivalence_test.cpp.
[[nodiscard]] Extraction extract_candidate(const Netlist& nl,
                                           const LinearOrdering& ordering,
                                           ScoreKind kind,
                                           const CurveConfig& curve_cfg,
                                           const MinimumConfig& min_cfg,
                                           CurveScratch& scratch);

// --- sorted-vector set algebra (member lists are sorted by id) ---

[[nodiscard]] std::vector<CellId> set_union(std::span<const CellId> a,
                                            std::span<const CellId> b);
[[nodiscard]] std::vector<CellId> set_intersection(std::span<const CellId> a,
                                                   std::span<const CellId> b);
[[nodiscard]] std::vector<CellId> set_difference(std::span<const CellId> a,
                                                 std::span<const CellId> b);

// In-place variants for preallocated merge buffers (the refine arena):
// `out` is cleared (capacity kept) and filled; it must not alias a or b.

void set_union_into(std::span<const CellId> a, std::span<const CellId> b,
                    std::vector<CellId>& out);
void set_intersection_into(std::span<const CellId> a,
                           std::span<const CellId> b,
                           std::vector<CellId>& out);
void set_difference_into(std::span<const CellId> a, std::span<const CellId> b,
                         std::vector<CellId>& out);
/// True iff the sorted lists share at least one cell.
[[nodiscard]] bool sets_overlap(std::span<const CellId> a,
                                std::span<const CellId> b);

}  // namespace gtl
