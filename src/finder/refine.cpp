#include "finder/refine.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "util/require.hpp"

namespace gtl {

Candidate refine_candidate(const Netlist& nl, const Candidate& initial,
                           OrderingEngine& engine, GroupConnectivity& group,
                           RefineArena& arena, const ScoreContext& ctx,
                           ScoreKind kind, const RefineConfig& cfg,
                           const MinimumConfig& min_cfg,
                           const CurveConfig& curve_cfg, Rng& rng) {
  GTL_REQUIRE(!initial.cells.empty(), "cannot refine an empty candidate");
  assert(std::is_sorted(initial.cells.begin(), initial.cells.end()) &&
         "refine_candidate requires initial.cells sorted by cell id");

  // T in the paper's pseudocode: the base family of grown candidates,
  // held in arena.lists[0 .. n_base).  Every list is sorted by cell id:
  // the initial candidate by the precondition, inner extractions because
  // extract_candidate sorts, and the set algebra below because it
  // preserves sortedness — so all scoring can skip defensive sorts.
  std::size_t n_lists = 0;
  auto list_at = [&arena](std::size_t i) -> std::vector<CellId>& {
    if (i >= arena.lists.size()) arena.lists.resize(i + 1);
    return arena.lists[i];
  };
  list_at(n_lists++).assign(initial.cells.begin(), initial.cells.end());
  for (std::size_t i = 0; i < cfg.extra_seeds; ++i) {
    const CellId inner_seed =
        initial.cells[rng.next_below(initial.cells.size())];
    const LinearOrdering ordering = engine.grow(inner_seed);
    Extraction e =
        extract_candidate(nl, ordering, kind, curve_cfg, min_cfg, arena.curve);
    if (e.candidate) list_at(n_lists++) = std::move(e.candidate->cells);
  }
  const std::size_t n_base = n_lists;

  // F: base members plus pairwise union / intersection / differences,
  // merged into reused buffers (family order per pair is unchanged:
  // union, Z_i − Z_j, Z_j − Z_i, Z_i ∩ Z_j).  Size the arena up front so
  // references into it stay stable through the loop.
  const std::size_t total_lists = n_base + 2 * n_base * (n_base - 1);
  if (arena.lists.size() < total_lists) arena.lists.resize(total_lists);
  for (std::size_t i = 0; i < n_base; ++i) {
    for (std::size_t j = i + 1; j < n_base; ++j) {
      const std::vector<CellId>& a = arena.lists[i];
      const std::vector<CellId>& b = arena.lists[j];
      set_union_into(a, b, arena.lists[n_lists++]);
      set_difference_into(a, b, arena.lists[n_lists++]);
      set_difference_into(b, a, arena.lists[n_lists++]);
      set_intersection_into(a, b, arena.lists[n_lists++]);
    }
  }

  // Φ of a member list, evaluated in place on the caller's tracker: the
  // same assign + scoring calls score_members makes, minus the Candidate
  // (copy of the cells) it would materialize for every loser.
  const auto phi = [&group, &ctx, kind](std::span<const CellId> members) {
    group.assign(members);
    const auto cut = static_cast<double>(group.cut());
    const auto size = static_cast<double>(members.size());
    return kind == ScoreKind::kNgtlS
               ? ngtl_score(cut, size, ctx)
               : gtl_sd_score(cut, size, group.avg_pins_per_cell(), ctx);
  };

  // Pick the family member with minimum Φ (respecting the size floor).
  // The initial candidate is the floor-exempt fallback; strict < keeps
  // the earliest of equal-scoring members, as the allocating
  // implementation did.
  constexpr std::size_t kInitial = static_cast<std::size_t>(-1);
  std::size_t best_idx = kInitial;
  double best_score = phi(initial.cells);
  for (std::size_t idx = 0; idx < n_lists; ++idx) {
    const std::vector<CellId>& members = arena.lists[idx];
    if (members.size() < cfg.min_size) continue;
    const double s = phi(members);
    if (s < best_score) {
      best_idx = idx;
      best_score = s;
    }
  }

  // Materialize only the winner.
  const std::span<const CellId> winner =
      best_idx == kInitial ? std::span<const CellId>(initial.cells)
                           : std::span<const CellId>(arena.lists[best_idx]);
  Candidate best = score_sorted_members(winner, group, ctx, kind);
  best.seed = initial.seed;
  return best;
}

std::vector<Candidate> prune_overlapping(std::vector<Candidate> candidates,
                                         std::size_t num_cells) {
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.cells < b.cells;  // deterministic tie-break
            });
  std::vector<bool> claimed(num_cells, false);
  std::vector<Candidate> kept;
  for (auto& cand : candidates) {
    bool overlaps = false;
    for (const CellId c : cand.cells) {
      if (claimed[c]) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) continue;
    for (const CellId c : cand.cells) claimed[c] = true;
    kept.push_back(std::move(cand));
  }
  return kept;
}

}  // namespace gtl
