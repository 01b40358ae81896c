// Pins the Phase II/III fast paths bit-for-bit to the original
// implementations, kept as references (the three-curve reference in
// finder/score_curve_reference.hpp, the rest embedded below; the same
// discipline as tests/order/ordering_frontier_equivalence_test.cpp):
//
//   * extract_curve_minimum (scratch-backed, single-Φ, memoized ln
//     tables, enclosure scans) vs find_clear_minimum on the allocating
//     three-curve reference;
//   * extract_candidate vs a reference extraction reading every field
//     off the reference curve;
//   * refine_candidate (worker-scratch tracker + family arena, losers
//     scored without materialization) vs the allocating reference that
//     builds a fresh GroupConnectivity and a fresh vector per set-op.
//
// "Equal" below always means exact double equality — these are meant to
// be the same arithmetic, not approximately the same answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "finder/candidate.hpp"
#include "finder/refine.hpp"
#include "finder/score_curve.hpp"
#include "finder/score_curve_reference.hpp"
#include "graphgen/planted_graph.hpp"
#include "metrics/group_connectivity.hpp"
#include "metrics/scores.hpp"
#include "order/linear_ordering.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

// ---------------------------------------------------------------------
// Reference implementations (the original src/finder/{candidate,
// refine}.cpp, verbatim modulo names).
// ---------------------------------------------------------------------

using testing::reference_rent_exponent;
using testing::reference_score_curve;

std::optional<Candidate> reference_extract_candidate(
    const Netlist& nl, const LinearOrdering& ordering, ScoreKind kind,
    const CurveConfig& curve_cfg, const MinimumConfig& min_cfg) {
  if (ordering.cells.size() < min_cfg.min_size) return std::nullopt;
  const ScoreCurve curve = reference_score_curve(nl, ordering, curve_cfg);
  const auto minimum = find_clear_minimum(curve.values(kind), min_cfg);
  if (!minimum) return std::nullopt;

  const std::size_t k = minimum->prefix_size;
  Candidate c;
  c.cells.assign(ordering.cells.begin(),
                 ordering.cells.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(c.cells.begin(), c.cells.end());
  c.cut = ordering.prefix_cut[k - 1];
  c.avg_pins = static_cast<double>(ordering.prefix_pins[k - 1]) /
               static_cast<double>(k);
  c.ngtl_s = curve.ngtl_s[k - 1];
  c.gtl_sd = curve.gtl_sd[k - 1];
  c.score = curve.values(kind)[k - 1];
  c.seed = ordering.seed;
  c.rent_exponent_used = curve.rent_exponent;
  return c;
}

Candidate reference_refine_candidate(const Netlist& nl,
                                     const Candidate& initial,
                                     OrderingEngine& engine,
                                     const ScoreContext& ctx, ScoreKind kind,
                                     const RefineConfig& cfg,
                                     const MinimumConfig& min_cfg,
                                     const CurveConfig& curve_cfg, Rng& rng) {
  GroupConnectivity group(nl);

  std::vector<std::vector<CellId>> base;
  base.push_back(initial.cells);
  for (std::size_t i = 0; i < cfg.extra_seeds; ++i) {
    const CellId inner_seed =
        initial.cells[rng.next_below(initial.cells.size())];
    const LinearOrdering ordering = engine.grow(inner_seed);
    auto cand =
        reference_extract_candidate(nl, ordering, kind, curve_cfg, min_cfg);
    if (cand) base.push_back(std::move(cand->cells));
  }

  std::vector<std::vector<CellId>> family = base;
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (std::size_t j = i + 1; j < base.size(); ++j) {
      auto inter = set_intersection(base[i], base[j]);
      family.push_back(set_union(base[i], base[j]));
      family.push_back(set_difference(base[i], base[j]));
      family.push_back(set_difference(base[j], base[i]));
      family.push_back(std::move(inter));
    }
  }

  Candidate best = score_members(initial.cells, group, ctx, kind);
  best.seed = initial.seed;
  for (const auto& members : family) {
    if (members.size() < cfg.min_size) continue;
    Candidate cand = score_members(members, group, ctx, kind);
    if (cand.score < best.score) {
      cand.seed = initial.seed;
      best = std::move(cand);
    }
  }
  return best;
}

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

struct Workload {
  PlantedGraph pg;
  std::vector<LinearOrdering> orderings;
};

Workload make_workload(std::uint64_t seed, std::uint32_t num_cells,
                       std::uint32_t gtl_size, std::size_t max_length) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = num_cells;
  gcfg.gtls.push_back({gtl_size, 2});
  Rng rng(seed);
  Workload w{generate_planted_graph(gcfg, rng), {}};

  OrderingEngine engine(
      w.pg.netlist,
      {.max_length = max_length, .large_net_threshold = 20});
  // Mix of seeds inside the planted structures (clear minima) and
  // background seeds (monotone curves, usually no candidate).
  std::vector<CellId> seeds = {w.pg.gtl_members[0][0],
                               w.pg.gtl_members[1][gtl_size / 2]};
  for (int i = 0; i < 3; ++i) {
    CellId c = static_cast<CellId>(rng.next_below(num_cells));
    while (std::binary_search(w.pg.gtl_members[0].begin(),
                              w.pg.gtl_members[0].end(), c)) {
      c = static_cast<CellId>(rng.next_below(num_cells));
    }
    seeds.push_back(c);
  }
  for (const CellId s : seeds) w.orderings.push_back(engine.grow(s));
  return w;
}

void expect_candidate_identical(const std::optional<Candidate>& got,
                                const std::optional<Candidate>& want,
                                const char* what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!got) return;
  EXPECT_EQ(got->cells, want->cells) << what;
  EXPECT_EQ(got->cut, want->cut) << what;
  EXPECT_EQ(got->avg_pins, want->avg_pins) << what;
  EXPECT_EQ(got->ngtl_s, want->ngtl_s) << what;
  EXPECT_EQ(got->gtl_sd, want->gtl_sd) << what;
  EXPECT_EQ(got->score, want->score) << what;
  EXPECT_EQ(got->seed, want->seed) << what;
  EXPECT_EQ(got->rent_exponent_used, want->rent_exponent_used) << what;
}

/// extract_curve_minimum's outcome vs the reference curve's: rent
/// estimate, context and clear minimum, all bit for bit.
void expect_extremum_matches(const CurveExtremum& got, const ScoreCurve& ref,
                             ScoreKind kind, const MinimumConfig& mcfg,
                             std::size_t oi) {
  EXPECT_EQ(got.rent_exponent, ref.rent_exponent) << "ordering " << oi;
  EXPECT_EQ(got.context.rent_exponent, ref.context.rent_exponent);
  EXPECT_EQ(got.context.avg_pins_per_cell, ref.context.avg_pins_per_cell);
  const auto want = find_clear_minimum(ref.values(kind), mcfg);
  ASSERT_EQ(got.minimum.has_value(), want.has_value())
      << "ordering " << oi << " kind " << static_cast<int>(kind)
      << " min_size " << mcfg.min_size;
  if (want) {
    EXPECT_EQ(got.minimum->prefix_size, want->prefix_size) << "ordering " << oi;
    EXPECT_EQ(got.minimum->value, want->value) << "ordering " << oi;
  }
}

/// Accepts the global argmin over nearly the whole curve, so the result
/// hinges on the exact value of every prefix.
constexpr MinimumConfig kPermissive{.min_size = 1,
                                    .accept_threshold = 1e9,
                                    .drop_factor = 1.0,
                                    .rise_factor = 1.0,
                                    .edge_fraction = 0.0};

// ---------------------------------------------------------------------
// Curve equivalence
// ---------------------------------------------------------------------

TEST(ScoreCurveEquivalence, SelectedCurveMatchesReferenceBitwise) {
  // The selected Φ's curve as extract_curve_minimum sees it, including
  // the fallback rent when rent_min_k exceeds every ordering.
  const Workload w = make_workload(101, 4'000, 300, 1'200);
  CurveScratch scratch;  // deliberately shared across every call below
  for (const CurveConfig ccfg : {CurveConfig{.rent_min_k = 10},
                                 CurveConfig{.rent_min_k = 2},
                                 CurveConfig{.rent_min_k = 100'000}}) {
    for (const ScoreKind kind : {ScoreKind::kGtlSd, ScoreKind::kNgtlS}) {
      for (std::size_t oi = 0; oi < w.orderings.size(); ++oi) {
        const LinearOrdering& ord = w.orderings[oi];
        const ScoreCurve ref = reference_score_curve(w.pg.netlist, ord, ccfg);
        for (const MinimumConfig& mcfg : {MinimumConfig{}, kPermissive}) {
          const CurveExtremum got = extract_curve_minimum(
              w.pg.netlist, ord, ccfg, kind, mcfg, scratch);
          expect_extremum_matches(got, ref, kind, mcfg, oi);
        }
      }
    }
  }
}

TEST(ScoreCurveEquivalence, ProductionFullCurveStillMatchesReference) {
  // compute_score_curve (the three-curve API figs/tools use) must keep
  // matching the reference too — it is the contract the fast
  // path is pinned against.
  const Workload w = make_workload(102, 3'000, 250, 900);
  for (const LinearOrdering& ord : w.orderings) {
    const ScoreCurve ref = reference_score_curve(w.pg.netlist, ord, {});
    const ScoreCurve got = compute_score_curve(w.pg.netlist, ord, {});
    EXPECT_EQ(got.rent_exponent, ref.rent_exponent);
    EXPECT_EQ(got.ngtl_s, ref.ngtl_s);
    EXPECT_EQ(got.gtl_sd, ref.gtl_sd);
    EXPECT_EQ(got.ratio_cut, ref.ratio_cut);
  }
}

TEST(ScoreCurveEquivalence, ScratchReuseAcrossShrinkingOrderings) {
  // Reuse the same scratch on a long ordering, then a short one, then
  // long again: stale buffer contents must never leak into results.
  const Workload w = make_workload(103, 4'000, 300, 1'500);
  OrderingEngine engine(w.pg.netlist,
                        {.max_length = 60, .large_net_threshold = 20});
  const LinearOrdering short_ord = engine.grow(w.pg.gtl_members[0][3]);

  CurveScratch scratch;
  const LinearOrdering& long_ord = w.orderings[0];
  std::size_t oi = 0;
  for (const LinearOrdering* ord : {&long_ord, &short_ord, &long_ord}) {
    const ScoreCurve ref = reference_score_curve(w.pg.netlist, *ord, {});
    for (const MinimumConfig& mcfg : {MinimumConfig{}, kPermissive}) {
      const CurveExtremum got = extract_curve_minimum(
          w.pg.netlist, *ord, {}, ScoreKind::kGtlSd, mcfg, scratch);
      expect_extremum_matches(got, ref, ScoreKind::kGtlSd, mcfg, oi);
    }
    ++oi;
  }
}

TEST(ScoreCurveEquivalence, SingleCellOrderingUsesFallbackRent) {
  // n = 1: the rent loop is empty (fallback 0.6) and the curve has one
  // point; both paths must agree exactly.
  const Workload w = make_workload(104, 2'000, 200, 600);
  OrderingEngine engine(w.pg.netlist,
                        {.max_length = 1, .large_net_threshold = 20});
  const LinearOrdering ord = engine.grow(w.pg.gtl_members[0][0]);
  ASSERT_EQ(ord.cells.size(), 1u);
  CurveScratch scratch;
  const ScoreCurve ref = reference_score_curve(w.pg.netlist, ord, {});
  EXPECT_EQ(ref.rent_exponent, 0.6);
  for (const MinimumConfig& mcfg : {MinimumConfig{}, kPermissive}) {
    const CurveExtremum got = extract_curve_minimum(
        w.pg.netlist, ord, {}, ScoreKind::kNgtlS, mcfg, scratch);
    expect_extremum_matches(got, ref, ScoreKind::kNgtlS, mcfg, 0);
  }
}

// ---------------------------------------------------------------------
// Extraction equivalence
// ---------------------------------------------------------------------

TEST(ExtractEquivalence, ScratchOverloadMatchesReference) {
  const Workload w = make_workload(105, 4'000, 300, 1'200);
  CurveScratch scratch;
  for (const ScoreKind kind : {ScoreKind::kGtlSd, ScoreKind::kNgtlS}) {
    for (std::size_t oi = 0; oi < w.orderings.size(); ++oi) {
      const LinearOrdering& ord = w.orderings[oi];
      const auto want =
          reference_extract_candidate(w.pg.netlist, ord, kind, {}, {});
      const Extraction got =
          extract_candidate(w.pg.netlist, ord, kind, {}, {}, scratch);
      expect_candidate_identical(got.candidate, want, "extract_candidate");
      ASSERT_TRUE(got.rent_exponent.has_value());
      EXPECT_EQ(*got.rent_exponent, reference_rent_exponent(ord, {}));
    }
  }
}

TEST(ExtractEquivalence, FusedMinimumMatchesSlowPathBitwise) {
  // extract_curve_minimum is the finder's fused fast path: its rent
  // estimate, context, and (k*, Φ(k*)) must be bit-identical to
  // find_clear_minimum on the reference curve for every ordering and
  // under configs tuned to sit close to the decision boundaries (forcing
  // the interval bounds into their exact-fallback branches).
  const Workload w = make_workload(107, 4'000, 300, 1'200);
  CurveScratch fast_scratch;
  std::vector<MinimumConfig> configs = {
      MinimumConfig{},
      MinimumConfig{.min_size = 2, .edge_fraction = 0.0},
      MinimumConfig{.min_size = 30,
                    .accept_threshold = 1e9,
                    .drop_factor = 1.0,
                    .rise_factor = 1.0},
      MinimumConfig{.drop_factor = 50.0},
      MinimumConfig{.rise_factor = 50.0},
      MinimumConfig{.min_size = 100'000},
      MinimumConfig{.edge_fraction = 1.0},
  };
  for (const CurveConfig ccfg :
       {CurveConfig{.rent_min_k = 10}, CurveConfig{.rent_min_k = 2}}) {
    for (const ScoreKind kind : {ScoreKind::kGtlSd, ScoreKind::kNgtlS}) {
      for (std::size_t oi = 0; oi < w.orderings.size(); ++oi) {
        const LinearOrdering& ord = w.orderings[oi];
        const ScoreCurve ref = reference_score_curve(w.pg.netlist, ord, ccfg);
        const std::vector<double>& values = ref.values(kind);
        // Thresholds derived from the true minimum stress the ambiguous
        // paths: the drop/rise existence tests then hinge on values the
        // enclosures cannot separate.
        std::vector<MinimumConfig> local = configs;
        if (const auto base = find_clear_minimum(values)) {
          const auto end =
              values.begin() + static_cast<std::ptrdiff_t>(base->prefix_size);
          const double mb = *std::max_element(values.begin(), end);
          MinimumConfig tight;
          tight.drop_factor = mb / std::max(base->value, 1e-12);
          local.push_back(tight);
        }
        for (const MinimumConfig& mcfg : local) {
          const CurveExtremum got = extract_curve_minimum(
              w.pg.netlist, ord, ccfg, kind, mcfg, fast_scratch);
          expect_extremum_matches(got, ref, kind, mcfg, oi);
        }
      }
    }
  }

  // Pinless netlist (A_G = 0): no Φ is finite, so no ordering has a
  // minimum, but the Rent estimate is still the reference's.
  const Netlist pinless = testing::make_netlist(300, {});
  for (const std::size_t n :
       {std::size_t{2}, std::size_t{50}, std::size_t{299}}) {
    LinearOrdering ord;
    ord.seed = 0;
    for (std::size_t k = 1; k <= n; ++k) {
      ord.cells.push_back(static_cast<CellId>(k - 1));
      ord.prefix_cut.push_back(0);
      ord.prefix_pins.push_back(0);
    }
    for (const CurveConfig ccfg :
         {CurveConfig{.rent_min_k = 10}, CurveConfig{.rent_min_k = 2}}) {
      for (const ScoreKind kind : {ScoreKind::kGtlSd, ScoreKind::kNgtlS}) {
        for (const MinimumConfig& mcfg : configs) {
          const CurveExtremum got = extract_curve_minimum(
              pinless, ord, ccfg, kind, mcfg, fast_scratch);
          EXPECT_FALSE(got.minimum.has_value()) << "pinless n " << n;
          EXPECT_EQ(got.rent_exponent, reference_rent_exponent(ord, ccfg))
              << "pinless n " << n;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Refine equivalence
// ---------------------------------------------------------------------

TEST(RefineEquivalence, ArenaRefineMatchesAllocatingReference) {
  const Workload w = make_workload(106, 4'000, 300, 1'200);
  const ScoreContext ctx{0.68, w.pg.netlist.average_pins_per_cell()};
  OrderingEngine ref_engine(w.pg.netlist,
                            {.max_length = 1'200, .large_net_threshold = 20});
  OrderingEngine fast_engine(w.pg.netlist,
                             {.max_length = 1'200, .large_net_threshold = 20});
  GroupConnectivity group(w.pg.netlist);
  RefineArena arena;  // shared across candidates: reuse must not leak

  for (const ScoreKind kind : {ScoreKind::kGtlSd, ScoreKind::kNgtlS}) {
    for (const std::size_t extra_seeds : {std::size_t{0}, std::size_t{3}}) {
      for (std::size_t oi = 0; oi < w.orderings.size(); ++oi) {
        const auto initial = reference_extract_candidate(
            w.pg.netlist, w.orderings[oi], kind, {}, {});
        if (!initial) continue;
        RefineConfig rcfg;
        rcfg.extra_seeds = extra_seeds;
        const std::uint64_t rng_seed = 500 + oi;
        Rng ref_rng(rng_seed);
        Rng fast_rng(rng_seed);
        const Candidate want = reference_refine_candidate(
            w.pg.netlist, *initial, ref_engine, ctx, kind, rcfg, {}, {},
            ref_rng);
        const Candidate got = refine_candidate(
            w.pg.netlist, *initial, fast_engine, group, arena, ctx, kind,
            rcfg, {}, {}, fast_rng);
        expect_candidate_identical(got, want, "refine");
      }
    }
  }
}

}  // namespace
}  // namespace gtl
