#include "finder/finder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "finder/score_curve_reference.hpp"
#include "graphgen/planted_graph.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace gtl {
namespace {

/// All pipeline-behavior tests run through the session API (the
/// canonical entry point); the one-shot wrapper is pinned against it in
/// finder_equivalence_test.cpp.
FinderResult run_finder(const Netlist& nl, const FinderConfig& cfg) {
  Finder finder(nl, cfg);
  return finder.run();
}

FinderConfig small_finder_config() {
  FinderConfig cfg;
  cfg.num_seeds = 60;
  cfg.max_ordering_length = 1500;
  cfg.num_threads = 2;
  cfg.rng_seed = 13;
  return cfg;
}

TEST(TangledLogicFinder, FindsSinglePlantedGtl) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 8'000;
  gcfg.gtls.push_back({500, 1});
  Rng rng(1);
  const PlantedGraph pg = generate_planted_graph(gcfg, rng);

  const FinderResult res = run_finder(pg.netlist, small_finder_config());
  ASSERT_EQ(res.gtls.size(), 1u);
  const auto rec = recovery_stats(pg.gtl_members[0], res.gtls[0].cells);
  EXPECT_LT(rec.miss_fraction, 0.02);
  EXPECT_LT(rec.over_fraction, 0.02);
  EXPECT_LT(res.gtls[0].score, 0.3);
  EXPECT_EQ(res.orderings_grown, 60u);
}

TEST(TangledLogicFinder, FindsTwoGtlsOfDifferentSizes) {
  // The paper's Table 1 case 2 shape: two GTLs, sizes 1:7.5.
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 12'000;
  gcfg.gtls.push_back({300, 1});
  gcfg.gtls.push_back({1200, 1});
  Rng rng(2);
  const PlantedGraph pg = generate_planted_graph(gcfg, rng);

  FinderConfig fcfg = small_finder_config();
  fcfg.num_seeds = 120;
  fcfg.max_ordering_length = 3000;
  const FinderResult res = run_finder(pg.netlist, fcfg);
  ASSERT_EQ(res.gtls.size(), 2u);

  // Match found GTLs to ground truth by best overlap.
  for (const auto& truth : pg.gtl_members) {
    double best_miss = 1.0;
    for (const auto& found : res.gtls) {
      best_miss =
          std::min(best_miss, recovery_stats(truth, found.cells).miss_fraction);
    }
    EXPECT_LT(best_miss, 0.05);
  }
}

TEST(TangledLogicFinder, NoGtlsInPureRandomGraph) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 4'000;  // no planted structures at all
  Rng rng(3);
  const PlantedGraph pg = generate_planted_graph(gcfg, rng);

  FinderConfig fcfg = small_finder_config();
  fcfg.num_seeds = 15;
  const FinderResult res = run_finder(pg.netlist, fcfg);
  EXPECT_TRUE(res.gtls.empty());
}

TEST(TangledLogicFinder, ResultsDisjoint) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 10'000;
  gcfg.gtls.push_back({400, 3});
  Rng rng(4);
  const PlantedGraph pg = generate_planted_graph(gcfg, rng);

  FinderConfig fcfg = small_finder_config();
  fcfg.num_seeds = 60;
  const FinderResult res = run_finder(pg.netlist, fcfg);
  std::vector<bool> seen(pg.netlist.num_cells(), false);
  for (const auto& g : res.gtls) {
    for (const CellId c : g.cells) {
      EXPECT_FALSE(seen[c]) << "overlapping GTLs in final result";
      seen[c] = true;
    }
  }
}

TEST(TangledLogicFinder, ResultsSortedBestFirst) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 10'000;
  gcfg.gtls.push_back({400, 3});
  Rng rng(5);
  const PlantedGraph pg = generate_planted_graph(gcfg, rng);
  const FinderResult res =
      run_finder(pg.netlist, small_finder_config());
  for (std::size_t i = 1; i < res.gtls.size(); ++i) {
    EXPECT_LE(res.gtls[i - 1].score, res.gtls[i].score);
  }
}

TEST(TangledLogicFinder, DeterministicAcrossThreadCounts) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 6'000;
  gcfg.gtls.push_back({300, 1});
  Rng rng(6);
  const PlantedGraph pg = generate_planted_graph(gcfg, rng);

  FinderConfig one = small_finder_config();
  one.num_threads = 1;
  FinderConfig four = small_finder_config();
  four.num_threads = 4;
  const FinderResult a = run_finder(pg.netlist, one);
  const FinderResult b = run_finder(pg.netlist, four);
  ASSERT_EQ(a.gtls.size(), b.gtls.size());
  for (std::size_t i = 0; i < a.gtls.size(); ++i) {
    EXPECT_EQ(a.gtls[i].cells, b.gtls[i].cells);
    EXPECT_DOUBLE_EQ(a.gtls[i].score, b.gtls[i].score);
  }
  EXPECT_DOUBLE_EQ(a.context.rent_exponent, b.context.rent_exponent);
}

TEST(TangledLogicFinder, ZeroSeedsYieldsEmptyResult) {
  const Netlist nl = testing::make_grid3x3();
  FinderConfig cfg;
  cfg.num_seeds = 0;
  const FinderResult res = run_finder(nl, cfg);
  EXPECT_TRUE(res.gtls.empty());
  EXPECT_EQ(res.orderings_grown, 0u);
}

TEST(TangledLogicFinder, AllFixedNetlistIsSafe) {
  NetlistBuilder nb;
  nb.add_cell("p0", 1, 1, true);
  nb.add_cell("p1", 1, 1, true);
  nb.add_net({CellId{0}, CellId{1}});
  const Netlist nl = nb.build();
  const FinderResult res = run_finder(nl, FinderConfig{});
  EXPECT_TRUE(res.gtls.empty());
}

TEST(TangledLogicFinder, RefinementAblationStillFinds) {
  // refine_seeds = 0 skips Phase III growth; candidates are scored under
  // the global context and pruned directly.
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 8'000;
  gcfg.gtls.push_back({500, 1});
  Rng rng(7);
  const PlantedGraph pg = generate_planted_graph(gcfg, rng);

  FinderConfig fcfg = small_finder_config();
  fcfg.refine_seeds = 0;
  const FinderResult res = run_finder(pg.netlist, fcfg);
  ASSERT_EQ(res.gtls.size(), 1u);
  const auto rec = recovery_stats(pg.gtl_members[0], res.gtls[0].cells);
  EXPECT_LT(rec.miss_fraction, 0.1);
}

TEST(TangledLogicFinder, NgtlScoreKindWorksToo) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 8'000;
  gcfg.gtls.push_back({500, 1});
  Rng rng(8);
  const PlantedGraph pg = generate_planted_graph(gcfg, rng);

  FinderConfig fcfg = small_finder_config();
  fcfg.score = ScoreKind::kNgtlS;
  const FinderResult res = run_finder(pg.netlist, fcfg);
  ASSERT_EQ(res.gtls.size(), 1u);
  EXPECT_DOUBLE_EQ(res.gtls[0].score, res.gtls[0].ngtl_s);
}

TEST(TangledLogicFinder, StatsArePopulated) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 4'000;
  gcfg.gtls.push_back({300, 1});
  Rng rng(9);
  const PlantedGraph pg = generate_planted_graph(gcfg, rng);
  const FinderResult res =
      run_finder(pg.netlist, small_finder_config());
  EXPECT_GT(res.candidates_before_refine, 0u);
  EXPECT_GT(res.candidates_after_dedup, 0u);
  EXPECT_LE(res.candidates_after_dedup, res.candidates_before_refine);
  EXPECT_GE(res.total_seconds, 0.0);
  EXPECT_GT(res.context.avg_pins_per_cell, 0.0);
}

TEST(TangledLogicFinder, ShortOrderingsCountTowardRentMean) {
  // A planted design plus small components (2..12 cells, all below
  // minimum.min_size) and isolated cells.  Orderings seeded in a small
  // component cannot yield a candidate, but every ordering of >= 2 cells
  // still contributes its Rent estimate to the global mean; one-cell
  // orderings have no prefix to estimate from and contribute nothing.
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 400;
  gcfg.gtls.push_back({60, 1});
  Rng rng(10);
  const PlantedGraph pg = generate_planted_graph(gcfg, rng);
  NetlistBuilder nb;
  for (CellId c = 0; c < pg.netlist.num_cells(); ++c) nb.add_cell();
  for (NetId e = 0; e < pg.netlist.num_nets(); ++e) {
    nb.add_net(pg.netlist.pins_of(e));
  }
  for (std::size_t size = 2; size <= 12; ++size) {
    std::vector<CellId> component;
    for (std::size_t i = 0; i < size; ++i) component.push_back(nb.add_cell());
    for (std::size_t i = 0; i + 1 < size; ++i) {
      nb.add_net({component[i], component[i + 1]});
      nb.add_net({component[i], component[(i + 2) % size]});
    }
  }
  for (int i = 0; i < 5; ++i) (void)nb.add_cell();
  const Netlist nl = nb.build();

  FinderConfig cfg = small_finder_config();
  cfg.num_seeds = 80;
  Finder finder(nl, cfg);
  finder.grow_orderings();
  finder.extract_candidates();
  finder.refine_and_prune();

  const OrderingSet& grown = finder.orderings();
  std::vector<double> estimates;
  std::size_t short_orderings = 0;
  std::size_t single_cell = 0;
  for (std::size_t i = 0; i < grown.orderings.size(); ++i) {
    ASSERT_TRUE(grown.completed[i]);
    const LinearOrdering& ord = grown.orderings[i];
    if (ord.cells.size() < 2) {
      ++single_cell;
      continue;
    }
    if (ord.cells.size() < cfg.minimum.min_size) ++short_orderings;
    estimates.push_back(testing::reference_rent_exponent(ord, cfg.curve));
  }
  ASSERT_GT(short_orderings, 0u);
  ASSERT_GT(single_cell, 0u);
  EXPECT_EQ(finder.result().context.rent_exponent,
            std::clamp(mean(estimates), 0.1, 1.0));
}

}  // namespace
}  // namespace gtl
