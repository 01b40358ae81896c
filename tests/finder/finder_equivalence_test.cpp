// Pins the compatibility contract of the API redesign: the one-shot
// find_tangled_logic() wrapper and the Finder session API produce
// byte-identical results — across configs, seeds, thread counts, and
// (critically) across *reuses* of one session, whose per-worker scratch
// persists between run() calls.  Includes only the public finder header
// for the finder API, so it also pins what <gtl/finder.hpp> exports.

#include <gtest/gtest.h>

#include <vector>

#include "graphgen/planted_graph.hpp"
#include "gtl/finder.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

PlantedGraph make_graph(std::uint64_t seed) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 3'000;
  gcfg.gtls.push_back({250, 1});
  Rng rng(seed);
  return generate_planted_graph(gcfg, rng);
}

/// Bit-exact equality of everything the pipeline computes (seconds are
/// wall-clock and excluded).
void expect_identical(const FinderResult& a, const FinderResult& b) {
  ASSERT_EQ(a.gtls.size(), b.gtls.size());
  for (std::size_t i = 0; i < a.gtls.size(); ++i) {
    EXPECT_EQ(a.gtls[i].cells, b.gtls[i].cells) << "gtl " << i;
    EXPECT_EQ(a.gtls[i].cut, b.gtls[i].cut) << "gtl " << i;
    EXPECT_EQ(a.gtls[i].seed, b.gtls[i].seed) << "gtl " << i;
    // Exact double equality: "byte-identical", not "close".
    EXPECT_EQ(a.gtls[i].avg_pins, b.gtls[i].avg_pins) << "gtl " << i;
    EXPECT_EQ(a.gtls[i].ngtl_s, b.gtls[i].ngtl_s) << "gtl " << i;
    EXPECT_EQ(a.gtls[i].gtl_sd, b.gtls[i].gtl_sd) << "gtl " << i;
    EXPECT_EQ(a.gtls[i].score, b.gtls[i].score) << "gtl " << i;
    EXPECT_EQ(a.gtls[i].rent_exponent_used, b.gtls[i].rent_exponent_used)
        << "gtl " << i;
  }
  EXPECT_EQ(a.context.rent_exponent, b.context.rent_exponent);
  EXPECT_EQ(a.context.avg_pins_per_cell, b.context.avg_pins_per_cell);
  EXPECT_EQ(a.orderings_grown, b.orderings_grown);
  EXPECT_EQ(a.candidates_before_refine, b.candidates_before_refine);
  EXPECT_EQ(a.candidates_after_dedup, b.candidates_after_dedup);
  EXPECT_EQ(a.cancelled, b.cancelled);
}

TEST(FinderEquivalence, WrapperMatchesSessionAcrossConfigs) {
  const PlantedGraph pg = make_graph(21);
  std::vector<FinderConfig> configs;
  for (const std::uint64_t rng_seed : {1ull, 13ull}) {
    for (const ScoreKind score : {ScoreKind::kGtlSd, ScoreKind::kNgtlS}) {
      FinderConfig cfg;
      cfg.num_seeds = 30;
      cfg.max_ordering_length = 900;
      cfg.num_threads = 2;
      cfg.rng_seed = rng_seed;
      cfg.score = score;
      configs.push_back(cfg);
    }
  }
  {
    FinderConfig no_refine = configs[0];
    no_refine.refine_seeds = 0;
    configs.push_back(no_refine);
    FinderConfig no_dedup = configs[0];
    no_dedup.dedup_candidates = false;
    configs.push_back(no_dedup);
  }

  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    const FinderResult via_wrapper = find_tangled_logic(pg.netlist, configs[i]);
    Finder session(pg.netlist, configs[i]);
    expect_identical(via_wrapper, session.run());
  }
}

TEST(FinderEquivalence, ReusedSessionReplaysIdenticalRuns) {
  const PlantedGraph pg = make_graph(22);
  FinderConfig cfg;
  cfg.num_seeds = 40;
  cfg.max_ordering_length = 900;
  cfg.num_threads = 2;
  cfg.rng_seed = 3;

  Finder session(pg.netlist, cfg);
  const FinderResult first = session.run();   // copy: run() reuses storage
  const FinderResult second = session.run();
  const FinderResult third = session.run();
  expect_identical(first, second);
  expect_identical(first, third);
  expect_identical(first, find_tangled_logic(pg.netlist, cfg));
}

TEST(FinderEquivalence, PhaseDecompositionMatchesRun) {
  const PlantedGraph pg = make_graph(23);
  FinderConfig cfg;
  cfg.num_seeds = 25;
  cfg.max_ordering_length = 900;
  cfg.num_threads = 1;
  cfg.rng_seed = 9;

  Finder composed(pg.netlist, cfg);
  const FinderResult via_run = composed.run();

  Finder stepped(pg.netlist, cfg);
  stepped.grow_orderings();
  stepped.extract_candidates();
  expect_identical(via_run, stepped.refine_and_prune());
}

TEST(FinderEquivalence, SessionDeterministicAcrossThreadCounts) {
  const PlantedGraph pg = make_graph(24);
  FinderConfig one;
  one.num_seeds = 24;
  one.max_ordering_length = 800;
  one.rng_seed = 5;
  one.num_threads = 1;
  FinderConfig four = one;
  four.num_threads = 4;

  Finder a(pg.netlist, one);
  Finder b(pg.netlist, four);
  expect_identical(a.run(), b.run());
}

}  // namespace
}  // namespace gtl
