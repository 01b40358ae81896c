// Scheduler equivalence: Finder results must be byte-identical (exact
// doubles, exact member lists) no matter how work is scheduled — across
// worker counts and under cancellation.  This is the determinism
// contract that makes the dynamic (ticket-counter) scheduler safe: every
// work item writes only its own slot and derives its RNG stream from its
// index, never from the worker that happened to pull it.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "finder/finder.hpp"
#include "graphgen/planted_graph.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

PlantedGraph make_graph(std::uint64_t seed) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 2'500;
  gcfg.gtls.push_back({160, 2});
  gcfg.gtls.push_back({90, 1});
  Rng rng(seed);
  return generate_planted_graph(gcfg, rng);
}

FinderConfig base_config() {
  FinderConfig cfg;
  cfg.num_seeds = 24;
  cfg.max_ordering_length = 700;
  cfg.rng_seed = 17;
  return cfg;
}

void expect_results_identical(const FinderResult& a, const FinderResult& b,
                              const char* what) {
  ASSERT_EQ(a.gtls.size(), b.gtls.size()) << what;
  for (std::size_t i = 0; i < a.gtls.size(); ++i) {
    EXPECT_EQ(a.gtls[i].cells, b.gtls[i].cells) << what << " gtl " << i;
    EXPECT_EQ(a.gtls[i].cut, b.gtls[i].cut) << what << " gtl " << i;
    EXPECT_EQ(a.gtls[i].avg_pins, b.gtls[i].avg_pins) << what << " gtl " << i;
    EXPECT_EQ(a.gtls[i].ngtl_s, b.gtls[i].ngtl_s) << what << " gtl " << i;
    EXPECT_EQ(a.gtls[i].gtl_sd, b.gtls[i].gtl_sd) << what << " gtl " << i;
    EXPECT_EQ(a.gtls[i].score, b.gtls[i].score) << what << " gtl " << i;
    EXPECT_EQ(a.gtls[i].seed, b.gtls[i].seed) << what << " gtl " << i;
    EXPECT_EQ(a.gtls[i].rent_exponent_used, b.gtls[i].rent_exponent_used)
        << what << " gtl " << i;
  }
  EXPECT_EQ(a.context.rent_exponent, b.context.rent_exponent) << what;
  EXPECT_EQ(a.context.avg_pins_per_cell, b.context.avg_pins_per_cell) << what;
  EXPECT_EQ(a.orderings_grown, b.orderings_grown) << what;
  EXPECT_EQ(a.candidates_before_refine, b.candidates_before_refine) << what;
  EXPECT_EQ(a.candidates_after_dedup, b.candidates_after_dedup) << what;
  EXPECT_EQ(a.cancelled, b.cancelled) << what;
}

TEST(FinderScheduling, ThreadCountInvarianceUnderDynamicScheduling) {
  const PlantedGraph pg = make_graph(71);
  FinderConfig cfg = base_config();
  cfg.num_threads = 1;
  Finder one(pg.netlist, cfg);
  const FinderResult r1 = one.run();
  ASSERT_FALSE(r1.gtls.empty());

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    FinderConfig tcfg = base_config();
    tcfg.num_threads = threads;
    Finder finder(pg.netlist, tcfg);
    const FinderResult& rt = finder.run();
    expect_results_identical(rt, r1,
                             threads == 2 ? "2 threads" : "8 threads");
  }
}

TEST(FinderScheduling, MoreWorkersThanItems) {
  // Ticket dispatch with 8 workers over 5 seeds: slots beyond the item
  // count must idle harmlessly and results must match the 1-thread run.
  const PlantedGraph pg = make_graph(73);
  FinderConfig small = base_config();
  small.num_seeds = 5;
  small.num_threads = 1;
  Finder one(pg.netlist, small);
  const FinderResult r1 = one.run();

  FinderConfig wide = small;
  wide.num_threads = 8;
  Finder many(pg.netlist, wide);
  expect_results_identical(many.run(), r1, "8 workers / 5 seeds");
}

/// Trips the token once `k` orderings have completed.
class CancelAfterSeeds : public ProgressObserver {
 public:
  CancelAfterSeeds(CancelToken* token, std::size_t k) : token_(token), k_(k) {}
  void on_ordering_grown(std::size_t done, std::size_t) override {
    if (done >= k_) token_->request_cancel();
  }

 private:
  CancelToken* token_;
  std::size_t k_;
};

TEST(FinderScheduling, CancelPrefixGuaranteeSurvivesDynamicScheduling) {
  // With one worker the ticket counter hands out 0, 1, 2, ... in order,
  // so cancel-after-k must still yield exactly the first k seeds, each
  // byte-identical to the full run (finder_session_test pins the rest of
  // the contract).
  const PlantedGraph pg = make_graph(74);
  FinderConfig cfg = base_config();
  cfg.num_threads = 1;
  constexpr std::size_t kCancelAt = 9;

  Finder full(pg.netlist, cfg);
  full.grow_orderings();
  const OrderingSet& whole = full.orderings();

  Finder cancelled(pg.netlist, cfg);
  CancelToken token;
  CancelAfterSeeds trip(&token, kCancelAt);
  cancelled.set_observer(&trip);
  cancelled.set_cancel_token(&token);
  cancelled.grow_orderings();

  const OrderingSet& part = cancelled.orderings();
  ASSERT_EQ(part.seeds, whole.seeds);
  EXPECT_EQ(part.num_completed(), kCancelAt);
  for (std::size_t i = 0; i < part.completed.size(); ++i) {
    EXPECT_EQ(part.completed[i] != 0, i < kCancelAt) << "seed " << i;
    if (part.completed[i]) {
      EXPECT_EQ(part.orderings[i].cells, whole.orderings[i].cells)
          << "seed " << i;
      EXPECT_EQ(part.orderings[i].prefix_cut, whole.orderings[i].prefix_cut)
          << "seed " << i;
    }
  }
}

TEST(FinderScheduling, MultiThreadCancelKeepsCompletedSeedsIdentical) {
  // Under contention the *set* of completed seeds is timing-dependent,
  // but every completed seed must be byte-identical to the full run's.
  const PlantedGraph pg = make_graph(75);
  FinderConfig cfg = base_config();
  cfg.num_threads = 4;

  Finder full(pg.netlist, cfg);
  full.grow_orderings();
  const OrderingSet& whole = full.orderings();

  Finder cancelled(pg.netlist, cfg);
  CancelToken token;
  CancelAfterSeeds trip(&token, 3);
  cancelled.set_observer(&trip);
  cancelled.set_cancel_token(&token);
  cancelled.grow_orderings();

  const OrderingSet& part = cancelled.orderings();
  ASSERT_EQ(part.seeds, whole.seeds);
  for (std::size_t i = 0; i < part.completed.size(); ++i) {
    if (!part.completed[i]) continue;
    EXPECT_EQ(part.orderings[i].cells, whole.orderings[i].cells)
        << "seed " << i;
  }
}

}  // namespace
}  // namespace gtl
