// The finder-level half of the determinism invariant promised in
// finder.hpp: results depend only on `rng_seed`, never on
// `num_threads`, because every seed index gets its own derived RNG
// stream (the stream-level half lives in
// tests/util/thread_pool_determinism_test.cpp).

#include "finder/finder.hpp"

#include <gtest/gtest.h>

#include <cstddef>

#include "graphgen/planted_graph.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

FinderResult run_finder(const Netlist& nl, std::size_t num_threads) {
  FinderConfig cfg;
  cfg.num_seeds = 8;
  cfg.refine_seeds = 1;
  cfg.num_threads = num_threads;
  cfg.rng_seed = 7;
  Finder finder(nl, cfg);
  return finder.run();
}

TEST(FinderDeterminism, ResultsIndependentOfThreadCount) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 400;
  gcfg.gtls = {{60, 1}};
  Rng rng(123);
  const PlantedGraph graph = generate_planted_graph(gcfg, rng);

  const FinderResult serial = run_finder(graph.netlist, 1);
  const FinderResult parallel = run_finder(graph.netlist, 4);

  ASSERT_EQ(serial.gtls.size(), parallel.gtls.size());
  for (std::size_t i = 0; i < serial.gtls.size(); ++i) {
    EXPECT_EQ(serial.gtls[i].cells, parallel.gtls[i].cells) << "gtl " << i;
    EXPECT_DOUBLE_EQ(serial.gtls[i].score, parallel.gtls[i].score)
        << "gtl " << i;
    EXPECT_EQ(serial.gtls[i].cut, parallel.gtls[i].cut) << "gtl " << i;
  }
}

}  // namespace
}  // namespace gtl
