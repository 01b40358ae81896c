// FinderConfig::validate() rejection table (one case per out-of-range
// field, each error naming its field) and JSON round-tripping of configs
// and results for the service/CLI boundary.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <string>

#include "finder/finder.hpp"
#include "finder/finder_json.hpp"
#include "graphgen/planted_graph.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

// ---------- validate() ----------

TEST(FinderConfigValidate, DefaultsAreValid) {
  EXPECT_TRUE(FinderConfig{}.validate().is_ok());
}

TEST(FinderConfigValidate, ZeroSeedsIsValid) {
  // Historical behavior: num_seeds == 0 runs to an empty result.
  FinderConfig cfg;
  cfg.num_seeds = 0;
  EXPECT_TRUE(cfg.validate().is_ok());
}

// ---------- Finder::create() ----------

TEST(FinderCreate, RejectsInvalidConfigWithoutThrowing) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 200;
  Rng rng(3);
  const PlantedGraph graph = generate_planted_graph(gcfg, rng);

  FinderConfig bad;
  bad.max_ordering_length = 0;
  std::unique_ptr<Finder> session;
  const Status st = Finder::create(graph.netlist, bad, &session);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session, nullptr);
}

TEST(FinderCreate, MatchesThrowingConstructor) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 500;
  gcfg.gtls.push_back({60, 1});
  Rng rng(5);
  const PlantedGraph graph = generate_planted_graph(gcfg, rng);

  FinderConfig cfg;
  cfg.num_seeds = 6;
  cfg.max_ordering_length = 200;
  cfg.num_threads = 1;

  std::unique_ptr<Finder> session;
  ASSERT_TRUE(Finder::create(graph.netlist, cfg, &session).is_ok());
  ASSERT_NE(session, nullptr);
  Finder direct(graph.netlist, cfg);

  const FinderResult via_factory = session->run();
  const FinderResult via_ctor = direct.run();
  // Identical except for the wall-clock fields.
  JsonValue a = to_json(via_factory);
  JsonValue b = to_json(via_ctor);
  for (const char* key :
       {"phase1_2_seconds", "phase3_seconds", "total_seconds"}) {
    a.set(key, JsonValue(0.0));
    b.set(key, JsonValue(0.0));
  }
  EXPECT_EQ(a.dump(), b.dump());
}

// gtest_discover_tests names each case by its printed param. Without a
// PrintTo that is the raw bytes of this struct, whose two pointers change
// from run to run under address-space randomisation; the label keeps the
// test ids stable.
struct RejectionCase {
  const char* label;           // test-name suffix, unique per case
  const char* name;            // must appear in the error message
  void (*mutate)(FinderConfig&);
};

void PrintTo(const RejectionCase& c, std::ostream* os) { *os << c.label; }

class FinderConfigRejection
    : public ::testing::TestWithParam<RejectionCase> {};

TEST_P(FinderConfigRejection, RejectsWithFieldName) {
  FinderConfig cfg;
  GetParam().mutate(cfg);
  const Status st = cfg.validate();
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find(GetParam().name), std::string::npos)
      << "message: " << st.message();
}

INSTANTIATE_TEST_SUITE_P(
    AllFields, FinderConfigRejection,
    ::testing::Values(
        RejectionCase{"num_seeds_too_large", "num_seeds",
                      [](FinderConfig& c) { c.num_seeds = (1u << 24) + 1; }},
        RejectionCase{"max_ordering_length_zero", "max_ordering_length",
                      [](FinderConfig& c) { c.max_ordering_length = 0; }},
        RejectionCase{"max_ordering_length_one", "max_ordering_length",
                      [](FinderConfig& c) { c.max_ordering_length = 1; }},
        RejectionCase{"score_out_of_range", "score",
                      [](FinderConfig& c) {
                        c.score = static_cast<ScoreKind>(7);
                      }},
        RejectionCase{"minimum_min_size_one", "minimum.min_size",
                      [](FinderConfig& c) { c.minimum.min_size = 1; }},
        RejectionCase{"minimum_accept_threshold_zero",
                      "minimum.accept_threshold",
                      [](FinderConfig& c) {
                        c.minimum.accept_threshold = 0.0;
                      }},
        RejectionCase{"minimum_accept_threshold_nan",
                      "minimum.accept_threshold",
                      [](FinderConfig& c) {
                        c.minimum.accept_threshold =
                            std::numeric_limits<double>::quiet_NaN();
                      }},
        RejectionCase{"minimum_drop_factor_below_one", "minimum.drop_factor",
                      [](FinderConfig& c) { c.minimum.drop_factor = 0.5; }},
        RejectionCase{"minimum_drop_factor_infinite", "minimum.drop_factor",
                      [](FinderConfig& c) {
                        c.minimum.drop_factor =
                            std::numeric_limits<double>::infinity();
                      }},
        RejectionCase{"minimum_rise_factor_below_one", "minimum.rise_factor",
                      [](FinderConfig& c) { c.minimum.rise_factor = 0.99; }},
        RejectionCase{"minimum_edge_fraction_negative",
                      "minimum.edge_fraction",
                      [](FinderConfig& c) {
                        c.minimum.edge_fraction = -0.01;
                      }},
        RejectionCase{"minimum_edge_fraction_above_half",
                      "minimum.edge_fraction",
                      [](FinderConfig& c) { c.minimum.edge_fraction = 0.6; }},
        RejectionCase{"curve_rent_min_k_one", "curve.rent_min_k",
                      [](FinderConfig& c) { c.curve.rent_min_k = 1; }},
        RejectionCase{"refine_seeds_too_many", "refine_seeds",
                      [](FinderConfig& c) { c.refine_seeds = 65; }},
        RejectionCase{"num_threads_too_many", "num_threads",
                      [](FinderConfig& c) { c.num_threads = 4097; }}));

// ---------- config JSON round trip ----------

FinderConfig non_default_config() {
  FinderConfig cfg;
  cfg.num_seeds = 321;
  cfg.max_ordering_length = 12'345;
  cfg.large_net_threshold = 0;
  cfg.min_cut_first = true;
  cfg.score = ScoreKind::kNgtlS;
  cfg.minimum.min_size = 17;
  cfg.minimum.accept_threshold = 0.5;
  cfg.minimum.drop_factor = 2.25;
  cfg.minimum.rise_factor = 1.125;
  cfg.minimum.edge_fraction = 0.07;
  cfg.curve.rent_min_k = 12;
  cfg.refine_seeds = 5;
  cfg.num_threads = 3;
  cfg.rng_seed = 0xDEADBEEFDEADBEEFULL;  // > int64 max: uint64 must survive
  cfg.dedup_candidates = false;
  return cfg;
}

void expect_config_eq(const FinderConfig& a, const FinderConfig& b) {
  EXPECT_EQ(a.num_seeds, b.num_seeds);
  EXPECT_EQ(a.max_ordering_length, b.max_ordering_length);
  EXPECT_EQ(a.large_net_threshold, b.large_net_threshold);
  EXPECT_EQ(a.min_cut_first, b.min_cut_first);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.minimum.min_size, b.minimum.min_size);
  EXPECT_EQ(a.minimum.accept_threshold, b.minimum.accept_threshold);
  EXPECT_EQ(a.minimum.drop_factor, b.minimum.drop_factor);
  EXPECT_EQ(a.minimum.rise_factor, b.minimum.rise_factor);
  EXPECT_EQ(a.minimum.edge_fraction, b.minimum.edge_fraction);
  EXPECT_EQ(a.curve.rent_min_k, b.curve.rent_min_k);
  EXPECT_EQ(a.refine_seeds, b.refine_seeds);
  EXPECT_EQ(a.num_threads, b.num_threads);
  EXPECT_EQ(a.rng_seed, b.rng_seed);
  EXPECT_EQ(a.dedup_candidates, b.dedup_candidates);
}

TEST(FinderConfigJson, RoundTripsDefaults) {
  FinderConfig back;
  ASSERT_TRUE(
      parse_finder_config(to_json(FinderConfig{}).dump(), &back).is_ok());
  expect_config_eq(FinderConfig{}, back);
}

TEST(FinderConfigJson, RoundTripsEveryField) {
  const FinderConfig cfg = non_default_config();
  const std::string text = to_json(cfg).dump(2);
  FinderConfig back;
  ASSERT_TRUE(parse_finder_config(text, &back).is_ok()) << text;
  expect_config_eq(cfg, back);
  // Fixed point: serialize(parse(serialize(x))) == serialize(x).
  EXPECT_EQ(to_json(back).dump(2), text);
}

TEST(FinderConfigJson, PartialConfigKeepsDefaults) {
  FinderConfig cfg;
  ASSERT_TRUE(
      parse_finder_config(R"({"num_seeds": 7, "rng_seed": 99})", &cfg)
          .is_ok());
  EXPECT_EQ(cfg.num_seeds, 7u);
  EXPECT_EQ(cfg.rng_seed, 99u);
  expect_config_eq([] {
    FinderConfig expected;
    expected.num_seeds = 7;
    expected.rng_seed = 99;
    return expected;
  }(), cfg);
}

TEST(FinderConfigJson, RejectsUnknownKey) {
  FinderConfig cfg;
  const Status st = parse_finder_config(R"({"num_seedz": 7})", &cfg);
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("num_seedz"), std::string::npos);
  // A removed field is an unknown key too, not silently ignored.
  const Status removed =
      parse_finder_config(R"({"dynamic_scheduling": false})", &cfg);
  ASSERT_FALSE(removed.is_ok());
  EXPECT_NE(removed.message().find("dynamic_scheduling"), std::string::npos);
}

TEST(FinderConfigJson, RejectsUnknownNestedKey) {
  FinderConfig cfg;
  const Status st =
      parse_finder_config(R"({"minimum": {"min_sz": 10}})", &cfg);
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("min_sz"), std::string::npos);
}

TEST(FinderConfigJson, RejectsBadScoreName) {
  FinderConfig cfg;
  const Status st = parse_finder_config(R"({"score": "ratio_cut"})", &cfg);
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("ratio_cut"), std::string::npos);
}

TEST(FinderConfigJson, RejectsWrongType) {
  FinderConfig cfg;
  EXPECT_FALSE(parse_finder_config(R"({"num_seeds": "many"})", &cfg).is_ok());
  EXPECT_FALSE(parse_finder_config(R"({"num_seeds": -3})", &cfg).is_ok());
  EXPECT_FALSE(parse_finder_config(R"([1, 2])", &cfg).is_ok());
}

TEST(FinderConfigJson, RejectsMalformedText) {
  FinderConfig cfg;
  const Status st = parse_finder_config("{\"num_seeds\": ", &cfg);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(FinderConfigJson, FailedParseLeavesOutputUntouched) {
  FinderConfig cfg = non_default_config();
  const FinderConfig before = cfg;
  ASSERT_FALSE(parse_finder_config(R"({"bogus": 1})", &cfg).is_ok());
  expect_config_eq(before, cfg);
}

// ---------- result JSON round trip ----------

TEST(FinderResultJson, RoundTripsRealResult) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 2'000;
  gcfg.gtls.push_back({150, 1});
  Rng rng(5);
  const PlantedGraph pg = generate_planted_graph(gcfg, rng);
  FinderConfig fcfg;
  fcfg.num_seeds = 20;
  fcfg.max_ordering_length = 600;
  fcfg.num_threads = 1;
  Finder finder(pg.netlist, fcfg);
  const FinderResult& result = finder.run();
  ASSERT_FALSE(result.gtls.empty());

  const std::string text = to_json(result).dump();
  FinderResult back;
  ASSERT_TRUE(parse_finder_result(text, &back).is_ok());

  ASSERT_EQ(back.gtls.size(), result.gtls.size());
  for (std::size_t i = 0; i < result.gtls.size(); ++i) {
    EXPECT_EQ(back.gtls[i].cells, result.gtls[i].cells);
    EXPECT_EQ(back.gtls[i].cut, result.gtls[i].cut);
    EXPECT_EQ(back.gtls[i].seed, result.gtls[i].seed);
    // Doubles must survive bit-exactly (shortest round-trip formatting).
    EXPECT_EQ(back.gtls[i].avg_pins, result.gtls[i].avg_pins);
    EXPECT_EQ(back.gtls[i].ngtl_s, result.gtls[i].ngtl_s);
    EXPECT_EQ(back.gtls[i].gtl_sd, result.gtls[i].gtl_sd);
    EXPECT_EQ(back.gtls[i].score, result.gtls[i].score);
    EXPECT_EQ(back.gtls[i].rent_exponent_used,
              result.gtls[i].rent_exponent_used);
  }
  EXPECT_EQ(back.context.rent_exponent, result.context.rent_exponent);
  EXPECT_EQ(back.context.avg_pins_per_cell, result.context.avg_pins_per_cell);
  EXPECT_EQ(back.orderings_grown, result.orderings_grown);
  EXPECT_EQ(back.candidates_before_refine, result.candidates_before_refine);
  EXPECT_EQ(back.candidates_after_dedup, result.candidates_after_dedup);
  EXPECT_EQ(back.phase1_2_seconds, result.phase1_2_seconds);
  EXPECT_EQ(back.phase3_seconds, result.phase3_seconds);
  EXPECT_EQ(back.total_seconds, result.total_seconds);
  EXPECT_EQ(back.cancelled, result.cancelled);

  // Fixed point at the text level too.
  EXPECT_EQ(to_json(back).dump(), text);
}

TEST(FinderResultJson, RejectsUnknownKey) {
  FinderResult result;
  const Status st = parse_finder_result(R"({"gtlz": []})", &result);
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("gtlz"), std::string::npos);
}

}  // namespace
}  // namespace gtl
