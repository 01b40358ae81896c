// batch_find: the paper's job, in process.  Each iteration parses a
// bigblue1-like Bookshelf design (139,210 cells at factor 0.5), creates a
// Finder session, steps the three phases as find_structures does and
// encodes the result JSON.  Every result must equal the single-threaded
// reference made in set-up, byte for byte, and the reference must
// recover the planted structures (see kRecallBar).

#include <iostream>
#include <memory>
#include <unistd.h>

#include "bench.hpp"
#include "graphgen/planted_graph.hpp"
#include "netlist/netlist_io.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

constexpr double kFactor = 0.5;
constexpr std::size_t kSeeds = 200;
constexpr std::size_t kThreads = 4;
constexpr int kSetupReps = 5;
constexpr int kMinIterations = 3;
/// A planted structure counts as recovered when one GTL matches it with
/// at most 10 % of its cells missing and at most 10 % extra cells.  The
/// recovered structures must hold at least 60 % of all planted cells.
/// (Not every structure is found: at 200 seeds a small structure often
/// gets no seed; measured recall over seeds 1-24 was 0.71-0.99.)
constexpr double kMatchTolerance = 0.10;
constexpr double kRecallBar = 0.60;

gtl::FinderConfig batch_config(std::size_t cells, std::size_t threads) {
  gtl::FinderConfig cfg;
  cfg.num_seeds = kSeeds;
  cfg.max_ordering_length = cells / 8 + 1000;
  cfg.num_threads = threads;
  return cfg;
}

/// Phase figures of one stepped find.
struct Find {
  double total_s = 0.0, parse_s = 0.0, create_s = 0.0, grow_s = 0.0,
         extract_s = 0.0, refine_s = 0.0;
  std::size_t cells_grown = 0, candidates = 0, gtls = 0;
  std::string bytes;
};

/// parse -> Finder::create -> grow -> extract -> refine -> encode, one
/// span each, under a root span `root`.  With `keep` the session and the
/// design survive for a warm rerun.
/// A session kept alive after find_once, with the design it borrows.
struct Kept {
  std::unique_ptr<gtl::BookshelfDesign> design;
  std::unique_ptr<gtl::Finder> finder;
};

Find find_once(const DesignFiles& design, std::size_t threads, Lane& lane,
               const char* root, std::uint64_t req, Kept* keep = nullptr) {
  Find f;
  lane.begin(root, req);
  auto d = std::make_unique<gtl::BookshelfDesign>();
  f.parse_s = timed(lane, "netlist.read_bookshelf", req,
                    [&] { *d = load_bookshelf(design.aux); });
  std::unique_ptr<gtl::Finder> finder;
  f.create_s = timed(lane, "finder.create", req, [&] {
    if (!gtl::Finder::create(d->netlist,
                             batch_config(d->netlist.num_cells(), threads),
                             &finder)
             .is_ok()) {
      throw std::runtime_error("invalid batch finder config");
    }
  });
  f.grow_s = timed(lane, "order.grow", req, [&] {
    for (const gtl::LinearOrdering& o : finder->grow_orderings().orderings) {
      f.cells_grown += o.cells.size();
    }
  });
  f.extract_s = timed(lane, "finder.extract", req, [&] {
    f.candidates = finder->extract_candidates().candidates.size();
  });
  f.refine_s = timed(lane, "finder.refine", req, [&] {
    f.gtls = finder->refine_and_prune().gtls.size();
  });
  timed(lane, "serve.encode", req, [&] {
    f.bytes = gtl::serve::deterministic_result_json(finder->result()).dump();
  });
  if (keep != nullptr) {
    keep->design = std::move(d);
    keep->finder = std::move(finder);
  } else {
    timed(lane, "finder.destroy", req, [&] { finder.reset(); });
    timed(lane, "netlist.destroy", req, [&] { d.reset(); });
  }
  f.total_s = lane.end();
  return f;
}

/// Share of planted cells held by structures some GTL recovers.
double planted_recall(const DesignFiles& design,
                      const gtl::FinderResult& result, std::size_t* matched) {
  double recovered = 0.0, total = 0.0;
  *matched = 0;
  for (const std::vector<gtl::CellId>& truth : design.planted) {
    total += static_cast<double>(truth.size());
    for (const gtl::Candidate& g : result.gtls) {
      const gtl::RecoveryStats st = gtl::recovery_stats(truth, g.cells);
      if (st.miss_fraction <= kMatchTolerance &&
          st.over_fraction <= kMatchTolerance) {
        recovered += static_cast<double>(truth.size());
        ++*matched;
        break;
      }
    }
  }
  return total == 0.0 ? 0.0 : recovered / total;
}

template <typename Get>
std::vector<double> column(const std::vector<Find>& finds, Get get) {
  std::vector<double> out;
  for (const Find& f : finds) out.push_back(get(f));
  return out;
}

/// The serve layer on this design: a server loads it from each source
/// and answers the batch query once (result checked against the
/// reference).
ServeFigures serve_probe(const Options& opt, const DesignFiles& design,
                         const std::string& reference, Lane& lane,
                         Report& report) {
  ServeFigures sv;
  ServerProcess server;
  if (const gtl::Status st = server.start(
          opt.server_bin, "probe", {"--workers=4", "--queue-cap=16"});
      !st.is_ok()) {
    report.broken(st.to_string());
    return sv;
  }
  Conn conn;
  if (const gtl::Status st = conn.connect(server.socket(), 1); !st.is_ok()) {
    report.broken("connect: " + st.to_string());
    return sv;
  }
  probe_loads(conn, design, "probe", 1, lane, report, &sv);

  std::string reply;
  const std::uint64_t lid = conn.next_id();
  if (!conn.call(load_line(lid, "batch", "", design.snapshot.string()), &reply)
           .is_ok() ||
      !decode_reply(reply, lid).ok) {
    report.broken("probe load failed: " + reply.substr(0, 200));
    return sv;
  }
  const std::string cfg =
      gtl::to_json(batch_config(design.cells, kThreads)).dump();
  const std::uint64_t id = conn.next_id();
  const std::string line = run_finder_line(id, "batch", cfg);
  const double cpu0 = proc_stats(server.pid()).cpu_seconds;
  double rt = 0.0;
  const Reply r = round_trip(conn, lane, "serve.roundtrip", "finder.server_run",
                             id, line, &reply, &rt);
  if (!r.ok || r.result != reference) {
    report.broken("served batch result differs from the reference: " +
                  r.error);
  } else {
    sv.roundtrip_ms.push_back(rt * 1e3);
    sv.queue_ms.push_back(r.queue_s * 1e3);
    sv.run_ms.push_back(r.run_s * 1e3);
  }
  const ProcStats ps = proc_stats(server.pid());
  sv.cpu_s = ps.cpu_seconds - cpu0;
  sv.threads = ps.threads;
  read_session_counters(fetch_stats(conn, report), &sv);
  sv.parse_request_us = time_parse_request_us({line}, lane, report);
  sv.parse_lines = 1;
  if (const gtl::Status stop = server.stop(); !stop.is_ok()) {
    report.broken(stop.to_string());
  }
  return sv;
}

}  // namespace

int run_batch_find(const Options& opt) {
  Report report("batch_find", opt.trace);
  Lane lane(0, opt.trace);

  // --- set-up: generate the design and write its Bookshelf files ---
  std::vector<double> setups;
  DesignFiles design;
  for (int k = 0; k < kSetupReps; ++k) {
    const std::int64_t t0 = now_ns();
    design = make_design("bigblue1", kFactor, opt.seed, "designs", "bigblue1",
                         false);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // --- the single-threaded reference (traced: the 1-thread side of the
  // speed-up ratios) ---
  Kept kept;
  const Find ref = find_once(design, 1, lane, "bench.reference", 0, &kept);
  std::uint64_t ref_digest = fnv1a(ref.bytes);
  if (opt.corrupt_reference) ref_digest ^= 1;
  std::size_t matched = 0;
  const double recall =
      planted_recall(design, kept.finder->result(), &matched);
  const gtl::FinderResult ref_result = kept.finder->result();
  kept = Kept{};
  if (recall < kRecallBar) {
    report.broken("planted recall " + std::to_string(recall) + " < " +
                  std::to_string(kRecallBar));
  }

  // --- measured loop (a traced run records only its second half) ---
  reset_peak_rss();
  std::vector<Find> untraced, traced;
  const double half = opt.trace ? opt.seconds / 2 : opt.seconds;
  for (int pass = 0; pass < (opt.trace ? 2 : 1); ++pass) {
    lane.set_recording(opt.trace && pass == 1);
    std::vector<Find>& finds = pass == 1 ? traced : untraced;
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(half * 1e9);
    for (std::uint64_t it = 1;
         now_ns() < end || finds.size() < static_cast<std::size_t>(kMinIterations);
         ++it) {
      report.attempt();
      finds.push_back(find_once(design, kThreads, lane, "bench.iteration", it));
      const std::string& bytes = finds.back().bytes;
      if (bytes.size() != ref.bytes.size() || fnv1a(bytes) != ref_digest ||
          bytes != ref.bytes) {
        report.fail("iteration " + std::to_string(it) +
                    " result differs from the 1-thread reference");
      }
      finds.back().bytes.clear();
    }
  }
  const double peak_mb = proc_stats(::getpid()).hwm_mb;
  lane.set_recording(opt.trace);

  const std::vector<Find>& main = opt.trace ? traced : untraced;
  const std::vector<double> totals = column(main, [](const Find& f) { return f.total_s; });
  double busy = 0.0;
  for (const double t : totals) busy += t;
  report.e2e("setup_s", median(setups), "s", setups.size());
  report.e2e("qps", static_cast<double>(totals.size()) / busy, "1/s",
             totals.size());
  report.e2e("query_p50_ms", median(totals) * 1e3, "ms", totals.size());
  report.e2e("peak_rss_mb", peak_mb, "MB", 1);
  report.line("find_p50_s", median(totals), "s", totals.size());
  report.line("failed_ratio", report.failed_ratio(), "ratio",
              report.attempted());
  report.line("reference_s", ref.total_s, "s", 1);
  report.line("planted_recall", recall, "ratio", design.planted.size());
  report.line("planted_matched", static_cast<double>(matched), "count",
              design.planted.size());
  std::cout << "perfbench batch_find reference fnv1a=" << std::hex << ref_digest
            << std::dec << " bytes=" << ref.bytes.size() << "\n";

  if (opt.trace) {
    // Per-layer figures: the traced iterations, the reference, and probes
    // for the calls the loop does not make (snapshot load, warm rerun,
    // the serve layer).
    LayerProbe p;
    p.samples = traced.size();
    p.parse_s = median(column(traced, [](const Find& f) { return f.parse_s; }));
    p.parse_mb_per_s = static_cast<double>(design.bookshelf_bytes) / 1e6 / p.parse_s;
    p.grow_s = median(column(traced, [](const Find& f) { return f.grow_s; }));
    p.grow_1t_s = ref.grow_s;
    p.extract_s = median(column(traced, [](const Find& f) { return f.extract_s; }));
    p.refine_s = median(column(traced, [](const Find& f) { return f.refine_s; }));
    p.refine_1t_s = ref.refine_s;
    p.cells_grown = traced.back().cells_grown;
    p.candidates_refined = traced.back().candidates;
    p.gtls = traced.back().gtls;
    p.session_create_ms =
        median(column(traced, [](const Find& f) { return f.create_s; })) * 1e3;

    const TraceSummary sum = summarize({&lane}, "bench.iteration");
    const std::vector<double> untraced_totals =
        column(untraced, [](const Find& f) { return f.total_s; });

    // Snapshot load of the same design, then a warm rerun of the query.
    design.snapshot = "designs/bigblue1.snap";
    (void)find_once(design, kThreads, lane, "bench.warm_probe", 0, &kept);
    gtl::write_snapshot(*kept.design, design.snapshot);
    std::vector<double> snap;
    for (int i = 0; i < 3; ++i) {
      gtl::BookshelfDesign s;
      snap.push_back(timed(lane, "netlist.read_snapshot", i, [&] {
        if (!gtl::try_read_snapshot(design.snapshot, &s).is_ok()) {
          report.broken("snapshot unreadable");
        }
      }));
    }
    p.snapshot_load_ms = median(snap) * 1e3;
    p.snapshot_samples = snap.size();
    std::string warm_bytes;
    p.warm_run_ms = timed(lane, "finder.run", 0, [&] {
                      warm_bytes = gtl::serve::deterministic_result_json(
                                       kept.finder->run())
                                       .dump();
                    }) *
                    1e3;
    p.warm_samples = 1;
    if (warm_bytes != ref.bytes) report.broken("warm rerun differs from reference");
    kept = Kept{};

    ServeFigures sv = serve_probe(opt, design, ref.bytes, lane, report);
    sv.result_encode_us = time_result_encode_us(ref_result, lane);
    report_layers(p, sv, sum.root_self_seconds / sum.root_seconds, sum.roots,
                  median(totals) / median(untraced_totals), untraced.size(),
                  report);
    for (const auto& [layer, self] : sum.layer_self_seconds) {
      report.line("self_s." + layer, self, "s", sum.roots);
    }
    gtl::JsonValue::Object header;
    header.emplace("workload", gtl::JsonValue("batch_find"));
    header.emplace("seed", gtl::JsonValue(opt.seed));
    header.emplace("fingerprint", fingerprint(opt));
    if (const gtl::Status st =
            write_spans(opt.span_file, gtl::JsonValue(std::move(header)), {&lane});
        !st.is_ok()) {
      report.broken(st.to_string());
    }
  }
  report.print_result();
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench
