// Inputs (graphgen designs written to disk), in-process reference
// results, and in-process per-layer probes.

#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "graphgen/presets.hpp"
#include "graphgen/synthetic_circuit.hpp"
#include "netlist/netlist_io.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace fs = std::filesystem;

DesignFiles make_design(const std::string& preset, double factor,
                        std::uint64_t seed, const fs::path& dir,
                        const std::string& name, bool with_snapshot) {
  gtl::Rng rng(seed);
  gtl::SyntheticCircuit circuit =
      gtl::generate_synthetic_circuit(gtl::ispd_like_config(preset, factor), rng);
  gtl::BookshelfDesign design;
  design.netlist = std::move(circuit.netlist);
  design.x = std::move(circuit.hint_x);
  design.y = std::move(circuit.hint_y);
  fs::create_directories(dir);
  gtl::write_bookshelf(design, dir, name);

  DesignFiles files;
  files.name = name;
  files.aux = dir / (name + ".aux");
  files.cells = design.netlist.num_cells();
  files.planted = std::move(circuit.planted);
  for (const char* ext : {".aux", ".nodes", ".nets", ".pl"}) {
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(dir / (name + ext), ec);
    if (!ec) files.bookshelf_bytes += size;
  }
  if (with_snapshot) {
    // From the parsed Bookshelf, so both sources load the same netlist.
    files.snapshot = dir / (name + ".snap");
    gtl::write_snapshot(load_bookshelf(files.aux), files.snapshot);
  }
  return files;
}

gtl::BookshelfDesign load_bookshelf(const fs::path& aux) {
  gtl::BookshelfDesign design;
  if (const gtl::Status st = gtl::try_read_bookshelf(aux, &design);
      !st.is_ok()) {
    throw std::runtime_error(st.to_string());
  }
  return design;
}

Reference reference_result(const gtl::Netlist& nl,
                           const gtl::FinderConfig& cfg) {
  gtl::FinderConfig one = cfg;
  one.num_threads = 1;
  gtl::Finder finder(nl, one);
  Reference ref{finder.run(), {}};
  ref.bytes = gtl::serve::deterministic_result_json(ref.result).dump();
  return ref;
}

namespace {

/// The three phases stepped as find_structures does; returns the result
/// bytes and the phase times.
struct Stepped {
  double grow_s = 0.0, extract_s = 0.0, refine_s = 0.0;
  std::size_t cells_grown = 0, candidates = 0, gtls = 0;
  std::string bytes;
};

Stepped step_phases(gtl::Finder& finder, Lane& lane, std::uint64_t req) {
  Stepped s;
  s.grow_s = timed(lane, "order.grow", req, [&] {
    for (const gtl::LinearOrdering& o : finder.grow_orderings().orderings) {
      s.cells_grown += o.cells.size();
    }
  });
  s.extract_s = timed(lane, "finder.extract", req, [&] {
    s.candidates = finder.extract_candidates().candidates.size();
  });
  s.refine_s = timed(lane, "finder.refine", req, [&] {
    s.gtls = finder.refine_and_prune().gtls.size();
  });
  timed(lane, "serve.encode", req, [&] {
    s.bytes = gtl::serve::deterministic_result_json(finder.result()).dump();
  });
  return s;
}

std::unique_ptr<gtl::Finder> create(const gtl::Netlist& nl,
                                    const gtl::FinderConfig& cfg) {
  std::unique_ptr<gtl::Finder> finder;
  if (const gtl::Status st = gtl::Finder::create(nl, cfg, &finder);
      !st.is_ok()) {
    throw std::runtime_error(st.to_string());
  }
  return finder;
}

}  // namespace

LayerProbe probe_layers(const DesignFiles& design, const gtl::FinderConfig& cfg,
                        const std::string& expected, std::size_t reps,
                        Lane& lane, Report& report) {
  LayerProbe p;
  p.samples = p.snapshot_samples = p.warm_samples = reps;
  std::vector<double> parse, snap, create_ms, grow, grow1, extract, refine,
      refine1, warm;
  gtl::BookshelfDesign d;
  for (std::size_t i = 0; i < reps; ++i) {
    parse.push_back(timed(lane, "netlist.read_bookshelf", i,
                          [&] { d = load_bookshelf(design.aux); }));
    gtl::BookshelfDesign s;
    snap.push_back(timed(lane, "netlist.read_snapshot", i, [&] {
      if (!gtl::try_read_snapshot(design.snapshot, &s).is_ok()) {
        report.broken("snapshot " + design.snapshot.string() + " unreadable");
      }
    }));
  }
  p.parse_s = median(parse);
  p.parse_mb_per_s = static_cast<double>(design.bookshelf_bytes) / 1e6 / p.parse_s;
  p.snapshot_load_ms = median(snap) * 1e3;

  gtl::FinderConfig four = cfg, one = cfg;
  four.num_threads = 4;
  one.num_threads = 1;
  for (std::size_t i = 0; i < reps; ++i) {
    std::unique_ptr<gtl::Finder> f;
    create_ms.push_back(
        timed(lane, "finder.create", i, [&] { f = create(d.netlist, four); }) *
        1e3);
    const Stepped s4 = step_phases(*f, lane, i);
    timed(lane, "finder.destroy", i, [&] { f.reset(); });
    f = create(d.netlist, one);
    const Stepped s1 = step_phases(*f, lane, i);
    if (s4.bytes != expected || s1.bytes != expected) {
      report.broken("in-process result on " + design.name +
                    " differs from the reference");
    }
    grow.push_back(s4.grow_s);
    extract.push_back(s4.extract_s);
    refine.push_back(s4.refine_s);
    grow1.push_back(s1.grow_s);
    refine1.push_back(s1.refine_s);
    p.cells_grown = s4.cells_grown;
    p.candidates_refined = s4.candidates;
    p.gtls = s4.gtls;
  }
  p.session_create_ms = median(create_ms);
  p.grow_s = median(grow);
  p.grow_1t_s = median(grow1);
  p.extract_s = median(extract);
  p.refine_s = median(refine);
  p.refine_1t_s = median(refine1);

  // The query as the server runs it, on a warm session.
  std::unique_ptr<gtl::Finder> warm_session = create(d.netlist, cfg);
  (void)warm_session->run();
  for (std::size_t i = 0; i < reps; ++i) {
    std::string bytes;
    warm.push_back(timed(lane, "finder.run", i, [&] {
                     bytes = gtl::serve::deterministic_result_json(
                                 warm_session->run())
                                 .dump();
                   }) *
                   1e3);
    if (bytes != expected) report.broken("warm-session result differs");
  }
  p.warm_run_ms = median(warm);
  return p;
}

double time_parse_request_us(const std::vector<std::string>& lines, Lane& lane,
                             Report& report) {
  std::vector<double> per_line;
  for (int pass = 0; pass < 5; ++pass) {
    const double s = timed(lane, "serve.parse_request", pass, [&] {
      for (const std::string& line : lines) {
        gtl::serve::Request req;
        gtl::serve::ErrorCode code{};
        bool has_id = false;
        if (!gtl::serve::parse_request(line, &req, &code, &has_id).is_ok()) {
          report.broken("the workload's own request does not parse: " + line);
        }
      }
    });
    per_line.push_back(s * 1e6 / static_cast<double>(lines.size()));
  }
  return median(per_line);
}

double time_result_encode_us(const gtl::FinderResult& result, Lane& lane) {
  constexpr int kPerPass = 64;
  gtl::serve::ServerTiming timing{0.001, 0.002};
  std::vector<double> per_encode;
  std::size_t bytes = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const double s = timed(lane, "serve.result_encode", pass, [&] {
      for (int i = 0; i < kPerPass; ++i) {
        bytes += gtl::serve::ok_line(static_cast<std::uint64_t>(i),
                                     gtl::serve::Op::kRunFinder,
                                     gtl::serve::deterministic_result_json(result),
                                     &timing)
                     .size();
      }
    });
    per_encode.push_back(s * 1e6 / kPerPass);
  }
  return bytes == 0 ? 0.0 : median(per_encode);
}

void report_layers(const LayerProbe& p, const ServeFigures& sv,
                   double unattributed_ratio, std::size_t unattributed_n,
                   double trace_overhead_ratio, std::size_t overhead_n,
                   Report& r) {
  const std::size_t n = p.samples;
  r.layer("netlist.parse_s", p.parse_s, "s", n);
  r.layer("netlist.parse_mb_per_s", p.parse_mb_per_s, "MB/s", n);
  r.layer("netlist.snapshot_load_ms", p.snapshot_load_ms, "ms",
          p.snapshot_samples);
  r.layer("netlist.bookshelf_load_ms", p.parse_s * 1e3, "ms", n);
  r.layer("order.grow_s", p.grow_s, "s", n);
  r.layer("order.cells_grown", static_cast<double>(p.cells_grown), "count", n);
  r.layer("order.cells_per_s", static_cast<double>(p.cells_grown) / p.grow_s,
          "1/s", n);
  r.layer("order.speedup_4t", p.grow_1t_s / p.grow_s, "x", n);
  r.layer("finder.extract_s", p.extract_s, "s", n);
  r.layer("finder.refine_s", p.refine_s, "s", n);
  r.layer("finder.refine_speedup_4t", p.refine_1t_s / p.refine_s, "x", n);
  r.layer("finder.candidates_refined", static_cast<double>(p.candidates_refined),
          "count", n);
  r.layer("finder.keep_ratio",
          p.candidates_refined == 0
              ? 0.0
              : static_cast<double>(p.gtls) /
                    static_cast<double>(p.candidates_refined),
          "ratio", n);
  r.layer("finder.session_create_ms", p.session_create_ms, "ms", n);
  r.layer("finder.warm_run_ms", p.warm_run_ms, "ms", p.warm_samples);

  const std::size_t rt_n = sv.roundtrip_ms.size();
  std::vector<double> transport_ms;
  for (std::size_t i = 0; i < rt_n; ++i) {
    transport_ms.push_back(sv.roundtrip_ms[i] - sv.queue_ms[i] - sv.run_ms[i]);
  }
  r.layer("serve.roundtrip_ms_p50", median(sv.roundtrip_ms), "ms", rt_n);
  r.layer("serve.run_ms_p50", median(sv.run_ms), "ms", rt_n);
  r.layer("serve.queue_ms_p50", median(sv.queue_ms), "ms", rt_n);
  r.layer("serve.queue_ms_p99", percentile(sv.queue_ms, 0.99), "ms", rt_n);
  r.layer("serve.transport_ms_p50", median(transport_ms), "ms", rt_n);
  r.layer("serve.parse_request_us", sv.parse_request_us, "us", sv.parse_lines);
  r.layer("serve.result_encode_us", sv.result_encode_us, "us", 5);
  r.layer("serve.cpu_ms_per_query",
          sv.cpu_s * 1e3 / static_cast<double>(std::max<std::size_t>(rt_n, 1)),
          "ms", rt_n);
  r.layer("serve.threads", static_cast<double>(sv.threads), "count", 1);
  r.layer("serve.sessions_reused_ratio", sv.sessions_reused_ratio, "ratio",
          sv.sessions);
  r.layer("serve.load_snapshot_ms_p50", median(sv.load_snapshot_ms), "ms",
          sv.load_snapshot_ms.size());
  r.layer("serve.load_bookshelf_ms_p50", median(sv.load_bookshelf_ms), "ms",
          sv.load_bookshelf_ms.size());
  r.layer("serve.rejected", static_cast<double>(sv.rejected), "count", 1);
  r.layer("unattributed_ratio", unattributed_ratio, "ratio", unattributed_n);
  r.layer("trace_overhead_ratio", trace_overhead_ratio, "ratio", overhead_n);
}

}  // namespace perfbench
