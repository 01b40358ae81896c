// serve_tiny and serve_churn: closed-loop clients (each waits for its
// reply before sending again) against a spawned gtl_serve.
//
// serve_tiny: 4 workers, one ~4.4k-cell adaptec1-like design, 4
// connections sending a minimal run_finder.  The serving layer's own cost.
//
// serve_churn: 2 workers and a manifest.  3 connections send finder-heavy
// run_finder to 2 resident hot designs; 1 connection cycles load_design ->
// run_finder -> unload_design over a pool of cold designs, alternating
// Bookshelf-only and snapshot-backed loads.  The residency cap sits above
// the working set, so the only evictions are the explicit unloads.

#include <algorithm>
#include <map>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "gtl/finder.hpp"
#include "serve/manifest.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

constexpr int kSetupReps = 5;
constexpr std::size_t kSampleLines = 32;
/// Unmeasured (but checked) traffic before the measurement, so it starts
/// with warm sessions, page cache and allocator.
constexpr double kWarmupSeconds = 1.0;

/// What one client connection did in one measurement window.
struct ConnLog {
  explicit ConnLog(int lane_id) : lane(lane_id, false) {}
  Lane lane;
  std::vector<double> query_ms, queue_ms, run_ms;  ///< ok run_finder
  std::vector<double> load_bookshelf_ms, load_snapshot_ms;
  std::map<std::string, std::size_t> queries;  ///< ok run_finder per design
  std::size_t sent = 0, ok_replies = 0;
  std::size_t loads = 0, snapshot_loads = 0;
  std::vector<std::string> failures;
  /// The first lines this connection sent (for the parse_request probe).
  std::vector<std::string> sample_lines;
};

/// A run_finder target and the bytes its result block must equal.
struct Query {
  std::string design;
  std::string config_json;
  std::string expected;
};

std::string send(Conn& conn, ConnLog& log, const char* span,
                 const char* run_span, std::uint64_t id,
                 const std::string& line, Reply* reply, double* seconds) {
  if (log.sample_lines.size() < kSampleLines) log.sample_lines.push_back(line);
  std::string response;
  *reply = round_trip(conn, log.lane, span, run_span, id, line, &response,
                      seconds);
  ++log.sent;
  if (reply->ok) ++log.ok_replies;
  return response;
}

bool send_query(Conn& conn, ConnLog& log, const Query& q) {
  const std::uint64_t id = conn.next_id();
  Reply r;
  double s = 0.0;
  (void)send(conn, log, "serve.roundtrip", "finder.server_run", id,
             run_finder_line(id, q.design, q.config_json), &r, &s);
  if (!r.ok || r.result != q.expected) {
    log.failures.push_back("run_finder " + std::to_string(id) + " on " +
                           q.design + ": " +
                           (r.ok ? "result differs from the in-process "
                                   "reference"
                                 : r.error));
    return false;
  }
  ++log.queries[q.design];
  log.query_ms.push_back(s * 1e3);
  log.queue_ms.push_back(r.queue_s * 1e3);
  log.run_ms.push_back(r.run_s * 1e3);
  return true;
}

bool send_load(Conn& conn, ConnLog& log, const DesignFiles& d, bool snapshot) {
  const std::uint64_t id = conn.next_id();
  Reply r;
  double s = 0.0;
  const std::string response =
      send(conn, log, "serve.load_design", "netlist.server_load", id,
           load_line(id, d.name, snapshot ? "" : d.aux.string(),
                     snapshot ? d.snapshot.string() : ""),
           &r, &s);
  if (!r.ok || !load_reply_ok(response, d.cells, snapshot)) {
    log.failures.push_back("load_design " + d.name + ": " +
                           (r.ok ? "unexpected reply " + response.substr(0, 200)
                                 : r.error));
    return false;
  }
  ++log.loads;
  if (snapshot) ++log.snapshot_loads;
  (snapshot ? log.load_snapshot_ms : log.load_bookshelf_ms).push_back(s * 1e3);
  return true;
}

bool send_unload(Conn& conn, ConnLog& log, const std::string& name) {
  const std::uint64_t id = conn.next_id();
  Reply r;
  double s = 0.0;
  (void)send(conn, log, "serve.unload_design", "serve.unload", id,
             simple_line(id, "unload_design", name), &r, &s);
  if (!r.ok) log.failures.push_back("unload_design " + name + ": " + r.error);
  return r.ok;
}

/// Runs `step(i, conn, log)` on every connection in its own thread until
/// `seconds` pass (a step always completes).  Returns the window's wall
/// time; with `record` each lane records a "bench.loop" root span.
template <typename Step>
double run_window(std::vector<Conn>& conns, std::vector<ConnLog>& logs,
                  double seconds, bool record, Step step) {
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back([&, i] {
      ConnLog& log = logs[i];
      log.lane.set_recording(record);
      log.lane.begin("bench.loop", i);
      try {
        while (now_ns() < end) step(i, conns[i], log);
      } catch (const std::exception& e) {
        log.failures.push_back(std::string("connection thread: ") + e.what());
      }
      (void)log.lane.end();
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Everything the workloads share: set-up repetitions, the connections,
/// the measurement windows and the closing checks.
struct Session {
  const Options& opt;
  Report report;
  Lane main;
  std::unique_ptr<ServerProcess> server;
  Conn control;
  std::size_t control_sent = 0, control_ok = 0;
  std::vector<Conn> conns;
  std::vector<ConnLog> warmup, untraced, traced;
  double untraced_s = 0.0, traced_s = 0.0;
  double cpu_s = 0.0;  ///< server CPU over the measured window
  std::size_t threads = 0;

  Session(const Options& o, const char* name)
      : opt(o), report(name, o.trace), main(0, o.trace) {}

  /// Stop the current server (if any) and require a clean exit.
  void stop_server() {
    if (server == nullptr) return;
    if (const gtl::Status st = server->stop(); !st.is_ok()) {
      report.broken(st.to_string());
    }
    server.reset();
  }

  gtl::Status start_server(const std::string& tag,
                           const std::vector<std::string>& args) {
    stop_server();
    server = std::make_unique<ServerProcess>();
    GTL_RETURN_IF_ERROR(server->start(opt.server_bin, tag, args));
    control = Conn{};
    control_sent = control_ok = 0;
    return control.connect(server->socket(), 1);
  }

  /// A set-up load on the control connection.
  void control_load(const DesignFiles& d) {
    std::string reply;
    const std::uint64_t id = control.next_id();
    ++control_sent;
    if (!control.call(load_line(id, d.name, d.aux.string(), ""), &reply)
             .is_ok() ||
        !decode_reply(reply, id).ok || !load_reply_ok(reply, d.cells, false)) {
      throw std::runtime_error("set-up load of " + d.name +
                               " failed: " + reply.substr(0, 300));
    }
    ++control_ok;
  }

  void connect(std::size_t n) {
    conns.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Each connection owns its own id range (see Conn).
      if (const gtl::Status st =
              conns[i].connect(server->socket(), (i + 1) << 32);
          !st.is_ok()) {
        throw std::runtime_error("connect: " + st.to_string());
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      warmup.emplace_back(static_cast<int>(i) + 1);
      untraced.emplace_back(static_cast<int>(i) + 1);
      traced.emplace_back(static_cast<int>(i) + 1);
    }
  }

  /// After a warm-up, the measurement: one window, or for a traced run an
  /// untraced half (the overhead baseline) then a traced half.
  template <typename Step>
  void measure(Step step) {
    (void)run_window(conns, warmup, kWarmupSeconds, false, step);
    const double cpu0 = proc_stats(server->pid()).cpu_seconds;
    if (opt.trace) {
      untraced_s = run_window(conns, untraced, opt.seconds / 2, false, step);
      const double cpu1 = proc_stats(server->pid()).cpu_seconds;
      traced_s = run_window(conns, traced, opt.seconds / 2, true, step);
      cpu_s = proc_stats(server->pid()).cpu_seconds - cpu1;
    } else {
      untraced_s = run_window(conns, untraced, opt.seconds, false, step);
      cpu_s = proc_stats(server->pid()).cpu_seconds - cpu0;
    }
    threads = proc_stats(server->pid()).threads;
    for (const std::vector<ConnLog>* logs : {&warmup, &untraced, &traced}) {
      for (const ConnLog& log : *logs) {
        report.attempt(log.sent);
        for (const std::string& f : log.failures) report.fail(f);
      }
    }
  }

  /// The logs of the measured window (the traced half in a traced run).
  [[nodiscard]] const std::vector<ConnLog>& logs() const {
    return opt.trace ? traced : untraced;
  }
  [[nodiscard]] double window_s() const {
    return opt.trace ? traced_s : untraced_s;
  }

  template <typename Get>
  [[nodiscard]] std::vector<double> merged(Get get) const {
    std::vector<double> out;
    for (const ConnLog& log : logs()) {
      const std::vector<double>& v = get(log);
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }

  /// Sum of `get(log)` over every window.
  template <typename Get>
  [[nodiscard]] std::size_t total(Get get) const {
    std::size_t n = 0;
    for (const std::vector<ConnLog>* logs : {&warmup, &untraced, &traced}) {
      for (const ConnLog& log : *logs) n += get(log);
    }
    return n;
  }

  [[nodiscard]] std::size_t queries(const std::string& design) const {
    return total([&](const ConnLog& l) {
      const auto it = l.queries.find(design);
      return it == l.queries.end() ? std::size_t{0} : it->second;
    });
  }

  /// stats must agree with what the clients saw: every line received,
  /// every ok reply counted, nothing shed or rejected, per-design query
  /// counts exact.
  void check_stats(const std::vector<std::string>& designs,
                             std::size_t loads, std::size_t snapshot_hits) {
    const std::size_t sent = control_sent + total([](const ConnLog& l) { return l.sent; });
    const std::size_t ok = control_ok + total([](const ConnLog& l) { return l.ok_replies; });
    ++control_sent;
    const gtl::JsonValue stats = fetch_stats(control, report);
    const gtl::JsonValue* global = stats.is_object() ? stats.find("global") : nullptr;
    const auto counter = [&](const gtl::JsonValue* obj, const char* key) {
      std::uint64_t v = ~std::uint64_t{0};
      const gtl::JsonValue* f =
          obj != nullptr && obj->is_object() ? obj->find(key) : nullptr;
      if (f != nullptr) (void)f->get_uint64(&v);
      return v;
    };
    const auto expect = [&](const std::string& what, std::uint64_t got,
                            std::uint64_t want) {
      if (got != want) {
        report.broken("stats " + what + " = " + std::to_string(got) +
                      ", the clients counted " + std::to_string(want));
      }
    };
    // `received` counts the stats request itself; `completed_ok` does not.
    expect("received", counter(global, "received"), sent + 1);
    expect("completed_ok", counter(global, "completed_ok"), ok);
    expect("rejected_overload", counter(global, "rejected_overload"), 0);
    expect("rejected_invalid", counter(global, "rejected_invalid"), 0);
    expect("designs_loaded", counter(global, "designs_loaded"), loads);
    expect("snapshot_hits", counter(global, "snapshot_hits"), snapshot_hits);
    expect("designs_evicted", counter(global, "designs_evicted"), 0);
    const gtl::JsonValue* per = stats.is_object() ? stats.find("designs") : nullptr;
    for (const std::string& d : designs) {
      const gtl::JsonValue* dm =
          per != nullptr && per->is_object() ? per->find(d) : nullptr;
      expect(d + ".queries", counter(dm, "queries"), queries(d));
      expect(d + ".errors", counter(dm, "errors"), 0);
    }
  }

  /// End-to-end metrics of a serving workload.
  void report_e2e(const std::vector<double>& setups, double peak_mb) {
    const std::vector<double> q = merged([](const ConnLog& l) -> const std::vector<double>& { return l.query_ms; });
    report.e2e("setup_s", median(setups), "s", setups.size());
    report.e2e("qps", static_cast<double>(q.size()) / window_s(), "1/s", q.size());
    report.e2e("query_p50_ms", median(q), "ms", q.size());
    report.e2e("peak_rss_mb", peak_mb, "MB", 1);
    report.line("query_p99_ms", percentile(q, 0.99), "ms", q.size());
    report.line("failed_ratio", report.failed_ratio(), "ratio",
                report.attempted());
  }

  /// Per-layer metrics common to both serving workloads, the span file.
  void report_trace(const LayerProbe& probe, ServeFigures sv,
                    const gtl::FinderResult& result, const char* name) {
    std::vector<const Lane*> lanes{&main};
    for (const ConnLog& log : traced) lanes.push_back(&log.lane);
    sv.roundtrip_ms = merged([](const ConnLog& l) -> const std::vector<double>& { return l.query_ms; });
    sv.queue_ms = merged([](const ConnLog& l) -> const std::vector<double>& { return l.queue_ms; });
    sv.run_ms = merged([](const ConnLog& l) -> const std::vector<double>& { return l.run_ms; });
    sv.cpu_s = cpu_s;
    sv.threads = threads;
    std::vector<std::string> lines;
    for (const ConnLog& log : traced) {
      lines.insert(lines.end(), log.sample_lines.begin(), log.sample_lines.end());
    }
    sv.parse_request_us = time_parse_request_us(lines, main, report);
    sv.parse_lines = lines.size();
    sv.result_encode_us = time_result_encode_us(result, main);

    const TraceSummary sum = summarize(lanes, "bench.loop");
    std::size_t untraced_ops = 0, traced_ops = 0;
    for (const ConnLog& l : untraced) untraced_ops += l.sent;
    for (const ConnLog& l : traced) traced_ops += l.sent;
    // Connection-time per operation, traced over untraced.
    const double overhead =
        (traced_s / static_cast<double>(traced_ops)) /
        (untraced_s / static_cast<double>(untraced_ops));
    report_layers(probe, sv, sum.root_self_seconds / sum.root_seconds,
                  sum.roots, overhead, untraced_ops, report);
    for (const auto& [layer, self] : sum.layer_self_seconds) {
      report.line("self_s." + layer, self, "s", sum.roots);
    }
    gtl::JsonValue::Object header;
    header.emplace("workload", gtl::JsonValue(name));
    header.emplace("seed", gtl::JsonValue(opt.seed));
    header.emplace("fingerprint", fingerprint(opt));
    if (const gtl::Status st =
            write_spans(opt.span_file, gtl::JsonValue(std::move(header)), lanes);
        !st.is_ok()) {
      report.broken(st.to_string());
    }
  }

  int finish() {
    stop_server();
    report.print_result();
    return report.correct() ? 0 : 1;
  }
};

std::string expected_bytes(const Reference& ref, const Options& opt) {
  std::string bytes = ref.bytes;
  if (opt.corrupt_reference) bytes[bytes.size() / 2] ^= 1;
  return bytes;
}

/// The request's config as sent, and the FinderConfig the server will
/// parse from it.
gtl::FinderConfig parse_config(const std::string& json) {
  gtl::FinderConfig cfg;
  if (!gtl::parse_finder_config(json, &cfg).is_ok() ||
      !cfg.validate().is_ok()) {
    throw std::runtime_error("bad workload config " + json);
  }
  return cfg;
}

}  // namespace

// ---------------------------------------------------------- serve_tiny

int run_serve_tiny(const Options& opt) {
  constexpr double kFactor = 0.02;  // adaptec1-like, 4,357 cells
  constexpr std::size_t kConns = 4;
  const std::string cfg_json =
      R"({"max_ordering_length":100,"num_seeds":1,"num_threads":1,"refine_seeds":0})";
  const gtl::FinderConfig cfg = parse_config(cfg_json);

  Session s(opt, "serve_tiny");
  std::vector<double> setups;
  DesignFiles design;
  for (int k = 0; k < kSetupReps; ++k) {
    const std::int64_t t0 = now_ns();
    design = make_design("adaptec1", kFactor, opt.seed, "designs", "tiny", true);
    if (const gtl::Status st = s.start_server(
            "tiny" + std::to_string(k), {"--workers=4", "--queue-cap=16"});
        !st.is_ok()) {
      throw std::runtime_error(st.to_string());
    }
    s.control_load(design);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const Reference ref = reference_result(load_bookshelf(design.aux).netlist, cfg);
  const Query query{design.name, cfg_json, expected_bytes(ref, opt)};

  s.connect(kConns);
  s.measure([&](std::size_t, Conn& conn, ConnLog& log) {
    (void)send_query(conn, log, query);
  });
  s.check_stats({design.name}, 1, 0);
  s.report_e2e(setups, proc_stats(s.server->pid()).hwm_mb);

  if (opt.trace) {
    ServeFigures sv;
    probe_loads(s.control, design, "tiny_probe", 5, s.main, s.report, &sv);
    read_session_counters(fetch_stats(s.control, s.report), &sv);
    const LayerProbe probe =
        probe_layers(design, cfg, ref.bytes, 50, s.main, s.report);
    s.report_trace(probe, std::move(sv), ref.result, "serve_tiny");
  }
  return s.finish();
}

// --------------------------------------------------------- serve_churn

int run_serve_churn(const Options& opt) {
  constexpr double kHotFactor = 0.05;   // adaptec1-like, 10,700 cells
  constexpr double kColdFactor = 0.1;   // adaptec1-like, 21,273 cells
  constexpr std::size_t kHot = 2, kCold = 3, kHotConns = 3;
  // No Phase III: refinement cost follows how many candidates a design
  // happens to yield (0-3 here), which would make the cost of a query
  // depend on the seed more than on the code.  batch_find covers Phase III.
  const std::string cfg_json =
      R"({"max_ordering_length":2000,"num_seeds":8,"num_threads":1,"refine_seeds":0})";
  const gtl::FinderConfig cfg = parse_config(cfg_json);

  Session s(opt, "serve_churn");
  std::vector<double> setups;
  std::vector<DesignFiles> hot, cold;
  std::string manifest;
  for (int k = 0; k < kSetupReps; ++k) {
    const std::int64_t t0 = now_ns();
    hot.clear();
    cold.clear();
    for (std::size_t i = 0; i < kHot; ++i) {
      hot.push_back(make_design("adaptec1", kHotFactor, opt.seed * 16 + i,
                                "designs", "hot" + std::to_string(i), false));
    }
    for (std::size_t i = 0; i < kCold; ++i) {
      cold.push_back(make_design("adaptec1", kColdFactor, opt.seed * 16 + 8 + i,
                                 "designs", "cold" + std::to_string(i), true));
    }
    // A fresh manifest per server, so no set-up replays another's loads.
    manifest = "manifest" + std::to_string(k) + ".json";
    if (const gtl::Status st = s.start_server(
            "churn" + std::to_string(k),
            {"--workers=2", "--queue-cap=16", "--max-resident-mb=4096",
             "--manifest=" + manifest});
        !st.is_ok()) {
      throw std::runtime_error(st.to_string());
    }
    for (const DesignFiles& d : hot) s.control_load(d);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  std::vector<Query> hot_q, cold_q;
  Reference probe_ref;
  for (const DesignFiles& d : hot) {
    const Reference ref = reference_result(load_bookshelf(d.aux).netlist, cfg);
    hot_q.push_back(Query{d.name, cfg_json, expected_bytes(ref, opt)});
  }
  for (const DesignFiles& d : cold) {
    Reference ref = reference_result(load_bookshelf(d.aux).netlist, cfg);
    cold_q.push_back(Query{d.name, cfg_json, expected_bytes(ref, opt)});
    if (cold_q.size() == 1) probe_ref = std::move(ref);
  }

  s.connect(kHotConns + 1);
  // Cold cycles count across windows, so sources keep alternating.
  std::size_t cycle = 0;
  std::vector<std::size_t> hot_turn(kHotConns, 0);
  s.measure([&](std::size_t i, Conn& conn, ConnLog& log) {
    if (i < kHotConns) {
      (void)send_query(conn, log, hot_q[(i + hot_turn[i]++) % kHot]);
      return;
    }
    // With an odd pool every design alternates between both sources.
    const std::size_t c = cycle++;
    const DesignFiles& d = cold[c % kCold];
    if (send_load(conn, log, d, c % 2 == 1)) {
      (void)send_query(conn, log, cold_q[c % kCold]);
      (void)send_unload(conn, log, d.name);
    }
  });

  std::vector<std::string> names;
  for (const DesignFiles& d : hot) names.push_back(d.name);
  for (const DesignFiles& d : cold) names.push_back(d.name);
  const std::size_t loads = s.total([](const ConnLog& l) { return l.loads; });
  const std::size_t snaps =
      s.total([](const ConnLog& l) { return l.snapshot_loads; });
  s.check_stats(names, kHot + loads, snaps);

  // The manifest lists exactly the hot designs, from their Bookshelf.
  gtl::serve::Manifest listed;
  gtl::serve::Manifest want;
  for (const DesignFiles& d : hot) want[d.name] = {d.aux.string(), ""};
  if (!gtl::serve::read_manifest(manifest, &listed).is_ok() || listed != want) {
    s.report.broken("manifest " + manifest + " does not list exactly the hot "
                    "designs");
  }

  s.report_e2e(setups, proc_stats(s.server->pid()).hwm_mb);
  const std::vector<double> bs =
      s.merged([](const ConnLog& l) -> const std::vector<double>& { return l.load_bookshelf_ms; });
  const std::vector<double> sn =
      s.merged([](const ConnLog& l) -> const std::vector<double>& { return l.load_snapshot_ms; });
  std::vector<double> all = bs;
  all.insert(all.end(), sn.begin(), sn.end());
  s.report.line("load_p50_ms", median(all), "ms", all.size());
  s.report.line("load_p90_ms", percentile(all, 0.9), "ms", all.size());

  if (opt.trace) {
    ServeFigures sv;
    sv.load_bookshelf_ms = bs;
    sv.load_snapshot_ms = sn;
    read_session_counters(fetch_stats(s.control, s.report), &sv);
    const LayerProbe probe =
        probe_layers(cold[0], cfg, probe_ref.bytes, 10, s.main, s.report);
    s.report_trace(probe, std::move(sv), probe_ref.result, "serve_churn");
  }
  return s.finish();
}

}  // namespace perfbench
