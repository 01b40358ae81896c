#pragma once
// gtl_perfbench: the repository's end-to-end + per-layer benchmark.
//
// One process generates the load.  It times calls into each layer's
// public functions from outside (netlist parse/snapshot load, the Finder
// phases, the serve protocol helpers) and drives a spawned gtl_serve
// over its Unix socket.  Nothing inside the libraries is instrumented:
// every span is recorded here, around a call.
//
// Output contract (see perfbench/README.md): human report lines
// "perfbench <workload> <metric> = <value> <unit> (n=<samples>)", then
// one JSON line {"correct", "attempted", "failed", "metrics"} last.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

#include "gtl/finder.hpp"
#include "gtl/netlist.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"
#include "util/status.hpp"

namespace perfbench {

// ---------------------------------------------------------------- time

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path server_bin;  ///< gtl_serve executable
  std::filesystem::path span_file;   ///< traced runs write spans here
  std::string source_rev = "unknown";
  /// Self-test hook: flip the reference digest so every result mismatches.
  bool corrupt_reference = false;
};

// -------------------------------------------------------------- report

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> xs, double q);
[[nodiscard]] double median(std::vector<double> xs);

/// Everything a run prints: report lines (every metric, with unit and
/// sample count) and the JSON metrics the contract asks for.
class Report {
 public:
  Report(std::string workload, bool trace)
      : workload_(std::move(workload)), trace_(trace) {}

  /// An end-to-end metric: in the JSON of an untraced run, a report line
  /// of a traced one.
  void e2e(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    trace_ ? line(name, value, unit, samples)
           : metric(name, value, unit, samples);
  }
  /// A per-layer metric: in the JSON of a traced run only.
  void layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples) {
    if (trace_) metric(name, value, unit, samples);
  }
  /// A report line only (workload-specific figures, failed_ratio, ...).
  void line(const std::string& name, double value, const std::string& unit,
            std::size_t samples);
  /// A correctness failure: counted, printed to stderr (first few).
  void fail(const std::string& what);
  void attempt(std::size_t n = 1) { attempted_ += n; }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] double failed_ratio() const {
    return static_cast<double>(failed_) /
           static_cast<double>(std::max<std::size_t>(attempted_, 1));
  }
  [[nodiscard]] bool correct() const { return failed_ == 0 && !broken_; }
  /// A failure outside the counted operations (set-up, shutdown, gates).
  void broken(const std::string& what);

  /// Report lines print at once; this prints the final JSON line.
  void print_result() const;

 private:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);

  std::string workload_;
  bool trace_;
  gtl::JsonValue::Object metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool broken_ = false;
};

/// nproc, CPU model/MHz, SIMD backend, build type, compiler, source rev.
[[nodiscard]] gtl::JsonValue fingerprint(const Options& opt);

// --------------------------------------------------------------- trace

/// One recorded span.  Parents are indices into the same lane.
struct Span {
  const char* name;
  std::int64_t t0;
  std::int64_t t1;
  std::int32_t parent;  ///< -1 for a root
  std::uint64_t req;    ///< request or iteration id
};

/// A per-thread span recorder.  Timing is always taken (callers need the
/// durations for the end-to-end metrics); spans are stored only when
/// tracing is on, in memory, and written out at the end.
class Lane {
 public:
  Lane(int id, bool record) : id_(id), record_(record) {}

  /// Open a span as a child of the innermost open one.
  void begin(const char* name, std::uint64_t req = 0);
  /// Close the innermost span; returns its duration in seconds.
  double end();
  /// Record an already-finished child of the innermost open span.
  void child(const char* name, std::int64_t t0, std::int64_t t1,
             std::uint64_t req);

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] bool recording() const { return record_; }
  void set_recording(bool on) { record_ = on; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Open {
    std::int64_t t0;
    std::int32_t index;  ///< slot in spans_, or -1 when not recording
  };
  int id_;
  bool record_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
};

/// Times `fn()` as span `name`; returns seconds.
template <typename Fn>
double timed(Lane& lane, const char* name, std::uint64_t req, Fn&& fn) {
  lane.begin(name, req);
  fn();
  return lane.end();
}

/// Self-time accounting over recorded lanes.
struct TraceSummary {
  /// Root spans named `root` (the end-to-end unit): total duration and
  /// the part no child span covers.
  double root_seconds = 0.0;
  double root_self_seconds = 0.0;
  std::size_t roots = 0;
  /// Layer (name prefix before '.') -> summed self time of its spans
  /// that lie under a `root` span.
  std::map<std::string, double> layer_self_seconds;
};
[[nodiscard]] TraceSummary summarize(const std::vector<const Lane*>& lanes,
                                     const std::string& root);

/// Write every span as JSON lines (header line = fingerprint + summary).
[[nodiscard]] gtl::Status write_spans(const std::filesystem::path& path,
                                      const gtl::JsonValue& header,
                                      const std::vector<const Lane*>& lanes);

// -------------------------------------------------------------- /proc

struct ProcStats {
  double cpu_seconds = 0.0;  ///< utime + stime
  double hwm_mb = 0.0;       ///< VmHWM
  std::size_t threads = 0;
};
[[nodiscard]] ProcStats proc_stats(pid_t pid);
/// Reset this process's VmHWM (Linux clear_refs "5").
void reset_peak_rss();

// ------------------------------------------------------------- designs

/// A generated design written to disk, with what the checks need.
struct DesignFiles {
  std::string name;
  std::filesystem::path aux;
  std::filesystem::path snapshot;  ///< empty unless written
  std::size_t cells = 0;
  std::uintmax_t bookshelf_bytes = 0;
  std::vector<std::vector<gtl::CellId>> planted;
};

/// Generate an ISPD-like synthetic design (graphgen) from `seed` and
/// write it as Bookshelf under `dir` (plus a snapshot if asked; the
/// snapshot is written from the parsed Bookshelf so both sources load
/// the same netlist).
[[nodiscard]] DesignFiles make_design(const std::string& preset, double factor,
                                      std::uint64_t seed,
                                      const std::filesystem::path& dir,
                                      const std::string& name,
                                      bool with_snapshot);

[[nodiscard]] gtl::BookshelfDesign load_bookshelf(
    const std::filesystem::path& aux);

/// What a server must return for (design, config): a single-threaded
/// Finder::run() and its serve::deterministic_result_json bytes.
struct Reference {
  gtl::FinderResult result;
  std::string bytes;
};
[[nodiscard]] Reference reference_result(const gtl::Netlist& nl,
                                         const gtl::FinderConfig& cfg);

[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes);

// ------------------------------------------------------- layer probes

/// In-process per-layer measurements on one design and query config
/// (the per-layer metrics of a workload whose own loop does not call
/// the layer directly).  Every call is recorded on `lane`.
struct LayerProbe {
  double parse_s = 0.0;
  double parse_mb_per_s = 0.0;
  double snapshot_load_ms = 0.0;
  double grow_s = 0.0;
  double grow_1t_s = 0.0;
  std::size_t cells_grown = 0;
  double extract_s = 0.0;
  double refine_s = 0.0;
  double refine_1t_s = 0.0;
  std::size_t candidates_refined = 0;
  std::size_t gtls = 0;
  double session_create_ms = 0.0;
  double warm_run_ms = 0.0;
  std::size_t samples = 0;           ///< parse, phases, session create
  std::size_t snapshot_samples = 0;
  std::size_t warm_samples = 0;
};
/// `expected` is the reference result bytes; a mismatch is reported.
[[nodiscard]] LayerProbe probe_layers(const DesignFiles& design,
                                      const gtl::FinderConfig& cfg,
                                      const std::string& expected,
                                      std::size_t reps, Lane& lane,
                                      Report& report);

/// serve::parse_request over `lines` (microseconds per line, median of
/// passes) and deterministic_result_json + ok_line on `result`
/// (microseconds per encode).
[[nodiscard]] double time_parse_request_us(
    const std::vector<std::string>& lines, Lane& lane, Report& report);
[[nodiscard]] double time_result_encode_us(const gtl::FinderResult& result,
                                           Lane& lane);

// -------------------------------------------------------------- server

/// A spawned gtl_serve.  Its stdout/stderr go to files in the run
/// directory; start() waits for the "listening on" line; stop() sends
/// SIGTERM with a bounded wait and checks for a clean exit.  The child
/// gets SIGTERM if this process dies first.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] gtl::Status start(const std::filesystem::path& bin,
                                  const std::string& tag,
                                  const std::vector<std::string>& args);
  /// SIGTERM, wait up to 10 s, require exit code 0 and a clean-shutdown
  /// line.  On failure the server's stderr is in the Status message.
  [[nodiscard]] gtl::Status stop();

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::filesystem::path& socket() const { return socket_; }

 private:
  [[nodiscard]] std::string stderr_tail() const;
  pid_t pid_ = -1;
  std::filesystem::path socket_;
  std::filesystem::path out_path_;
  std::filesystem::path err_path_;
};

/// One client connection with its own request-id range.  (The library
/// Client starts every connection at id 1, and the server keys in-flight
/// run_finder jobs by id across connections, so concurrent Clients
/// collide; see README "Known defects".)
class Conn {
 public:
  [[nodiscard]] gtl::Status connect(const std::filesystem::path& socket,
                                    std::uint64_t base_id);
  [[nodiscard]] std::uint64_t next_id() { return next_id_++; }
  /// Send one line, read one line.
  [[nodiscard]] gtl::Status call(const std::string& line,
                                 std::string* response);

 private:
  gtl::UnixStream stream_;
  std::uint64_t next_id_ = 1;
};

/// A decoded ok response: the verbatim result block and the envelope.
struct Reply {
  bool ok = false;
  std::string result;  ///< raw bytes of "result" (empty on error)
  double queue_s = 0.0;
  double run_s = 0.0;
  std::string error;  ///< error code + message when !ok
};
/// One request/response as span `span` on `lane`.  An ok reply's server
/// envelope becomes two children: "serve.queue" and `run_span` (the
/// server-side execution), placed mid-way through the round trip; the
/// uncovered rest of the span is transport.  *seconds gets the round trip.
[[nodiscard]] Reply round_trip(Conn& conn, Lane& lane, const char* span,
                               const char* run_span, std::uint64_t id,
                               const std::string& line, std::string* response,
                               double* seconds);

/// Cheap decode of a compact response line (keys are sorted: id, ok, op,
/// result, server).  Checks the echoed id.
[[nodiscard]] Reply decode_reply(const std::string& line, std::uint64_t id);

[[nodiscard]] std::string run_finder_line(std::uint64_t id,
                                          const std::string& design,
                                          const std::string& config_json);
[[nodiscard]] std::string load_line(std::uint64_t id, const std::string& design,
                                    const std::string& aux,
                                    const std::string& snapshot);
[[nodiscard]] std::string simple_line(std::uint64_t id, const char* op,
                                      const std::string& design = "");

/// A load_design reply carries the expected cell count and says whether
/// it was served from the snapshot.
[[nodiscard]] bool load_reply_ok(const std::string& reply, std::size_t cells,
                                 bool snapshot);

// ------------------------------------------------- serve-layer figures

/// The serve layer seen from a client: run_finder round trips split by
/// the server's envelope (parallel vectors), load_design round trips per
/// source, and the server's own counters and /proc figures.
struct ServeFigures {
  std::vector<double> roundtrip_ms, queue_ms, run_ms;
  std::vector<double> load_bookshelf_ms, load_snapshot_ms;
  double cpu_s = 0.0;  ///< server CPU while those round trips ran
  std::size_t threads = 0;
  double sessions_reused_ratio = 0.0;
  std::size_t sessions = 0;
  std::uint64_t rejected = 0;
  double parse_request_us = 0.0;
  std::size_t parse_lines = 0;
  double result_encode_us = 0.0;
};

/// Loads `design` under `name` from its Bookshelf and then from its
/// snapshot, `reps` times each (unloading after each), checking every
/// reply's cell count and snapshot flag.
void probe_loads(Conn& conn, const DesignFiles& design, const std::string& name,
                 std::size_t reps, Lane& lane, Report& report,
                 ServeFigures* figures);

/// The result block of a `stats` request (an empty object on failure,
/// which is reported).
[[nodiscard]] gtl::JsonValue fetch_stats(Conn& conn, Report& report);
/// Session reuse and rejection counters of a stats block into `figures`.
void read_session_counters(const gtl::JsonValue& stats, ServeFigures* figures);

/// The per-layer metrics, identical in name and unit on every workload.
void report_layers(const LayerProbe& probe, const ServeFigures& serve,
                   double unattributed_ratio, std::size_t unattributed_n,
                   double trace_overhead_ratio, std::size_t overhead_n,
                   Report& report);

// ----------------------------------------------------------- workloads

int run_batch_find(const Options& opt);
int run_serve_tiny(const Options& opt);
int run_serve_churn(const Options& opt);

}  // namespace perfbench
