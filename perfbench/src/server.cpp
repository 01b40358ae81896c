// The spawned gtl_serve and the load generator's connections to it.

#include <algorithm>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench.hpp"

namespace perfbench {

namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::string quoted(const std::string& s) { return gtl::JsonValue(s).dump(); }

/// Value of an unsigned integer field `"key":N` in a response, or -1.
long long find_uint_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace

// ------------------------------------------------------- ServerProcess

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

gtl::Status ServerProcess::start(const std::filesystem::path& bin,
                                 const std::string& tag,
                                 const std::vector<std::string>& args) {
  socket_ = tag + ".sock";
  out_path_ = tag + ".out";
  err_path_ = tag + ".err";
  std::vector<std::string> argv_s{bin.string(), "--socket=" + socket_.string()};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return gtl::Status::unavailable("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    const int in = ::open("/dev/null", O_RDONLY);
    const int out = ::open(out_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = ::open(err_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (in < 0 || out < 0 || err < 0) ::_exit(126);
    ::dup2(in, 0);
    ::dup2(out, 1);
    ::dup2(err, 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;

  // Readiness: the "listening on" line, or the process dying first.
  const std::int64_t deadline = now_ns() + 60'000'000'000LL;
  while (now_ns() < deadline) {
    if (slurp(out_path_).find("listening on") != std::string::npos) {
      return gtl::Status::ok();
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return gtl::Status::unavailable("gtl_serve exited before listening: " +
                                   stderr_tail());
    }
    sleep_ms(2);
  }
  return gtl::Status::unavailable("gtl_serve did not print its listening line "
                               "within 60 s: " + stderr_tail());
}

std::string ServerProcess::stderr_tail() const {
  std::string err = slurp(err_path_);
  if (err.size() > 4000) err = "..." + err.substr(err.size() - 4000);
  return err.empty() ? "(stderr empty)" : "stderr:\n" + err;
}

gtl::Status ServerProcess::stop() {
  if (pid_ <= 0) return gtl::Status::ok();
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  const std::int64_t deadline = now_ns() + 10'000'000'000LL;
  while (now_ns() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      exited = true;
      break;
    }
    sleep_ms(2);
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return gtl::Status::unavailable("gtl_serve ignored SIGTERM for 10 s; " +
                                 stderr_tail());
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::string how = WIFSIGNALED(status)
                          ? "killed by signal " + std::to_string(WTERMSIG(status))
                          : "exit code " + std::to_string(WEXITSTATUS(status));
    return gtl::Status::unavailable("gtl_serve did not shut down cleanly (" +
                                 how + "); " + stderr_tail());
  }
  if (slurp(out_path_).find("shut down cleanly") == std::string::npos) {
    return gtl::Status::unavailable("gtl_serve exited 0 without its clean-"
                                 "shutdown line; " + stderr_tail());
  }
  return gtl::Status::ok();
}

// ---------------------------------------------------------------- Conn

gtl::Status Conn::connect(const std::filesystem::path& socket,
                          std::uint64_t base_id) {
  next_id_ = base_id;
  // The daemon prints its listening line just before bind(); retry.
  const std::int64_t deadline = now_ns() + 10'000'000'000LL;
  while (true) {
    const gtl::Status st = gtl::UnixStream::connect(socket, &stream_);
    if (st.is_ok() || now_ns() >= deadline) return st;
    sleep_ms(5);
  }
}

gtl::Status Conn::call(const std::string& line, std::string* response) {
  if (gtl::Status st = stream_.write_line(line); !st.is_ok()) return st;
  bool eof = false;
  if (gtl::Status st = stream_.read_line(response, &eof, 64u << 20);
      !st.is_ok()) {
    return st;
  }
  if (eof) return gtl::Status::unavailable("server closed the connection");
  return gtl::Status::ok();
}

// ------------------------------------------------------------- replies

Reply decode_reply(const std::string& line, std::uint64_t id) {
  Reply r;
  const std::string prefix = "{\"id\":" + std::to_string(id) + ",\"ok\":";
  if (line.compare(0, prefix.size(), prefix) != 0) {
    r.error = "unexpected reply (id mismatch?): " + line.substr(0, 200);
    return r;
  }
  if (line.compare(prefix.size(), 4, "true") != 0) {
    const std::size_t err = line.find("\"error\":");
    r.error = err == std::string::npos ? line.substr(0, 300)
                                       : line.substr(err, 300);
    return r;
  }
  const std::size_t res = line.find("\"result\":", prefix.size());
  if (res == std::string::npos) {
    r.error = "ok reply without a result: " + line.substr(0, 200);
    return r;
  }
  const std::size_t begin = res + 9;
  std::size_t end = line.size() - 1;  // the closing '}' of the response
  const std::size_t server = line.rfind(",\"server\":{");
  if (server != std::string::npos && server > begin) {
    end = server;
    const auto field = [&](const char* key) {
      const std::size_t at = line.find(key, server);
      return at == std::string::npos
                 ? -1.0
                 : std::strtod(line.c_str() + at + std::strlen(key), nullptr);
    };
    r.queue_s = field("\"queue_seconds\":");
    r.run_s = field("\"run_seconds\":");
  }
  r.result = line.substr(begin, end - begin);
  r.ok = true;
  return r;
}

Reply round_trip(Conn& conn, Lane& lane, const char* span,
                 const char* run_span, std::uint64_t id,
                 const std::string& line, std::string* response,
                 double* seconds) {
  lane.begin(span, id);
  const std::int64_t t0 = now_ns();
  const gtl::Status st = conn.call(line, response);
  const std::int64_t t1 = now_ns();
  Reply r;
  if (st.is_ok()) {
    r = decode_reply(*response, id);
  } else {
    r.error = "transport: " + st.to_string();
  }
  if (r.ok && lane.recording()) {
    const auto q = static_cast<std::int64_t>(r.queue_s * 1e9);
    const auto run = static_cast<std::int64_t>(r.run_s * 1e9);
    const std::int64_t gap = std::max<std::int64_t>(0, t1 - t0 - q - run) / 2;
    lane.child("serve.queue", t0 + gap, t0 + gap + q, id);
    lane.child(run_span, t0 + gap + q, t0 + gap + q + run, id);
  }
  *seconds = lane.end();
  return r;
}

std::string run_finder_line(std::uint64_t id, const std::string& design,
                            const std::string& config_json) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"run_finder\",\"design\":" + quoted(design) +
         ",\"config\":" + config_json + "}";
}

std::string load_line(std::uint64_t id, const std::string& design,
                      const std::string& aux, const std::string& snapshot) {
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"op\":\"load_design\",\"design\":" + quoted(design);
  if (!aux.empty()) line += ",\"aux\":" + quoted(aux);
  if (!snapshot.empty()) line += ",\"snapshot\":" + quoted(snapshot);
  return line + "}";
}

std::string simple_line(std::uint64_t id, const char* op,
                        const std::string& design) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op + "\"";
  if (!design.empty()) line += ",\"design\":" + quoted(design);
  return line + "}";
}

bool load_reply_ok(const std::string& reply, std::size_t cells, bool snapshot) {
  return find_uint_field(reply, "cells") == static_cast<long long>(cells) &&
         (reply.find("\"snapshot_hit\":true") != std::string::npos) == snapshot;
}


// ------------------------------------------------------ serve figures

void probe_loads(Conn& conn, const DesignFiles& design, const std::string& name,
                 std::size_t reps, Lane& lane, Report& report,
                 ServeFigures* figures) {
  std::string reply;
  for (std::size_t i = 0; i < 2 * reps; ++i) {
    const bool snapshot = i % 2 == 1;
    const std::uint64_t id = conn.next_id();
    const std::string line =
        load_line(id, name, snapshot ? "" : design.aux.string(),
                  snapshot ? design.snapshot.string() : "");
    double seconds = 0.0;
    const Reply r = round_trip(conn, lane, "serve.load_design",
                               "netlist.server_load", id, line, &reply, &seconds);
    if (!r.ok || !load_reply_ok(reply, design.cells, snapshot)) {
      report.broken("probe load of " + name + " failed: " + r.error +
                    reply.substr(0, 200));
      return;
    }
    (snapshot ? figures->load_snapshot_ms : figures->load_bookshelf_ms)
        .push_back(seconds * 1e3);
    const std::uint64_t uid = conn.next_id();
    if (!conn.call(simple_line(uid, "unload_design", name), &reply).is_ok() ||
        !decode_reply(reply, uid).ok) {
      report.broken("probe unload of " + name + " failed: " + reply);
      return;
    }
  }
}

gtl::JsonValue fetch_stats(Conn& conn, Report& report) {
  std::string reply;
  const std::uint64_t id = conn.next_id();
  gtl::JsonValue json;
  if (!conn.call(simple_line(id, "stats"), &reply).is_ok() ||
      !gtl::JsonValue::parse(reply, &json).is_ok() || !json.is_object() ||
      json.find("result") == nullptr) {
    report.broken("stats request failed: " + reply.substr(0, 200));
    return gtl::JsonValue(gtl::JsonValue::Object{});
  }
  return *json.find("result");
}

namespace {

std::uint64_t uint_at(const gtl::JsonValue& obj, const std::string& key) {
  std::uint64_t v = 0;
  if (obj.is_object()) {
    if (const gtl::JsonValue* f = obj.find(key); f != nullptr) {
      (void)f->get_uint64(&v);
    }
  }
  return v;
}

}  // namespace

void read_session_counters(const gtl::JsonValue& stats, ServeFigures* figures) {
  std::uint64_t created = 0, reused = 0;
  if (const gtl::JsonValue* designs = stats.is_object() ? stats.find("designs")
                                                         : nullptr;
      designs != nullptr && designs->is_object()) {
    for (const auto& [name, d] : designs->object()) {
      created += uint_at(d, "sessions_created");
      reused += uint_at(d, "sessions_reused");
    }
  }
  figures->sessions = created + reused;
  figures->sessions_reused_ratio =
      figures->sessions == 0 ? 0.0
                             : static_cast<double>(reused) /
                                   static_cast<double>(figures->sessions);
  const gtl::JsonValue* global =
      stats.is_object() ? stats.find("global") : nullptr;
  if (global != nullptr) {
    figures->rejected = uint_at(*global, "rejected_overload") +
                        uint_at(*global, "rejected_invalid");
  }
}

}  // namespace perfbench
