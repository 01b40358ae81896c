// Report lines + the result JSON, the machine fingerprint, span
// recording and self-time accounting, and /proc readers.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unistd.h>

#include "bench.hpp"
#include "util/simd.hpp"

namespace perfbench {

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t idx =
      std::min(xs.size(), static_cast<std::size_t>(std::max(1.0, rank))) - 1;
  return xs[idx];
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

// -------------------------------------------------------------- Report

void Report::line(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  std::cout << "perfbench " << workload_ << " " << name << " = "
            << gtl::JsonValue(value).dump() << " " << unit << " (n=" << samples
            << ")\n";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  line(name, value, unit, samples);
  gtl::JsonValue::Object m;
  m.emplace("value", gtl::JsonValue(value));
  m.emplace("unit", gtl::JsonValue(unit));
  metrics_.insert_or_assign(name, gtl::JsonValue(std::move(m)));
}

void Report::fail(const std::string& what) {
  if (failed_ < 5) std::cerr << "perfbench: FAILED: " << what << "\n";
  ++failed_;
}

void Report::broken(const std::string& what) {
  std::cerr << "perfbench: FAILED: " << what << "\n";
  broken_ = true;
}

void Report::print_result() const {
  gtl::JsonValue::Object out;
  out.emplace("correct", gtl::JsonValue(correct()));
  out.emplace("attempted",
              gtl::JsonValue(static_cast<std::uint64_t>(std::max<std::size_t>(
                  attempted_, 1))));
  out.emplace("failed", gtl::JsonValue(static_cast<std::uint64_t>(failed_)));
  out.emplace("metrics", gtl::JsonValue(metrics_));
  std::cout << gtl::JsonValue(std::move(out)).dump() << std::endl;
}

// --------------------------------------------------------- fingerprint

gtl::JsonValue fingerprint(const Options& opt) {
  std::string model = "unknown";
  double mhz_sum = 0.0;
  int mhz_n = 0;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string ln; std::getline(cpuinfo, ln);) {
    const std::size_t colon = ln.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = ln.substr(0, ln.find_last_not_of(" \t", colon - 1) + 1);
    const std::string val = colon + 2 <= ln.size() ? ln.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = val;
    if (key == "cpu MHz") {
      mhz_sum += std::strtod(val.c_str(), nullptr);
      ++mhz_n;
    }
  }
  gtl::JsonValue::Object fp;
  fp.emplace("nproc", gtl::JsonValue(static_cast<std::int64_t>(
                          sysconf(_SC_NPROCESSORS_ONLN))));
  fp.emplace("cpu_model", gtl::JsonValue(model));
  fp.emplace("cpu_mhz", gtl::JsonValue(mhz_n > 0 ? mhz_sum / mhz_n : 0.0));
  fp.emplace("simd_backend", gtl::JsonValue(gtl::simd::backend_name()));
  fp.emplace("build_type", gtl::JsonValue(PERFBENCH_BUILD_TYPE));
  fp.emplace("compiler", gtl::JsonValue(PERFBENCH_COMPILER));
  fp.emplace("source_rev", gtl::JsonValue(opt.source_rev));
  return gtl::JsonValue(std::move(fp));
}

// ---------------------------------------------------------------- Lane

void Lane::begin(const char* name, std::uint64_t req) {
  const std::int64_t t0 = now_ns();
  std::int32_t index = -1;
  if (record_) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().index;
    index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, t0, t0, parent, req});
  }
  stack_.push_back(Open{t0, index});
}

double Lane::end() {
  const std::int64_t t1 = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  if (open.index >= 0) spans_[static_cast<std::size_t>(open.index)].t1 = t1;
  return static_cast<double>(t1 - open.t0) * 1e-9;
}

void Lane::child(const char* name, std::int64_t t0, std::int64_t t1,
                 std::uint64_t req) {
  if (!record_) return;
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back().index;
  spans_.push_back(Span{name, t0, t1, parent, req});
}

// ------------------------------------------------------- trace summary

TraceSummary summarize(const std::vector<const Lane*>& lanes,
                       const std::string& root) {
  TraceSummary sum;
  for (const Lane* lane : lanes) {
    const std::vector<Span>& spans = lane->spans();
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.t1 - s.t0) * 1e-9;
      }
    }
    // Parents precede children, so one forward pass finds every span
    // below a root.
    std::vector<std::uint8_t> under(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.t1 - s.t0) * 1e-9;
      const double self = dur - child_s[i];
      if (root == s.name) {
        under[i] = 1;
        sum.root_seconds += dur;
        sum.root_self_seconds += self;
        ++sum.roots;
        continue;
      }
      if (s.parent < 0 || under[static_cast<std::size_t>(s.parent)] == 0) {
        continue;
      }
      under[i] = 1;
      const std::string name(s.name);
      sum.layer_self_seconds[name.substr(0, name.find('.'))] += self;
    }
  }
  return sum;
}

gtl::Status write_spans(const std::filesystem::path& path,
                        const gtl::JsonValue& header,
                        const std::vector<const Lane*>& lanes) {
  std::error_code ec;
  if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return gtl::Status::invalid_argument("cannot write span file " +
                                         path.string());
  }
  std::fprintf(f, "%s\n", header.dump().c_str());
  for (const Lane* lane : lanes) {
    const std::vector<Span>& spans = lane->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"lane\":%d,\"span\":%zu,\"parent\":%d,\"name\":\"%s\","
                   "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                   ",\"req\":%" PRIu64 "}\n",
                   lane->id(), i, s.parent, s.name, s.t0, s.t1, s.req);
    }
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? gtl::Status::ok()
            : gtl::Status::invalid_argument("error writing " + path.string());
}

// --------------------------------------------------------------- /proc

ProcStats proc_stats(pid_t pid) {
  ProcStats st;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string all((std::istreambuf_iterator<char>(stat)),
                  std::istreambuf_iterator<char>());
  const std::size_t rparen = all.rfind(')');
  if (rparen != std::string::npos) {
    std::istringstream fields(all.substr(rparen + 2));
    std::string tok;
    double utime = 0.0, stime = 0.0;
    // Fields after the command: state(3) ... utime(14) stime(15).
    for (int field = 3; field <= 15 && fields >> tok; ++field) {
      if (field == 14) utime = std::strtod(tok.c_str(), nullptr);
      if (field == 15) stime = std::strtod(tok.c_str(), nullptr);
    }
    st.cpu_seconds = (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  std::ifstream status(base + "/status");
  for (std::string ln; std::getline(status, ln);) {
    if (ln.rfind("VmHWM:", 0) == 0) {
      st.hwm_mb = std::strtod(ln.c_str() + 6, nullptr) / 1024.0;
    } else if (ln.rfind("Threads:", 0) == 0) {
      st.threads = std::strtoul(ln.c_str() + 8, nullptr, 10);
    }
  }
  return st;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
