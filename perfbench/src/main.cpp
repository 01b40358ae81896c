// gtl_perfbench --workload <batch_find|serve_tiny|serve_churn> --seed <n>
//               --seconds <s> --trace <0|1> --server-bin <gtl_serve>
//               [--span-file <path>] [--source-rev <rev>]
//               [--corrupt-reference]
//
// Runs in the current directory, which it treats as its work space
// (design files, sockets, manifests, server logs).  perfbench/run.py
// builds this binary and gives every run a fresh directory.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "gtl_perfbench: " << why
            << "\nusage: gtl_perfbench --workload <batch_find|serve_tiny|"
               "serve_churn> --seed <n> --seconds <s> --trace <0|1> "
               "--server-bin <path> [--span-file <path>] "
               "[--source-rev <rev>] [--corrupt-reference]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      opt.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--server-bin") {
      opt.server_bin = value;
    } else if (flag == "--span-file") {
      opt.span_file = value;
    } else if (flag == "--source-rev") {
      opt.source_rev = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (opt.seconds <= 0) return usage("--seconds must be positive");
  if (opt.trace && opt.span_file.empty()) return usage("--trace 1 needs --span-file");
  std::cout << "perfbench fingerprint " << perfbench::fingerprint(opt).dump()
            << std::endl;
  try {
    if (opt.workload == "batch_find") return perfbench::run_batch_find(opt);
    if (opt.workload == "serve_tiny") return perfbench::run_serve_tiny(opt);
    if (opt.workload == "serve_churn") return perfbench::run_serve_churn(opt);
  } catch (const std::exception& e) {
    std::cerr << "gtl_perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
  return usage("unknown workload \"" + opt.workload + "\"");
}
