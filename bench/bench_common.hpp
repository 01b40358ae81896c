#pragma once
// Shared plumbing for the experiment harness.  Every bench binary
// regenerates one table or figure of the paper; all of them accept
//   --scale=smoke|default|paper   (see util/cli.hpp)
//   --seeds=N --threads=N --out=DIR --help
// and print the paper's reference values next to the measured ones so the
// shape comparison is immediate.
//
// CLI conventions (util/cli.hpp): binaries register options up front,
// print generated --help on request, and exit nonzero on unparseable
// values or invalid finder configs instead of running with silently
// substituted defaults.

#include <filesystem>
#include <iostream>
#include <string>

#include "gtl/finder.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace gtl::bench {

/// Register the options shared by every bench binary.
inline void describe_common_options(CliArgs& args) {
  args.describe("scale=smoke|default|paper",
                "experiment scale (default: default)")
      .describe("out=DIR", "output directory for figures/CSVs "
                           "(default: bench_out)");
}

/// Print the generated help when --help was given; true => exit 0.
inline bool help_exit(const CliArgs& args) { return cli_help_exit(args); }

/// Report any recorded CLI parse error; true => exit nonzero.
inline bool cli_error_exit(const CliArgs& args) {
  return gtl::cli_error_exit(args);
}

/// Reject an out-of-range finder config (Status, not abort); true =>
/// exit nonzero.
inline bool config_error_exit(const FinderConfig& cfg) {
  const Status st = cfg.validate();
  if (st.is_ok()) return false;
  std::cerr << "error: " << st.to_string() << "\n";
  return true;
}

/// Linear size factor applied to the paper's |V| and structure sizes.
inline double size_factor(Scale scale) {
  switch (scale) {
    case Scale::kSmoke: return 0.01;
    case Scale::kPaper: return 1.0;
    default: return 0.05;
  }
}

/// Output directory for figures (PPM images, CSV curves).
inline std::filesystem::path out_dir(const CliArgs& args) {
  std::filesystem::path dir = args.get("out", "bench_out");
  std::filesystem::create_directories(dir);
  return dir;
}

/// Standard banner: what this binary reproduces and at what scale.
inline void banner(const std::string& what, Scale scale) {
  std::cout << "=================================================\n"
            << what << "\n"
            << "scale: " << scale_name(scale)
            << " (paper sizes x " << size_factor(scale) << ")\n"
            << "=================================================\n";
}

/// Paper-vs-measured footnote.
inline void shape_note() {
  std::cout << "\nNOTE: reproduction targets are shape-level (who wins, by\n"
               "roughly what factor, where minima/crossovers fall), not\n"
               "absolute numbers: the substrate is a synthetic circuit\n"
               "generator + simulator, not the paper's testbed.\n";
}

}  // namespace gtl::bench
