// lbbench: one run of one lowbist benchmark workload.
//
//   lbbench --workload serve-small|mid-exact|large-greedy --seed N
//           --seconds S --trace 0|1
//
// Prints the run's notes and metrics, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace is 0 and the per-layer metrics
// when it is 1.  Exits 0 when every output check passed, 1 when one
// failed, 2 on bad arguments.  See README.md.

#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "lbbench: " << why
            << "\nusage: lbbench --workload serve-small|mid-exact|"
               "large-greedy --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad number");
  }
  if (args.seconds < 1) return usage("--seconds must be at least 1");

  perfbench::Report report;
  try {
    if (args.workload == "serve-small") {
      perfbench::run_serve_small(args, report);
    } else if (args.workload == "mid-exact" ||
               args.workload == "large-greedy") {
      perfbench::run_design_set(args, report);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "lbbench: " << e.what() << "\n";
    return 1;
  }
  return report.print();
}
