// m3dbench: the repository benchmark driver.
//
//   m3dbench --workload <diag-cold|diag-retest|stream-feed|offline-train>
//            --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//
// Prints progress on stderr and, on stdout, one "exact: {...}" line (the
// values that must repeat bit for bit for a fixed seed, used by
// test_determinism.py) followed by the result as the last line:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans are written to <scratch>/trace-*.jsonl.
// Exits 1 when any output check failed, 2 on a usage or set-up error.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace {

using namespace m3dbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "m3dbench: " << why
            << "\nusage: m3dbench --workload <diag-cold|diag-retest|"
               "stream-feed|offline-train> --seed <n> --seconds <s> "
               "--trace <0|1> --scratch <dir>\n";
  std::exit(2);
}

RunOptions parse_args(int argc, char** argv) {
  RunOptions run;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        run.workload = value;
      } else if (flag == "--seed") {
        run.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        run.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        run.trace = value == "1";
      } else if (flag == "--scratch") {
        run.scratch_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (run.workload.empty()) usage("--workload is required");
  if (run.scratch_dir.empty()) usage("--scratch is required");
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  run.workers = std::clamp(cores - 1, 1, kMaxWorkers);
  return run;
}

std::string exact_json(const Outcome& out) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"inputs_digest\": \"" << out.inputs_digest << "\"";
  for (const auto& [name, value] : out.exact) {
    os << ", \"" << name << "\": " << value;
  }
  os << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions base = parse_args(argc, argv);
  RunOptions run = base;
  run.scratch_dir = base.scratch_dir + "/run-" + base.workload + "-" +
                    std::to_string(base.seed) + (base.trace ? "-t" : "");
  run.trace_path = base.scratch_dir + "/trace-" + base.workload + "-" +
                   std::to_string(base.seed) + ".jsonl";
  Outcome out;
  try {
    std::filesystem::remove_all(run.scratch_dir);
    std::filesystem::create_directories(run.scratch_dir);
    if (run.workload == "diag-cold") {
      out = diag_cold(run);
    } else if (run.workload == "diag-retest") {
      out = diag_retest(run);
    } else if (run.workload == "stream-feed") {
      out = stream_feed(run);
    } else if (run.workload == "offline-train") {
      out = offline_train(run);
    } else {
      usage("unknown workload '" + run.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "m3dbench: error: " << e.what() << "\n";
    return 2;
  }
  out.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");
  std::filesystem::remove_all(run.scratch_dir);

  const bool correct = out.checker.failed() == 0;
  std::cout << "exact: " << exact_json(out) << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.checker.attempted()
            << ", \"failed\": " << out.checker.failed() << ", \"metrics\": "
            << (run.trace ? out.per_layer : out.end_to_end).to_json() << "}"
            << std::endl;
  return correct ? 0 : 1;
}
