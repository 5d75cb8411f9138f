// perfbench: runs one workload of the end-to-end benchmark and prints its
// result as the last line of stdout.
//
//   perfbench --workload oltp_mix|analytics_cold|ingest_durable
//             --seed N --seconds S --trace 0|1
//             --data-dir DIR --out-dir DIR
//
// run.py builds this binary from the checkout and passes the directories.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.process_start = std::chrono::steady_clock::now();
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      cfg.data_dir = value;
    } else if (flag == "--out-dir") {
      cfg.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (cfg.seconds <= 0 || cfg.data_dir.empty() || cfg.out_dir.empty()) {
    std::fprintf(stderr, "need --seconds > 0, --data-dir and --out-dir\n");
    return 2;
  }
  perfbench::Report report;
  if (cfg.workload == "oltp_mix") {
    report = perfbench::RunOltpMix(cfg);
  } else if (cfg.workload == "analytics_cold") {
    report = perfbench::RunAnalyticsCold(cfg);
  } else if (cfg.workload == "ingest_durable") {
    report = perfbench::RunIngestDurable(cfg);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  if (report.gated.empty()) {
    // The workload stopped before its window ended: no result to report.
    for (const auto& e : report.errors) std::fprintf(stderr, "%s\n", e.c_str());
    return 1;
  }
  perfbench::Emit(cfg, report);
  for (const auto& e : report.errors) {
    std::fprintf(stderr, "incorrect: %s\n", e.c_str());
  }
  return 0;
}
