// perfbench: wall-clock benchmark of the Sedna reproduction.
//
//   perfbench --workload fig8_rw|store_mt|skew_churn --seed N --seconds S
//             [--trace 0|1] [--spans FILE] [--tmp DIR]
//
// Prints `# key: value` context lines, one `name value unit` line per
// metric, and finally `result correct=<0|1> attempted=N failed=M`.
// Exit code 0 when the run completed; 2 on bad arguments; 3 when the
// determinism self-check failed.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fig8_rw|store_mt|skew_churn "
               "--seed N --seconds S [--trace 0|1] [--spans FILE] "
               "[--tmp DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = val;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = val == "1";
    } else if (flag == "--spans") {
      opt.spans_path = val;
    } else if (flag == "--tmp") {
      opt.tmp_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0) return usage();
  if (opt.tmp_dir.empty()) opt.tmp_dir = ".";

  perfbench::Report report;
  report.info("workload", opt.workload);
  report.info("seed", std::to_string(opt.seed));
  report.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.info("cpu", cpu_model());
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  report.info("mode",
              opt.trace ? "traced (per-layer)" : "untraced (end-to-end)");

  perfbench::SpanLog spans;
  perfbench::Outcome out;
  if (opt.workload == "fig8_rw") {
    out = perfbench::run_fig8_rw(opt, spans, report);
  } else if (opt.workload == "store_mt") {
    out = perfbench::run_store_mt(opt, spans, report);
  } else if (opt.workload == "skew_churn") {
    out = perfbench::run_skew_churn(opt, spans, report);
  } else {
    return usage();
  }
  report.add("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  report.print();

  if (opt.trace && !opt.spans_path.empty() && !spans.write(opt.spans_path)) {
    std::fprintf(stderr, "cannot write span file %s\n",
                 opt.spans_path.c_str());
    return 1;
  }
  if (!out.deterministic) {
    std::fprintf(stderr, "determinism self-check failed\n");
    return 3;
  }
  std::printf("result correct=%d attempted=%llu failed=%llu wrong=%llu\n",
              out.wrong == 0 ? 1 : 0,
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed + out.wrong),
              static_cast<unsigned long long>(out.wrong));
  return 0;
}
