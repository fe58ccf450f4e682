// jaguar_perfbench: runs one workload and prints its report followed by a
// single result line (see report.h). Usage:
//
//   jaguar_perfbench --workload udf_scan|analytic|oltp --seed N
//                    --seconds S --trace 0|1 --run-dir DIR
//
// PERFBENCH_SCALE=tiny shrinks every table for smoke tests. Exit status is 0
// whenever a result line was printed (its "correct" field carries the
// verdict) and 1 when the harness itself failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "harness/workload_common.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload udf_scan|analytic|oltp --seed N "
               "--seconds S --trace 0|1 --run-dir DIR\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--run-dir") {
      opts.run_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || opts.run_dir.empty() || opts.seconds <= 0) {
    return Usage(argv[0]);
  }
  const char* scale = std::getenv("PERFBENCH_SCALE");
  opts.tiny = scale != nullptr && std::strcmp(scale, "tiny") == 0;

  std::error_code ec;
  std::filesystem::remove_all(opts.run_dir, ec);
  std::filesystem::create_directories(opts.run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opts.run_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  int status = 0;
  try {
    perfbench::RunResult r;
    if (opts.workload == "udf_scan") {
      r = perfbench::RunUdfScan(opts);
    } else if (opts.workload == "analytic") {
      r = perfbench::RunAnalytic(opts);
    } else if (opts.workload == "oltp") {
      r = perfbench::RunOltp(opts);
    } else {
      std::filesystem::remove_all(opts.run_dir, ec);
      return Usage(argv[0]);
    }
    const bool correct = r.checks_ok && r.failed == 0 && r.attempted > 0;
    std::printf("%s %s\n%s", opts.workload.c_str(),
                opts.trace ? "(traced run: per-layer metrics)" : "(untraced run)",
                r.report.Text().c_str());
    std::printf("%s\n", r.report.JsonLine(correct, r.attempted, r.failed).c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  std::filesystem::remove_all(opts.run_dir, ec);
  return status;
}
