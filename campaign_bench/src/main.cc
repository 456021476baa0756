// campaign_bench: the DeepXplore engine's end-to-end benchmark.
//
//   campaign_bench --workload vision_campaign|tabular_kmnc|fresh_daemon
//                  --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints host facts and every metric by name with its unit, then one JSON
// line {"correct", "attempted", "failed", "metrics"} as the last line of
// stdout. --trace 0 reports the end-to-end metrics; --trace 1 a separate
// traced run's per-layer metrics. Exits 1 when any operation failed or any
// correctness check did not hold, 2 on bad arguments. See README.md.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <thread>

#include "campaign_bench/src/bench.h"
#include "src/tensor/simd.h"

namespace {

int Usage(const char* msg) {
  std::cerr << "campaign_bench: " << msg << "\n"
            << "usage: campaign_bench --workload vision_campaign|tabular_kmnc|fresh_daemon"
               " --seed N --seconds S --trace 0|1 --work-dir DIR\n";
  return 2;
}

template <typename T>
bool ParseNumber(const char* s, T* out) {
  const char* end = s + std::strlen(s);
  auto [ptr, ec] = std::from_chars(s, end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  cb::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      ok = ParseNumber(value, &args.seed);
    } else if (flag == "--seconds") {
      ok = ParseNumber(value, &args.seconds) && args.seconds > 0.0;
    } else if (flag == "--trace") {
      int t = 0;
      ok = ParseNumber(value, &t) && (t == 0 || t == 1);
      args.trace = t == 1;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (!ok) return Usage(("invalid value for " + flag).c_str());
  }
  const bool session_workload =
      args.workload == "vision_campaign" || args.workload == "tabular_kmnc";
  if (!session_workload && args.workload != "fresh_daemon") {
    return Usage("unknown --workload");
  }
  if (args.work_dir.empty()) return Usage("--work-dir is required");

  // Engine environment, fixed before the first zoo / pool use: the fast zoo,
  // a compute pool that with the calling thread fills the host's cores, and
  // a model cache inside the work tree (shared and warm for the session
  // workloads, private to this run for fresh_daemon).
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const std::filesystem::path root(args.work_dir);
  args.cache_dir = session_workload ? (root / "model_cache").string()
                                    : (root / "runs" / std::to_string(::getpid()) /
                                       "model_cache").string();
  std::filesystem::create_directories(root);
  setenv("DEEPXPLORE_FAST", "1", 1);
  setenv("DEEPXPLORE_THREADS", std::to_string(std::max(1, cores - 1)).c_str(), 1);
  setenv("DEEPXPLORE_CACHE_DIR", args.cache_dir.c_str(), 1);

  std::printf("campaign_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: nproc=%d simd=%s (%d float lanes) compiler=%s fast_mode=1\n", cores,
              dx::simd::kBackend, dx::simd::kLanes, CB_COMPILER);

  cb::Report report;
  try {
    if (session_workload) {
      cb::RunSessionWorkload(args, report);
    } else {
      cb::RunDaemonWorkload(args, report);
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("uncaught exception: ") + e.what());
  }
  // Scratch of this run: the service legs' corpora (and the daemon's cache).
  std::error_code ec;
  std::filesystem::remove_all(root / "runs" / std::to_string(::getpid()), ec);
  report.Print();
  return report.ok() ? 0 : 1;
}
